"""The JSON writer against the standard library's indented encoder."""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from oribij.serialize import dump_json

# keys exercise escapes, non-ASCII text and sorting; a dict holds one key type
_scalars = (
    st.none() | st.booleans() | st.integers(min_value=-10**30, max_value=10**30)
    | st.floats() | st.text(max_size=6)
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(st.integers(min_value=-5, max_value=5) | st.booleans(), max_size=5)
        | st.dictionaries(st.text(alphabet='a"\\\n\t\x00é€😀', max_size=3), inner, max_size=4)
        | st.dictionaries(st.integers(min_value=-3, max_value=3), inner, max_size=3)
    ),
    max_leaves=24,
)


@settings(max_examples=80, deadline=None)
@given(_values)
def test_dump_json_is_the_standard_indented_encoding(value):
    assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dump_json_edge_cases():
    for value in (
        [], {}, (), [[]], {"a": {}}, {"a": []}, [1, True, 2], [-1, 0, 1], (1, 2),
        {"z": 1, "a": [1.5, None]}, {"é": "ü", " ": "\x7f"}, {1: [1, 2], -1: {"a": ()}},
        [float("nan"), float("inf")], 10**40,
    ):
        assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
