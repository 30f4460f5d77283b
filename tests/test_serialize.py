"""The JSON writer against the standard library's indented encoder."""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from oribij import serialize
from oribij.serialize import dump_json, json_pieces

# keys exercise escapes, non-ASCII text and sorting; a dict holds one key type
_keys = st.text(alphabet='a"\\\n\t\x00é€😀', max_size=3)
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
        | st.dictionaries(_keys, inner, max_size=4)
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


# flat records: str and int values and lists or tuples of ints (bools and
# empty ones included, which the record writer must refuse or write as "[]")
_flat_values = (
    _keys
    | st.integers(min_value=-10**20, max_value=10**20)
    | st.lists(st.integers(min_value=-10**20, max_value=10**20), max_size=4)
    | st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(tuple)
    | st.lists(st.integers(min_value=-3, max_value=3) | st.booleans(), max_size=4)
)


@st.composite
def _records(draw):
    """Records over one key set in shuffled insertion orders, plus one that is not flat."""
    keys = draw(st.lists(_keys, unique=True, max_size=4))
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        order = draw(st.permutations(keys))
        records.append({key: draw(_flat_values) for key in order})
    records += draw(st.lists(st.dictionaries(_keys, _flat_values, max_size=3), max_size=2))
    odd = draw(st.dictionaries(_keys, _flat_values, max_size=2))
    odd[draw(_keys)] = draw(
        st.none() | st.floats() | st.booleans() | st.integers()
        | st.lists(st.text(max_size=2), min_size=1, max_size=2)
        | st.dictionaries(_keys, st.integers(), max_size=2)
        | st.dictionaries(st.integers(), st.integers(), min_size=1, max_size=2)
    )
    records.insert(draw(st.integers(min_value=0, max_value=len(records))), odd)
    return records


@settings(max_examples=150, deadline=None)
@given(_records(), st.booleans())
def test_lists_of_flat_records_are_the_standard_indented_encoding(records, nested):
    value = {"count": len(records), "rows": records} if nested else records
    assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


class _Small(int):
    pass


def _record_pieces(value):
    return list(serialize._pieces(value, "", {}, serialize._IntTexts()))


def test_each_flat_record_is_one_piece():
    rows = [
        {"orientation": [1, 0, 1], "subgraph": [], "tag": "basis"},
        {"tag": "forest", "subgraph": (0, 2), "orientation": [0, 0, 1]},
        {"é\n": "\x00", "a": [-(10**30)]},
        {"subset": [0, 2], "coeff": 3},
        {"coeff": -(10**30), "subset": []},
    ]
    pieces = _record_pieces(rows)
    assert len(pieces) == len(rows) + 1  # and the closing bracket
    assert dump_json(rows) == json.dumps(rows, sort_keys=True, indent=2) + "\n"
    # a bool, a float, None, a nested list or an int subclass is not flat: the
    # record takes the general path
    for odd in (True, 1.0, None, _Small(3), [[1]], [True], [_Small(3)]):
        rows[1]["subgraph"] = odd
        assert len(_record_pieces(rows)) > len(rows) + 1
        assert dump_json(rows) == json.dumps(rows, sort_keys=True, indent=2) + "\n"


def test_pieces_are_joined_up_to_a_bound():
    rows = [{"subgraph": list(range(m % 7)), "tag": "t" * (m % 5)} for m in range(5000)]
    pieces = list(json_pieces(rows))
    assert len(pieces) > 2
    assert all(len(piece) >= serialize._PIECE_CHARS for piece in pieces[:-1])
    assert "".join(pieces) == json.dumps(rows, sort_keys=True, indent=2) + "\n"
