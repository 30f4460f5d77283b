"""Property-based checks on randomly drawn multigraphs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from oribij import (
    BijectionTable,
    Graph,
    Orientation,
    canonical_signature_pair,
    directed_circuits_in,
    enumerate_bases,
    graph_to_rep,
    reverse,
    split_kernel_image,
    tutte,
)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@st.composite
def connected_multigraphs(draw, max_extra=3):
    v = draw(st.integers(min_value=2, max_value=4))
    edges = []
    for child in range(1, v):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        if draw(st.booleans()):
            edges.append((parent, child))
        else:
            edges.append((child, parent))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
            max_size=max_extra,
        )
    )
    edges.extend(extra)
    return Graph(v, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs(), st.integers(min_value=0))
def test_reversing_a_circuit_is_an_involution(g, pick):
    rep = graph_to_rep(g)
    o = Orientation.reference(g.edge_count)
    circuits = directed_circuits_in(rep, o)
    if not circuits:
        return
    vec = circuits[pick % len(circuits)]
    flipped = reverse(o, vec)
    assert reverse(flipped, -vec) == o


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs(), st.integers(min_value=0), st.integers(min_value=0))
def test_same_class_difference_splits_orthogonally(g, a, b):
    rep = graph_to_rep(g)
    n = g.edge_count
    table = BijectionTable.build(rep, *canonical_signature_pair(rep))
    masks = sorted(table.forward)
    m1, m2 = masks[a % len(masks)], masks[b % len(masks)]
    from oribij import NotSameClassError

    d = [((m1 >> j) & 1) - ((m2 >> j) & 1) for j in range(n)]
    try:
        c, cstar = split_kernel_image(rep, d)
    except NotSameClassError:
        return
    assert dot(c.entries, cstar.entries) == 0
    assert [x + y for x, y in zip(c.entries, cstar.entries)] == d


@settings(max_examples=25, deadline=None)
@given(connected_multigraphs())
def test_forward_map_is_a_bijection(g):
    rep = graph_to_rep(g)
    table = BijectionTable.build(rep, *canonical_signature_pair(rep))
    n = g.edge_count
    assert len(set(table.forward.values())) == 1 << n


@settings(max_examples=25, deadline=None)
@given(connected_multigraphs())
def test_tree_count_matches_tutte(g):
    rep = graph_to_rep(g)
    assert len(enumerate_bases(rep)) == tutte(g, 1, 1)
