import itertools
import random

import pytest

from oribij import (
    Basis,
    CapExceededError,
    Graph,
    InputError,
    NotSameClassError,
    PartialOrientation,
    RegularMatroidRep,
    SignedSupportVector,
    TrivialGraphError,
    conformal_decompose,
    enumerate_bases,
    enumerate_independent_sets,
    enumerate_signed_circuits,
    enumerate_signed_cocircuits,
    find_conforming_circuit_or_cocircuit,
    fundamental_circuit,
    fundamental_cocircuit,
    graph_to_rep,
    is_totally_unimodular,
    loops_only_rep,
    split_kernel_image,
)
from oribij.ratlin import dot

from helpers import R10_MATRIX, matrix_rep, random_connected_multigraph, suite_instances


# ---------------------------------------------------------------------------
# representation construction


def test_triangle_incidence_matrix(triangle_rep):
    assert triangle_rep.matrix == ((1, -1, 0), (0, 1, -1))
    assert triangle_rep.rank == 2
    assert triangle_rep.element_count == 3


def test_single_edge_matrix(single_edge_rep):
    # row for the tail vertex; the head row is the one removed
    assert single_edge_rep.matrix == ((-1,),)


def test_loop_gives_zero_column(triangle_loop):
    rep = graph_to_rep(triangle_loop)
    assert rep.matrix == ((1, -1, 0, 0), (0, 1, -1, 0))


def test_disconnected_graph_rejected():
    with pytest.raises(InputError):
        Graph(4, ((0, 1), (2, 3)))


def test_single_vertex_graph_signals_trivial_case():
    g = Graph(1, ((0, 0), (0, 0)))
    with pytest.raises(TrivialGraphError):
        graph_to_rep(g)
    rep = loops_only_rep(2, graph=g)
    assert rep.rank == 0
    assert [c.entries for c in enumerate_signed_circuits(rep)] == [(1, 0), (0, 1)]
    assert enumerate_signed_cocircuits(rep) == ()
    assert [sorted(b.elements) for b in enumerate_bases(rep)] == [[]]


def test_bad_matrix_entries_rejected():
    with pytest.raises(InputError):
        RegularMatroidRep.from_rows([[2, 0], [0, 1]])
    with pytest.raises(InputError):
        RegularMatroidRep.from_rows([[1, -1], [-1, 1]])  # rank deficient


# ---------------------------------------------------------------------------
# total unimodularity


def test_triangle_matrix_is_tu(triangle_rep):
    assert is_totally_unimodular(triangle_rep.matrix)


def test_non_tu_two_by_two():
    assert not is_totally_unimodular([[1, 1], [-1, 1]])


def test_r10_is_tu():
    assert is_totally_unimodular(R10_MATRIX)


def test_tu_cap():
    big = [[1 if i == j else 0 for j in range(13)] for i in range(13)]
    with pytest.raises(CapExceededError):
        is_totally_unimodular(big)


# ---------------------------------------------------------------------------
# circuits, cocircuits, bases


def test_triangle_circuits(triangle_rep):
    assert [c.entries for c in enumerate_signed_circuits(triangle_rep)] == [(1, 1, 1)]


def test_single_edge_has_no_circuit(single_edge_rep):
    assert enumerate_signed_circuits(single_edge_rep) == ()


def test_parallel_edges_circuit(two_parallel_rep):
    assert [c.entries for c in enumerate_signed_circuits(two_parallel_rep)] == [(1, -1)]


def test_triangle_cocircuits(triangle_rep):
    got = {c.entries for c in enumerate_signed_cocircuits(triangle_rep)}
    assert got == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}


def test_single_edge_cocircuit(single_edge_rep):
    assert [c.entries for c in enumerate_signed_cocircuits(single_edge_rep)] == [(1,)]


def test_parallel_edges_cocircuit(two_parallel_rep):
    assert [c.entries for c in enumerate_signed_cocircuits(two_parallel_rep)] == [(1, 1)]


def test_canonical_sign_convention():
    rng = random.Random(5)
    for _ in range(8):
        rep = graph_to_rep(random_connected_multigraph(rng, rng.randint(3, 8)))
        for vec in enumerate_signed_circuits(rep) + enumerate_signed_cocircuits(rep):
            first = min(vec.support)
            assert vec.entries[first] == 1


def test_triangle_bases(triangle_rep):
    got = {tuple(sorted(b.elements)) for b in enumerate_bases(triangle_rep)}
    assert got == {(0, 1), (0, 2), (1, 2)}


def test_single_edge_basis(single_edge_rep):
    assert [sorted(b.elements) for b in enumerate_bases(single_edge_rep)] == [[0]]


def test_parallel_edges_bases(two_parallel_rep):
    got = {tuple(sorted(b.elements)) for b in enumerate_bases(two_parallel_rep)}
    assert got == {(0,), (1,)}


def test_r10_basis_count():
    rep = RegularMatroidRep.from_rows(R10_MATRIX)
    assert len(enumerate_bases(rep)) == 162


def test_enumeration_cap():
    rep = RegularMatroidRep.from_rows([[1] + [0] * 16])
    with pytest.raises(CapExceededError):
        enumerate_signed_circuits(rep)


def test_circuit_cocircuit_orthogonality():
    rng = random.Random(9)
    for _ in range(6):
        rep = graph_to_rep(random_connected_multigraph(rng, rng.randint(3, 8)))
        for c in enumerate_signed_circuits(rep):
            for d in enumerate_signed_cocircuits(rep):
                assert dot(c.entries, d.entries) == 0


def _support_minimal_sign_vectors(n, member):
    """Support-minimal nonzero {0,+-1} vectors accepted by ``member``, each
    with its lowest-index entry +1, by exhaustive search over {0,+-1}^n."""
    found = {}
    for v in itertools.product((-1, 0, 1), repeat=n):
        if next((x for x in v if x), 0) == 1 and member(v):
            found[v] = frozenset(j for j, x in enumerate(v) if x)
    supports = set(found.values())
    return sorted(v for v, s in found.items() if not any(t < s for t in supports))


def test_circuits_and_cocircuits_match_brute_force():
    reps = []
    for g, rep, _ in suite_instances():
        if g.edge_count <= 8:
            reps += [rep, matrix_rep(rep)]
    reps.append(RegularMatroidRep.from_rows(R10_MATRIX))
    for rep in reps:
        n = rep.element_count
        circuits = _support_minimal_sign_vectors(
            n, lambda v: all(dot(row, v) == 0 for row in rep.matrix))
        cocircuits = _support_minimal_sign_vectors(
            n, lambda v: all(dot(c, v) == 0 for c in circuits))
        got_c = enumerate_signed_circuits(rep)
        got_d = enumerate_signed_cocircuits(rep)
        assert sorted(v.entries for v in got_c) == circuits
        assert sorted(v.entries for v in got_d) == cocircuits
        assert all(v.side == "kernel" for v in got_c)
        assert all(v.side == "image" for v in got_d)


# ---------------------------------------------------------------------------
# fundamental circuits / cocircuits


def test_fundamental_circuit_triangle(triangle_rep):
    b = Basis(frozenset({0, 1}))
    assert fundamental_circuit(triangle_rep, b, 2).entries == (1, 1, 1)
    assert fundamental_circuit(triangle_rep, b, 2, forward=False).entries == (-1, -1, -1)


def test_fundamental_circuit_parallel(two_parallel_rep):
    b = Basis(frozenset({0}))
    assert fundamental_circuit(two_parallel_rep, b, 1).entries == (-1, 1)


def test_fundamental_circuit_of_loop(triangle_loop):
    rep = graph_to_rep(triangle_loop)
    b = Basis(frozenset({0, 1}))
    assert fundamental_circuit(rep, b, 3).entries == (0, 0, 0, 1)


def test_fundamental_circuit_rejects_basis_element(triangle_rep):
    with pytest.raises(InputError):
        fundamental_circuit(triangle_rep, Basis(frozenset({0, 1})), 0)


def test_fundamental_cocircuit_triangle(triangle_rep):
    b = Basis(frozenset({0, 1}))
    assert fundamental_cocircuit(triangle_rep, b, 0).entries == (1, 0, -1)


def test_fundamental_cocircuit_single_edge(single_edge_rep):
    assert fundamental_cocircuit(single_edge_rep, Basis(frozenset({0})), 0).entries == (1,)


def test_fundamental_cocircuit_parallel(two_parallel_rep):
    assert fundamental_cocircuit(two_parallel_rep, Basis(frozenset({0})), 0).entries == (1, 1)


def test_fundamental_cocircuit_rejects_outside_element(triangle_rep):
    with pytest.raises(InputError):
        fundamental_cocircuit(triangle_rep, Basis(frozenset({0, 1})), 2)


def _sign_vectors_in(rep, side):
    """All {0,+-1} vectors of the kernel (image) by brute force."""
    member = rep.in_kernel if side == "kernel" else rep.in_row_space
    n = rep.element_count
    out = []
    for entries in itertools.product((-1, 0, 1), repeat=n):
        if any(entries) and member(entries):
            out.append(SignedSupportVector(entries, side))
    return out


def test_fundamental_circuits_expand_kernel_vectors(triangle_bridge, bowtie):
    for g in (triangle_bridge, bowtie):
        rep = graph_to_rep(g)
        for basis in enumerate_bases(rep):
            for vec in _sign_vectors_in(rep, "kernel"):
                total = [0] * rep.element_count
                for e in vec.support - basis.elements:
                    piece = fundamental_circuit(rep, basis, e, forward=vec.entries[e] > 0)
                    total = [a + b for a, b in zip(total, piece.entries)]
                assert tuple(total) == vec.entries


def test_fundamental_circuits_form_kernel_basis(triangle_bridge):
    rep = graph_to_rep(triangle_bridge)
    for basis in enumerate_bases(rep):
        outside = sorted(set(range(rep.element_count)) - basis.elements)
        vectors = [fundamental_circuit(rep, basis, e).entries for e in outside]
        assert len(vectors) == rep.element_count - rep.rank
        from oribij.ratlin import matrix_rank

        assert matrix_rank(vectors, rep.element_count) == len(vectors)


# ---------------------------------------------------------------------------
# the conforming search


def test_conforming_search_triangle_cycle(triangle_rep):
    partial = PartialOrientation.from_mapping({0: True})
    piece = find_conforming_circuit_or_cocircuit(
        triangle_rep, partial, frozenset({1, 2}), frozenset(), 0
    )
    assert piece.side == "kernel"
    assert piece.entries == (1, 1, 1)


def test_conforming_search_bridge_gives_cocircuit(single_edge_rep):
    partial = PartialOrientation.from_mapping({0: True})
    piece = find_conforming_circuit_or_cocircuit(
        single_edge_rep, partial, frozenset(), frozenset(), 0
    )
    assert piece.side == "image"
    assert piece.entries == (1,)


def test_conforming_search_full_orientation(triangle_rep):
    partial = PartialOrientation.from_mapping({0: True, 1: True, 2: True})
    piece = find_conforming_circuit_or_cocircuit(
        triangle_rep, partial, frozenset(), frozenset(), 0
    )
    assert piece.side == "kernel"
    assert piece.entries == (1, 1, 1)


def test_conforming_search_partition_validated(triangle_rep):
    partial = PartialOrientation.from_mapping({0: True})
    with pytest.raises(InputError):
        find_conforming_circuit_or_cocircuit(
            triangle_rep, partial, frozenset({0, 1, 2}), frozenset(), 0
        )


@pytest.mark.parametrize(
    "edges,vertices",
    [
        (((2, 0), (0, 1), (1, 2)), 3),
        (((0, 1), (0, 1), (0, 1)), 2),
        (((0, 1), (1, 2), (2, 0), (1, 1), (0, 2)), 3),
    ],
)
def test_conforming_search_exhaustive(edges, vertices):
    g = Graph(vertices, edges)
    rep = graph_to_rep(g)
    mrep = matrix_rep(rep)
    n = g.edge_count
    circuits = {v.entries for v in enumerate_signed_circuits(rep)}
    circuits |= {(-v).entries for v in enumerate_signed_circuits(rep)}
    cocircuits = {v.entries for v in enumerate_signed_cocircuits(rep)}
    cocircuits |= {(-v).entries for v in enumerate_signed_cocircuits(rep)}
    for colors in itertools.product(range(4), repeat=n):
        mapping = {j: c == 0 for j, c in enumerate(colors) if c in (0, 1)}
        if not mapping:
            continue
        ec = frozenset(j for j, c in enumerate(colors) if c == 2)
        ed = frozenset(j for j, c in enumerate(colors) if c == 3)
        partial = PartialOrientation.from_mapping(mapping)
        for e in mapping:
            for r in (rep, mrep):
                piece = find_conforming_circuit_or_cocircuit(r, partial, ec, ed, e)
                assert e in piece.support
                for j in piece.support & partial.support:
                    assert piece.entries[j] == (1 if mapping[j] else -1)
                if piece.side == "kernel":
                    assert not piece.support & ed
                    assert piece.entries in circuits
                else:
                    assert not piece.support & ec
                    assert piece.entries in cocircuits


# ---------------------------------------------------------------------------
# conformal decomposition


def test_decompose_single_circuit(triangle_rep):
    vec = SignedSupportVector((1, 1, 1), "kernel")
    assert conformal_decompose(triangle_rep, vec) == (vec,)


def test_decompose_bridge_cocircuit(triangle_bridge):
    rep = graph_to_rep(triangle_bridge)
    vec = SignedSupportVector((0, 0, 0, 1), "image")
    assert conformal_decompose(rep, vec) == (vec,)


def test_decompose_bowtie_two_triangles(bowtie):
    rep = graph_to_rep(bowtie)
    vec = SignedSupportVector((1, 1, 1, 1, 1, 1), "kernel")
    pieces = conformal_decompose(rep, vec)
    assert {p.entries for p in pieces} == {
        (1, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 1),
    }


def test_decompose_rejects_wrong_subspace(triangle_rep):
    with pytest.raises(InputError):
        conformal_decompose(triangle_rep, SignedSupportVector((1, 0, 0), "kernel"))
    with pytest.raises(InputError):
        conformal_decompose(triangle_rep, SignedSupportVector((1, 1, 1), "image"))


@pytest.mark.parametrize("fixture", ["triangle_bridge", "bowtie", "theta"])
def test_decompose_every_sign_vector(request, fixture):
    rep = graph_to_rep(request.getfixturevalue(fixture))
    for side in ("kernel", "image"):
        for vec in _sign_vectors_in(rep, side):
            for r in (rep, matrix_rep(rep)):
                pieces = conformal_decompose(r, vec)
                seen = frozenset()
                total = [0] * rep.element_count
                for p in pieces:
                    assert p.side == side
                    assert not (p.support & seen)
                    seen |= p.support
                    for j in p.support:
                        assert p.entries[j] == vec.entries[j]
                    total = [a + b for a, b in zip(total, p.entries)]
                assert tuple(total) == vec.entries


# ---------------------------------------------------------------------------
# kernel/image split


def test_split_kernel_vector(triangle_rep):
    c, cstar = split_kernel_image(triangle_rep, (1, 1, 1))
    assert c.entries == (1, 1, 1)
    assert cstar.entries == (0, 0, 0)


def test_split_image_vector(triangle_rep):
    c, cstar = split_kernel_image(triangle_rep, (1, -1, 0))
    assert c.entries == (0, 0, 0)
    assert cstar.entries == (1, -1, 0)


def test_split_mixed_vector(triangle_bridge):
    rep = graph_to_rep(triangle_bridge)
    c, cstar = split_kernel_image(rep, (1, 1, 1, -1))
    assert c.entries == (1, 1, 1, 0)
    assert cstar.entries == (0, 0, 0, -1)


def test_split_parts_are_orthogonal_and_sum(triangle_bridge, bowtie):
    rng = random.Random(3)
    for g in (triangle_bridge, bowtie):
        rep = graph_to_rep(g)
        for _ in range(40):
            d = [rng.randint(-2, 2) for _ in range(rep.element_count)]
            try:
                c, cstar = split_kernel_image(rep, d)
            except NotSameClassError:
                continue
            assert [a + b for a, b in zip(c.entries, cstar.entries)] == d
            assert rep.in_kernel(c.entries)
            assert rep.in_row_space(cstar.entries)
            assert dot(c.entries, cstar.entries) == 0


def test_split_signals_non_integral(triangle_rep):
    with pytest.raises(NotSameClassError):
        split_kernel_image(triangle_rep, (1, 0, 0))


def test_independent_sets_count(triangle_rep):
    assert len(enumerate_independent_sets(triangle_rep)) == 7
