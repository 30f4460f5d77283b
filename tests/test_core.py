import itertools
import math
import random
from collections import deque
from fractions import Fraction

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
    basis_to_orientation,
    canonical_signature_pair,
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
from oribij import core
from oribij.core import _minors_are_unit
from oribij.geometry import independent_set_polynomial
from oribij.oracle import reversal_closure_classes
from oribij.reversal import enumerate_classes

from helpers import (
    R10_MATRIX,
    complete_graph,
    fraction_determinant,
    fraction_independent_masks,
    fraction_rref,
    fraction_split,
    ladder_reps,
    matrix_rep,
    minors_are_unit_from_scratch,
    random_connected_multigraph,
    row_space_projection,
    suite_instances,
)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# bit-mask helpers


def test_orientations_with_bit_lists_each_element_set():
    for n in range(6):
        want = [sum(1 << m for m in range(1 << n) if m >> e & 1) for e in range(n)]
        assert core.orientations_with_bit(n) == want


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


def test_too_few_edges_to_connect_are_refused_before_the_union_find(monkeypatch):
    def union_find(vertex_count, edges):
        raise AssertionError("the union-find ran")

    monkeypatch.setattr(core, "_components", union_find)
    with pytest.raises(InputError, match="graph must be connected"):
        Graph(10 ** 12, ((0, 1),))
    with pytest.raises(InputError, match="graph must be connected"):
        Graph(3, ((0, 1),))


def test_components_matches_a_breadth_first_count():
    rng = random.Random(2603)
    cases = [(1, []), (1, [(0, 0)]), (3, [])]
    for _ in range(300):
        v = rng.randint(1, 8)
        edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 10))]
        cases.append((v, edges + [(x, x) for x, _ in edges[:2]] + edges[:2]))
    for v, edges in cases:
        neighbours = [[] for _ in range(v)]
        for t, h in edges:
            neighbours[t].append(h)
            neighbours[h].append(t)
        seen, count = set(), 0
        for start in range(v):
            if start in seen:
                continue
            count += 1
            seen.add(start)
            queue = deque([start])
            while queue:
                for w in neighbours[queue.popleft()]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        assert core._components(v, edges) == count, (v, edges)


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
    # a non-integral entry is refused, not truncated to 0
    with pytest.raises(InputError, match=r"matrix entries must be 0 or \+-1"):
        RegularMatroidRep.from_rows([[1, 0.5, 1]])
    # equal to 1 by value, but not an integer: refused, not converted
    for one in (1.0, Fraction(1)):
        with pytest.raises(InputError, match="matrix entries must be integers"):
            RegularMatroidRep.from_rows([[one, 0, 1]])


def test_a_load_eliminates_once(monkeypatch):
    calls = []

    def counted(rows, width):
        calls.append(width)
        return eliminate(rows, width)

    eliminate = core._gauss_jordan
    monkeypatch.setattr(core, "_gauss_jordan", counted)
    # the rank check and the first tableau (and through it the walk over the
    # bases, which checks unimodularity, and the kernel basis) share one
    # elimination
    for load in (lambda: RegularMatroidRep.from_rows(R10_MATRIX),
                 lambda: graph_to_rep(complete_graph(4))):
        calls.clear()
        rep = load()
        assert rep.kernel_basis and rep._first_tableau
        assert calls == [rep.element_count]
    # rank deficient, and the 2 x 2 minor of the first two rows is -2: the
    # rank is refused first, and no unimodularity text is reached
    calls.clear()
    with pytest.raises(InputError, match="matrix must have full row rank"):
        RegularMatroidRep.from_rows([[1, 1], [1, -1], [1, 0]])
    assert calls == [2]


# ---------------------------------------------------------------------------
# the integer Gauss-Jordan elimination


def _gauss_jordan_cases():
    """(rows, width): fixed cases for each branch, then seeded random ones."""
    cases = [
        ([], 3),
        ([[0, 1, 2], [0, 3, 4]], 3),  # a zero column
        ([[0, 1], [1, 0]], 2),  # a row swap
        ([[-2, 1], [1, 1]], 2),  # a negative d
        ([[1, 2, 3], [0, 0, 0], [2, 4, 6]], 3),  # a zero row, rank 1
        ([[0, 1, 1, 0], [0, 2, 2, 1], [1, 0, 0, 0]], 4),  # a swap behind a zero column
        ([[2, 1, 5, -1], [1, 1, 0, 3]], 2),  # carried columns past the width
    ]
    rng = random.Random(31)
    for _ in range(300):
        m, width = rng.randint(1, 5), rng.randint(1, 6)
        extra = rng.randint(0, 2)
        rows = [[rng.randint(-3, 3) for _ in range(width + extra)] for _ in range(m)]
        for j in range(width):
            if rng.random() < 0.15:
                for row in rows:
                    row[j] = 0
        if m > 1 and rng.random() < 0.4:
            a, b = rng.sample(range(m), 2)
            f, g = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[a] = [f * x + g * y for x, y in zip(rows[b], rows[rng.randrange(m)])]
        cases.append((rows, width))
    return cases


def test_gauss_jordan_matches_the_fraction_references():
    seen = {"deficient": 0, "zero column": 0, "swap": 0, "negative": 0, "zero row": 0}
    for rows, width in _gauss_jordan_cases():
        got, pivots, d = core._gauss_jordan(rows, width)
        want, want_pivots = fraction_rref(rows, width)
        assert pivots == want_pivots
        assert all(type(x) is int for row in got for x in row)
        assert [[Fraction(x, d) for x in row] for row in got] == want
        # |d| is the pivot-column determinant on the rows used as pivots,
        # which are all the rows when they are independent
        k = len(pivots)
        blocks = {abs(fraction_determinant([[rows[i][j] for j in pivots] for i in sub]))
                  for sub in itertools.combinations(range(len(rows)), k)}
        assert abs(d) in blocks
        if k == len(rows):
            assert blocks == {abs(d)}
        seen["deficient"] += k < len(rows)
        seen["zero column"] += any(not any(row[j] for row in rows) for j in range(width))
        seen["swap"] += bool(pivots) and rows[0][pivots[0]] == 0
        seen["negative"] += d < 0
        seen["zero row"] += any(not any(row) for row in rows)
    assert min(seen.values()) > 5, seen


# ---------------------------------------------------------------------------
# total unimodularity


def test_triangle_matrix_is_tu(triangle_rep):
    assert is_totally_unimodular(triangle_rep.matrix)


def test_non_tu_two_by_two():
    assert not is_totally_unimodular([[1, 1], [-1, 1]])


def test_r10_is_tu():
    assert is_totally_unimodular(R10_MATRIX)


def test_tu_check_refuses_non_integer_and_ragged_matrices():
    # 0.5 is not truncated to 0, and a short row is not read past its end
    with pytest.raises(InputError, match="matrix entries must be integers"):
        is_totally_unimodular([[0.5, 1]])
    with pytest.raises(InputError, match="ragged matrix"):
        is_totally_unimodular([[1, 0], [1]])


def test_the_walk_over_the_bases_is_the_unimodularity_check():
    # accepted exactly when of full row rank with every r x r minor 0 or +-1
    rng = random.Random(41)
    verdicts = []
    for _ in range(300):
        r, n = rng.randint(1, 4), rng.randint(1, 6)
        density = rng.choice((0.3, 0.5, 0.8))
        rows = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(r)]
        minors = {abs(fraction_determinant([[row[j] for j in columns] for row in rows]))
                  for columns in itertools.combinations(range(n), r)}
        full_rank = minors != {0} and r <= n
        try:
            RegularMatroidRep.from_rows(rows)
            accepted = True
        except InputError as refusal:
            want = ("matrix is not totally unimodular" if full_rank
                    else "matrix must have full row rank")
            assert str(refusal) == want
            accepted = False
        assert accepted == (full_rank and minors <= {0, 1})
        verdicts.append(accepted)
    assert 50 < sum(verdicts) < 250


def test_from_rows_rejects_a_non_tu_minor_behind_unit_pivots():
    # the first basis pivots with 1s, but the non-basis block has determinant -2
    rows = [[1, 0, 1, 1], [0, 1, 1, -1]]
    assert not is_totally_unimodular(rows)
    with pytest.raises(InputError, match="not totally unimodular"):
        RegularMatroidRep.from_rows(rows)


@pytest.mark.parametrize("enumerate_", [
    enumerate_bases,
    lambda rep, cap: enumerate_classes(rep, "cycle", cap=cap),
    lambda rep, cap: reversal_closure_classes(rep, "cycle", cap=cap),
    lambda rep, cap: independent_set_polynomial(rep, cap=cap),
])
def test_matrix_past_the_default_cap_is_checked_when_a_cap_lets_it_through(enumerate_):
    # the same non-TU block padded with zero columns to 17 elements
    rows = [[1, 0, 1, 1] + [0] * 13, [0, 1, 1, -1] + [0] * 13]
    rep = RegularMatroidRep.from_rows(rows)
    with pytest.raises(CapExceededError):
        enumerate_(rep, 16)
    with pytest.raises(InputError, match="not totally unimodular"):
        enumerate_(rep, 17)


def test_incremental_minors_match_the_from_scratch_loop():
    rng = random.Random(29)
    verdicts = []
    for _ in range(300):
        r, n = rng.randint(1, 4), rng.randint(1, 6)
        # sparse draws are mostly TU, dense ones mostly not
        density = rng.choice((0.3, 0.5, 0.8))
        rows = [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(r)]
        verdict = _minors_are_unit(rows)
        assert verdict == minors_are_unit_from_scratch(rows)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 250
    for rows in (R10_MATRIX, [[1, 1], [-1, 1]], [[1, 0, 1, 1], [0, 1, 1, -1]], [[2]], []):
        assert _minors_are_unit(rows) == minors_are_unit_from_scratch(rows)


def test_incremental_minors_on_wide_sparse_matrices():
    # network matrices of random digraphs (TU), and the same with one entry
    # changed, which mostly breaks total unimodularity
    rng = random.Random(31)
    verdicts = []
    for _ in range(12):
        r, n = rng.randint(3, 4), rng.randint(12, 16)
        rows = [[0] * n for _ in range(r)]
        for j in range(n):
            tail, head = rng.sample(range(r + 1), 2)
            if tail < r:
                rows[tail][j] = 1
            if head < r:
                rows[head][j] = -1
        if rng.random() < 0.5:
            rows[rng.randrange(r)][rng.randrange(n)] = rng.choice((-1, 1))
        verdict = _minors_are_unit(rows)
        assert verdict == minors_are_unit_from_scratch(rows)
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_tu_cap():
    big = [[1 if i == j else 0 for j in range(13)] for i in range(13)]
    with pytest.raises(CapExceededError):
        is_totally_unimodular(big)


def test_tu_minor_count_cap_refuses_before_any_minor(monkeypatch):
    # network matrix of a random digraph on 9 vertices and 30 arcs, last row
    # dropped: 8 x 30, so C(38, 8) - 1 = 48,903,491 square minors
    rng = random.Random(37)
    rows = [[0] * 30 for _ in range(8)]
    for j in range(30):
        tail, head = rng.sample(range(9), 2)
        if tail < 8:
            rows[tail][j] = 1
        if head < 8:
            rows[head][j] = -1
    checked = []
    monkeypatch.setattr(core, "_minors_are_unit", lambda rows: checked.append(rows) or True)
    with pytest.raises(CapExceededError, match=f"visits {math.comb(38, 8) - 1} square minors"):
        is_totally_unimodular(rows)
    assert checked == []
    # R10 has C(15, 5) - 1 = 3,002 square minors, well under the cap
    monkeypatch.undo()
    assert is_totally_unimodular(R10_MATRIX)


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


def test_circuits_and_cocircuits_match_brute_force(triangle_loop, triangle_bridge):
    reps = []
    for g, rep, _ in suite_instances():
        if g.edge_count <= 8:
            reps += [rep, matrix_rep(rep)]
    reps.append(RegularMatroidRep.from_rows(R10_MATRIX))
    # unimodular but not TU: every basis tableau is pivoted from the first one
    reps.append(RegularMatroidRep.from_rows([[0, 1, 1, -1], [-1, -1, 1, 0], [-1, -1, 0, 0]]))
    # rank 0 (one empty basis), a loop, a coloop, and parallel edges
    reps += [loops_only_rep(3), graph_to_rep(triangle_loop), graph_to_rep(triangle_bridge),
             graph_to_rep(Graph(3, ((0, 1), (1, 0), (1, 2), (2, 0), (2, 0))))]
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
        for got in (got_c, got_d):
            supports = [sorted(v.support) for v in got]
            assert supports == sorted(supports)
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


def test_fundamental_circuit_rejects_basis_element(triangle_rep, triangle_loop):
    with pytest.raises(InputError):
        fundamental_circuit(triangle_rep, Basis(frozenset({0, 1})), 0)
    # a set that is not a basis is refused the same way by every reader of one:
    # outside the ground set, too small, too large, or dependent (with a loop)
    loop_rep = graph_to_rep(triangle_loop)
    sig, cosig = canonical_signature_pair(triangle_rep)
    loop_sig, loop_cosig = canonical_signature_pair(loop_rep)
    for rep, elements, pairs in (
        (triangle_rep, {5}, (sig, cosig)), (triangle_rep, {0}, (sig, cosig)),
        (triangle_rep, {0, 1, 2}, (sig, cosig)), (triangle_rep, {-1, 0}, (sig, cosig)),
        (loop_rep, {0, 3}, (loop_sig, loop_cosig)),
    ):
        basis = Basis(frozenset(elements))
        for element in range(rep.element_count):
            for read in (fundamental_circuit, fundamental_cocircuit):
                with pytest.raises(InputError, match="not a basis"):
                    read(rep, basis, element)
        with pytest.raises(InputError, match="not a basis"):
            basis_to_orientation(rep, basis, *pairs)


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
        assert len(fraction_rref(vectors, rep.element_count)[1]) == len(vectors)


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


def _first_conforming(rep, partial, ec, ed, e):
    """The scan by its definition: circuits, then cocircuits, each vector then its negation."""
    for pool, forbidden in ((rep._circuits, ed), (rep._cocircuits, ec)):
        for vec in pool:
            for cand in (vec, -vec):
                if e in cand.support and not cand.support & forbidden and all(
                        cand.entries[j] == (1 if partial.mapping[j] else -1)
                        for j in cand.support & partial.support):
                    return cand
    return None


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
                assert piece == _first_conforming(r, partial, ec, ed, e)
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
        projection = row_space_projection(rep.matrix, rep.element_count)
        draws = [[rng.randint(-2, 2) for _ in range(rep.element_count)] for _ in range(40)]
        # entries past one binary digit, and every {0,+-1} vector, against
        # the Fraction split
        draws += [[-7 * x for x in d] for d in draws]
        draws += itertools.product((-1, 0, 1), repeat=rep.element_count)
        split = wide = 0
        for d in draws:
            want_c, want_cstar = fraction_split(projection, d)
            if any(x.denominator != 1 for x in want_cstar):
                with pytest.raises(NotSameClassError):
                    split_kernel_image(rep, d)
                continue
            c, cstar = split_kernel_image(rep, d)
            assert list(c.entries) == want_c and list(cstar.entries) == want_cstar
            assert [a + b for a, b in zip(c.entries, cstar.entries)] == list(d)
            assert rep.in_kernel(c.entries)
            assert rep.in_row_space(cstar.entries)
            assert dot(c.entries, cstar.entries) == 0
            split += 1
            wide += any(abs(x) > 1 for x in d)
        assert split > 1 and wide > 1


def test_split_signals_non_integral(triangle_rep):
    with pytest.raises(NotSameClassError):
        split_kernel_image(triangle_rep, (1, 0, 0))


def test_split_refuses_a_non_integer_vector(triangle_rep):
    # not truncated to the zero vector, whose split is two zero vectors
    with pytest.raises(InputError, match="vector entries must be integers"):
        split_kernel_image(triangle_rep, [0.5, 0.9, 0.2])


def test_projection_is_the_scaled_fraction_projection():
    reps = list(ladder_reps().values()) + [rep for _, rep, _ in suite_instances()][:40]
    reps.append(loops_only_rep(3))  # rank 0
    for rep in reps:
        rows, t = rep._projection
        gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rep.matrix] for ri in rep.matrix]
        assert t == fraction_determinant(gram) > 0
        want = [[t * x for x in row]
                for row in row_space_projection(rep.matrix, rep.element_count)]
        assert [list(row) for row in rows] == want
        assert all(type(x) is int for row in rows for x in row)


def test_independent_sets_match_the_fraction_pass():
    reps = []
    for _, rep, _ in suite_instances():
        reps += [rep, matrix_rep(rep)]
    ladder = ladder_reps()
    reps += [ladder["R10"], ladder["W6"], ladder["grid3x3"]]
    for rep in reps:
        assert rep._independent_masks == fraction_independent_masks(rep.columns, rep.rank)


def _pass_by_pivoting_every_basis(rep):
    """(circuits, cocircuits, bases) from every r-subset's tableau pivoted on its own."""
    n = rep.element_count
    circuits, cocircuits, bases = {}, {}, set()
    for elements in itertools.combinations(range(n), rep.rank):
        b = core.mask_of(elements)
        try:
            tableau = core._basis_tableau(rep, b)
        except InputError as exc:
            assert "not a basis" in str(exc)  # a dependent set
            continue
        bases.add(b)
        fundamental = [1 << e for e in range(n)]
        for element, row in zip(elements, tableau):
            support = core.mask_of(e for e, x in enumerate(row) if x)
            for e in core.bits_of(support):
                fundamental[e] |= 1 << element
            cocircuits.setdefault(support, row)
        for e in range(n):
            if not b >> e & 1:
                entries = [0] * n
                entries[e] = 1
                for element, row in zip(elements, tableau):
                    entries[element] = -row[e]
                circuits.setdefault(fundamental[e], entries)

    def vectors(found, side):
        return tuple(
            SignedSupportVector(tuple(found[s][core.bits_of(s)[0]] * x for x in found[s]), side)
            for s in sorted(found, key=core.bits_of))

    return vectors(circuits, "kernel"), vectors(cocircuits, "image"), bases


@pytest.mark.parametrize("name", ["R10", "W6", "grid3x3", "W7"])
def test_set_up_pivots_no_basis_tableau_from_scratch(monkeypatch, name):
    reference = ladder_reps()[name]
    circuits, cocircuits, bases = _pass_by_pivoting_every_basis(reference)
    loads = [lambda: RegularMatroidRep.from_rows(reference.matrix)]
    if reference.graph is not None:
        loads.append(lambda: graph_to_rep(reference.graph))

    def refuse(*args):
        raise AssertionError("a basis tableau was pivoted from scratch")

    # a matrix is walked at load, so the pivot is refused before the load
    monkeypatch.setattr(core, "_basis_tableau", refuse)
    for load in loads:
        rep = load()
        assert enumerate_signed_circuits(rep) == circuits
        assert enumerate_signed_cocircuits(rep) == cocircuits
        # the walk keeps the set of bases and nothing per basis
        assert rep._tableau_pass[2] == bases


def test_independent_sets_count(triangle_rep):
    assert len(enumerate_independent_sets(triangle_rep)) == 7
