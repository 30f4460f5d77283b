import itertools
import json
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from oribij import (
    BijectionTable,
    CapExceededError,
    HalfOpenCell,
    InputError,
    InvariantViolationError,
    MultilinearPolynomial,
    Graph,
    Orientation,
    RationalPoint,
    RegularMatroidRep,
    canonical_signature_pair,
    cell_contains,
    cell_count_polynomial,
    dilated_zonotope_lattice_count,
    graph_to_rep,
    independent_set_polynomial,
    locate_point,
    random_rational_point,
    tutte,
    verify_cube_tiling,
)
from oribij import geometry

from helpers import (
    SubsetPolynomial,
    complete_graph,
    random_connected_multigraph,
    random_signature_pair,
)


DATA = Path(__file__).parent / "data"


def _table(rep):
    sig, cosig = canonical_signature_pair(rep)
    return BijectionTable.build(rep, sig, cosig)


# ---------------------------------------------------------------------------
# cells


def test_anchor_lies_in_its_own_cell():
    cell = HalfOpenCell(Orientation((True, False, True)), frozenset({0, 2}))
    assert cell_contains(cell, RationalPoint.of([1, 0, 1]))
    assert cell.dimension == 2


def test_cell_contains_unique_lattice_point():
    anchor = Orientation((True, True, False))
    cell = HalfOpenCell(anchor, frozenset({0, 1}))
    for bits in itertools.product((0, 1), repeat=3):
        point = RationalPoint.of(bits)
        assert cell_contains(cell, point) == (bits == (1, 1, 0))


def test_half_open_interval_sides():
    cell = HalfOpenCell(Orientation((True, True, False)), frozenset({0}))
    assert cell_contains(cell, RationalPoint.of([Fraction(1, 2), 1, 0]))
    assert not cell_contains(cell, RationalPoint.of([0, 1, 0]))
    low = HalfOpenCell(Orientation((False, True, False)), frozenset({0}))
    assert cell_contains(low, RationalPoint.of([0, 1, 0]))
    assert not cell_contains(low, RationalPoint.of([1, 1, 0]))


def test_point_coordinates_validated():
    with pytest.raises(InputError):
        RationalPoint.of([2, 0, 0])


# ---------------------------------------------------------------------------
# point location


def test_lattice_points_locate_to_themselves(triangle_rep):
    table = _table(triangle_rep)
    for m in triangle_rep.orientation_universe():
        o = Orientation.from_mask(3, m)
        point = RationalPoint.of(o.vector())
        assert locate_point(triangle_rep, point, table) == o


def test_interior_point_locates_to_full_cell(triangle_rep):
    table = _table(triangle_rep)
    point = RationalPoint.of([Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)])
    o = locate_point(triangle_rep, point, table)
    assert table.subgraph_of(o) == {0, 1, 2}


def test_mixed_point_locates_uniquely(triangle_rep):
    table = _table(triangle_rep)
    point = RationalPoint.of([Fraction(1, 2), 1, 0])
    o = locate_point(triangle_rep, point, table)
    # brute force over all cells
    hits = []
    for m in triangle_rep.orientation_universe():
        anchor = Orientation.from_mask(3, m)
        cell = HalfOpenCell(anchor, table.subgraph_of(anchor))
        if cell_contains(cell, point):
            hits.append(anchor)
    assert hits == [o]


def test_locate_matches_brute_force_everywhere():
    rng = random.Random(61)
    g = random_connected_multigraph(rng, 6)
    rep = graph_to_rep(g)
    table = _table(rep)
    for _ in range(300):
        point = random_rational_point(6, rng)
        o = locate_point(rep, point, table)
        hits = [
            m for m in rep.orientation_universe()
            if cell_contains(
                HalfOpenCell(Orientation.from_mask(6, m),
                             table.subgraph_of(Orientation.from_mask(6, m))),
                point,
            )
        ]
        assert hits == [o.mask]


def test_locate_dimension_mismatch(triangle_rep):
    table = _table(triangle_rep)
    with pytest.raises(InputError):
        locate_point(triangle_rep, RationalPoint.of([0, 1]), table)


def _k4_table():
    k4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    return _table(graph_to_rep(k4))


def test_locate_point_refuses_a_table_of_another_ground_set(triangle_rep):
    point = RationalPoint.of([Fraction(1, 2), 1, 0])
    with pytest.raises(InputError):
        locate_point(triangle_rep, point, _k4_table())


def test_random_points_are_pinned():
    # the first 50 draws of seed 0, as recorded from the Fraction-only sampler
    rng = random.Random(0)
    got = [[str(x) for x in random_rational_point(5, rng).coords] for _ in range(50)]
    assert got == json.loads((DATA / "rational_points_seed0.json").read_text())


def test_coordinate_draws_follow_choice_and_randint():
    # the formula the sampler used to call, written out: a denominator by
    # choice, then a numerator by randint
    for seed in range(21):
        for n in range(17):
            ours, theirs = random.Random(seed), random.Random(seed)
            want = []
            for _ in range(n):
                d = theirs.choice(geometry.SAMPLE_DENOMINATORS)
                want.append((theirs.randint(0, d), d))
            assert geometry._draw_coordinates(n, ours) == want, (seed, n)
            assert ours.getstate() == theirs.getstate()


# ---------------------------------------------------------------------------
# tiling verification


def test_tiling_passes_for_the_map_and_its_complement(triangle_rep):
    table = _table(triangle_rep)
    for complement in (False, True):
        report = verify_cube_tiling(triangle_rep, table, 2000, seed=11, complement=complement)
        assert report.passed, report


def test_constant_map_fails_tiling(triangle_rep):
    full = 0b111
    fake = types.SimpleNamespace(rep=triangle_rep, forward={m: full for m in range(8)})
    report = verify_cube_tiling(triangle_rep, fake, 50, seed=1)
    assert not report.passed
    assert report.pair_violations


def test_tiling_refuses_a_table_of_another_ground_set(triangle_rep):
    with pytest.raises(InputError):
        verify_cube_tiling(triangle_rep, _k4_table(), 20)


def test_an_image_outside_the_ground_set_is_reported(triangle_rep):
    fake = types.SimpleNamespace(rep=triangle_rep, forward={m: m for m in range(8)})
    fake.forward[5] = 0b1000
    with pytest.raises(InvariantViolationError):
        verify_cube_tiling(triangle_rep, fake, 10)


def test_cell_dimension_matches_subgraph_size(triangle_rep):
    table = _table(triangle_rep)
    dims = sorted(len(s) for _, s, _ in table.rows())
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]


# ---------------------------------------------------------------------------
# counting polynomials


def test_triangle_independent_set_polynomial(triangle_rep):
    poly = independent_set_polynomial(triangle_rep)
    assert len(poly) == 7
    assert poly.coefficient(()) == 1
    assert poly.coefficient((0, 1)) == 1
    assert poly.coefficient((0, 1, 2)) == 0
    assert poly.evaluate([1, 1, 1]) == 7


def test_single_edge_polynomial(single_edge_rep):
    poly = independent_set_polynomial(single_edge_rep)
    assert poly.monomials() == [((), 1), ((0,), 1)]


def test_independent_count_matches_tutte():
    rng = random.Random(67)
    for _ in range(5):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        poly = independent_set_polynomial(rep)
        assert poly.evaluate([1] * rep.element_count) == tutte(g, 2, 1)


def test_cell_polynomial_is_the_cube(triangle_rep):
    table = _table(triangle_rep)
    assert cell_count_polynomial(table) == MultilinearPolynomial.full_cube(3)
    assert len(cell_count_polynomial(table)) == 8


def test_restricted_cell_polynomial_counts_independent_sets(triangle_rep):
    table = _table(triangle_rep)
    compatible = [
        Orientation.from_mask(3, m)
        for m in triangle_rep.orientation_universe()
        if table.tags[m] in ("basis", "forest")
    ]
    assert cell_count_polynomial(table, compatible) == independent_set_polynomial(triangle_rep)


def test_polynomial_identities_on_random_instances():
    rng = random.Random(71)
    for _ in range(5):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        sig, cosig = random_signature_pair(rep, rng)
        table = BijectionTable.build(rep, sig, cosig)
        n = rep.element_count
        assert cell_count_polynomial(table) == MultilinearPolynomial.full_cube(n)
        compatible = [
            Orientation.from_mask(n, m)
            for m in rep.orientation_universe()
            if table.tags[m] in ("basis", "forest")
        ]
        assert cell_count_polynomial(table, compatible) == independent_set_polynomial(rep)


def test_polynomial_arithmetic():
    a = MultilinearPolynomial({frozenset({0}): 2, frozenset(): 1})
    b = MultilinearPolynomial({frozenset({0}): 2})
    diff = a - b
    assert diff.monomials() == [((), 1)]
    assert (a - a).is_zero()
    assert a.evaluate([3]) == 7


def _random_subsets(rng, n):
    subsets = []
    for _ in range(rng.randint(0, 12)):
        subset = [e for e in range(n) if rng.random() < 0.5]
        subsets.append(subset + subset[:rng.randint(0, 1)])
    return subsets


def _agrees(poly, ref, n, rng):
    assert poly.monomials() == ref.monomials()
    assert len(poly) == len(ref)
    assert poly.is_zero() == (len(ref) == 0)
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            assert poly.coefficient(subset) == ref.coefficient(subset)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
    assert poly.evaluate(values) == ref.evaluate(values)


def test_polynomials_match_the_frozenset_reference():
    # subsets may repeat an element; a repeat is the same squarefree monomial
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(0, 6)
        lists = [_random_subsets(rng, n) for _ in range(2)]
        polys = [MultilinearPolynomial.from_subsets(s) for s in lists]
        refs = [SubsetPolynomial.from_subsets(s) for s in lists]
        for poly, ref in zip(polys, refs):
            _agrees(poly, ref, n, rng)
        _agrees(polys[0] - polys[1], refs[0] - refs[1], n, rng)
        assert (polys[0] == polys[1]) == (refs[0].coeffs == refs[1].coeffs)
        assert polys[0] == MultilinearPolynomial.from_subsets(reversed(lists[0]))
        assert (polys[0] - polys[0]) == MultilinearPolynomial()
        coefficients = {frozenset(s): rng.randint(-2, 2) for s in lists[0]}
        _agrees(MultilinearPolynomial(coefficients), SubsetPolynomial(coefficients), n, rng)


@pytest.mark.parametrize("n", range(7))
def test_full_cube_matches_the_frozenset_reference(n):
    _agrees(MultilinearPolynomial.full_cube(n), SubsetPolynomial.full_cube(n), n,
            random.Random(n))


def test_constructor_takes_subset_keys_and_drops_zero_coefficients():
    poly = MultilinearPolynomial({frozenset(): 0, frozenset({1}): 3, frozenset({0, 2}): -1,
                                  frozenset({2}): 0})
    assert poly.monomials() == [((1,), 3), ((0, 2), -1)]
    assert len(poly) == 2
    assert poly.coefficient([2, 0]) == -1 and poly.coefficient(()) == 0
    assert poly == MultilinearPolynomial({(2, 0): -1, (1,): 3})
    assert MultilinearPolynomial({frozenset({0}): 0}) == MultilinearPolynomial()


# ---------------------------------------------------------------------------
# dilated zonotope counting


def test_triangle_unit_dilation_counts_lattice_points(triangle_rep):
    assert dilated_zonotope_lattice_count(triangle_rep, (1, 1, 1)) == 7


def test_single_edge_dilation_is_segment(single_edge_rep):
    for k in (1, 2, 3, 5):
        assert dilated_zonotope_lattice_count(single_edge_rep, (k,)) == k + 1


def test_zonotope_dilation_must_be_integers(triangle_rep):
    # a dilation of 1.5 once counted as 1, giving the unit count 7; bad input
    # is refused before the rank cap is consulted
    for bad in ((1.5, 1, 1), (1.0, 1, 1), (Fraction(3, 2), 1, 1), ("2", 1, 1)):
        for cap in (3, 0):
            with pytest.raises(InputError, match="dilation entries must be integers"):
                dilated_zonotope_lattice_count(triangle_rep, bad, rank_cap=cap)
    with pytest.raises(CapExceededError):
        dilated_zonotope_lattice_count(triangle_rep, (2, 1, 1), rank_cap=1)
    assert dilated_zonotope_lattice_count(triangle_rep, (2, 1, 1)) == 10


def test_zonotope_count_refuses_a_non_unimodular_matrix_past_the_default_cap():
    # the non-TU block of test_core padded with zero columns to 17 elements: its
    # count rests on unimodularity, so the bases are walked before counting
    rows = [[1, 0, 1, 1] + [0] * 13, [0, 1, 1, -1] + [0] * 13]
    rep = RegularMatroidRep.from_rows(rows)
    with pytest.raises(InputError, match="not totally unimodular"):
        dilated_zonotope_lattice_count(rep, (1,) * 17)


def test_zonotope_count_matches_polynomial_up_to_dilation_five():
    k4 = complete_graph(4)
    doubled = Graph(4, k4.edges + k4.edges)
    rng = random.Random(11)
    for g in (k4, doubled):
        rep = graph_to_rep(g)
        n = rep.element_count
        poly = independent_set_polynomial(rep)
        dilations = [(k,) * n for k in range(1, 6)]
        dilations += [tuple(rng.randint(1, 5) for _ in range(n)) for _ in range(5)]
        for q in dilations:
            assert dilated_zonotope_lattice_count(rep, q) == poly.evaluate(q), (g, q)


def test_triangle_mixed_dilation(triangle_rep):
    assert dilated_zonotope_lattice_count(triangle_rep, (2, 1, 1)) == 10


def test_dilation_count_matches_polynomial_exhaustively(triangle_rep):
    poly = independent_set_polynomial(triangle_rep)
    for q in itertools.product((1, 2, 3), repeat=3):
        assert dilated_zonotope_lattice_count(triangle_rep, q) == poly.evaluate(q)


def test_dilation_count_matches_polynomial_rank_three():
    g = graph_to_rep(
        random_connected_multigraph(random.Random(73), 7)
    )
    if g.rank > 3:
        pytest.skip("random fixture exceeded rank 3")
    poly = independent_set_polynomial(g)
    rng = random.Random(5)
    for _ in range(5):
        q = tuple(rng.randint(1, 3) for _ in range(g.element_count))
        assert dilated_zonotope_lattice_count(g, q) == poly.evaluate(q)


def test_dilation_caps_and_validation(triangle_rep):
    with pytest.raises(InputError):
        dilated_zonotope_lattice_count(triangle_rep, (0, 1, 1))
    with pytest.raises(InputError):
        dilated_zonotope_lattice_count(triangle_rep, (1, 1))
    big = graph_to_rep(
        random_connected_multigraph(random.Random(79), 8)
    )
    if big.rank > 3:
        with pytest.raises(CapExceededError):
            dilated_zonotope_lattice_count(big, (1,) * big.element_count)


def test_loops_only_zonotope():
    from oribij import loops_only_rep

    rep = loops_only_rep(3)
    assert dilated_zonotope_lattice_count(rep, (2, 3, 1)) == 1
