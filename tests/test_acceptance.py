"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The randomized pool is seeded, so every run checks the same
instances.
"""

import itertools
import random
import time

import pytest

from oribij import (
    BijectionTable,
    Graph,
    Orientation,
    PartialOrientation,
    RegularMatroidRep,
    canonical_signature_pair,
    cell_count_polynomial,
    dilated_zonotope_lattice_count,
    enumerate_bases,
    enumerate_classes,
    graph_to_rep,
    independent_set_polynomial,
    is_totally_unimodular,
    orientation_to_subgraph,
    restricted_orientation_map,
    restricted_subgraph_map,
    reversal_closure_classes,
    tutte,
    verify_cube_tiling,
)
from oribij.geometry import MultilinearPolynomial
from oribij.verification import separation_violations

from helpers import (
    R10_MATRIX,
    fraction_determinant,
    matrix_rep,
    suite_instances,
    unseparated_pairs,
)

TRIANGLE = Graph(3, ((2, 0), (0, 1), (1, 2)))


@pytest.fixture(scope="module")
def suite():
    return suite_instances(seed=20240, count=50, pairs_per_graph=3)


def _tag_counts(table):
    counts = {"basis": 0, "forest": 0, "connected-spanning": 0, "general": 0}
    for m in table.rep.orientation_universe():
        counts[table.tags[m]] += 1
    return counts


def test_criterion_1_triangle_fixture():
    start = time.perf_counter()
    rep = graph_to_rep(TRIANGLE)
    assert rep.matrix == ((1, -1, 0), (0, 1, -1))
    sig, cosig = canonical_signature_pair(rep)
    table = BijectionTable.build(rep, sig, cosig)

    classes = enumerate_classes(rep, "cycle-cocycle")
    assert len(classes) == 3

    counts = _tag_counts(table)
    trees = {tuple(sorted(b.elements)) for b in enumerate_bases(rep)}
    assert counts["basis"] == 3 == len(trees)
    compatible_images = {
        tuple(sorted(table.subgraph_of(Orientation.from_mask(3, m))))
        for m in rep.orientation_universe()
        if table.tags[m] == "basis"
    }
    assert compatible_images == trees

    assert counts["basis"] + counts["forest"] == 7 == tutte(TRIANGLE, 2, 1)
    assert counts["basis"] + counts["connected-spanning"] == 4 == tutte(TRIANGLE, 1, 2)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS (triangle fixture, {elapsed:.3f}s)")


def test_criterion_2_random_suite(suite):
    start = time.perf_counter()
    instances = 0
    pairs = 0
    for g, rep, sig_pairs in suite:
        n = rep.element_count
        want = {
            "bases": tutte(g, 1, 1),
            "independent": tutte(g, 2, 1),
            "spanning": tutte(g, 1, 2),
            "total": tutte(g, 2, 2),
        }
        for sig, cosig in sig_pairs:
            table = BijectionTable.build(rep, sig, cosig)
            assert len(set(table.forward.values())) == 1 << n
            assert unseparated_pairs([table.forward[m] for m in range(1 << n)]) == []
            assert separation_violations(table) == []
            counts = _tag_counts(table)
            assert counts["basis"] == want["bases"]
            assert counts["basis"] + counts["forest"] == want["independent"]
            assert counts["basis"] + counts["connected-spanning"] == want["spanning"]
            assert sum(counts.values()) == want["total"] == 1 << n
            pairs += 1
        for kind in ("cycle", "cocycle", "cycle-cocycle"):
            ours = sorted(tuple(o.mask for o in c) for c in enumerate_classes(rep, kind))
            oracle = sorted(
                tuple(sorted(o.mask for o in c))
                for c in reversal_closure_classes(rep, kind)
            )
            assert ours == oracle
        instances += 1
    elapsed = time.perf_counter() - start
    assert instances == 50 and pairs == 150
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2: PASS ({instances} graphs x {pairs // instances} pairs, {elapsed:.1f}s)")


def test_criterion_3_polynomial_identities(suite):
    checked = 0
    for _, rep, sig_pairs in suite:
        n = rep.element_count
        cube = MultilinearPolynomial.full_cube(n)
        independent = independent_set_polynomial(rep)
        for sig, cosig in sig_pairs:
            table = BijectionTable.build(rep, sig, cosig)
            assert cell_count_polynomial(table) == cube
            compatible = [
                Orientation.from_mask(n, m)
                for m in rep.orientation_universe()
                if table.tags[m] in ("basis", "forest")
            ]
            assert cell_count_polynomial(table, compatible) == independent
            checked += 1
    print(f"\nACCEPTANCE 3: PASS (both identities on {checked} instances)")


def test_criterion_4_ehrhart_cross_check(suite):
    rng = random.Random(424)
    exhaustive = 0
    sampled = 0
    fixtures = [
        TRIANGLE,
        Graph(2, ((0, 1),)),
        Graph(2, ((0, 1), (0, 1))),
        Graph(2, ((0, 1), (0, 1), (0, 1))),
        Graph(3, ((2, 0), (0, 1), (1, 2), (0, 0))),
    ]
    for g in fixtures:
        rep = graph_to_rep(g)
        assert rep.rank <= 3
        poly = independent_set_polynomial(rep)
        for q in itertools.product((1, 2, 3), repeat=rep.element_count):
            assert dilated_zonotope_lattice_count(rep, q) == poly.evaluate(q)
            exhaustive += 1
    for _, rep, _ in suite:
        if rep.rank > 3:
            continue
        poly = independent_set_polynomial(rep)
        n = rep.element_count
        dilations = [(1,) * n, (3,) * n]
        dilations += [tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(3)]
        for q in dilations:
            assert dilated_zonotope_lattice_count(rep, q) == poly.evaluate(q)
            sampled += 1
    print(
        f"\nACCEPTANCE 4: PASS ({exhaustive} exhaustive + {sampled} sampled dilations)"
    )


def test_criterion_5_half_open_tiling(suite):
    instances = [(graph_to_rep(TRIANGLE), *canonical_signature_pair(graph_to_rep(TRIANGLE)))]
    for _, rep, sig_pairs in suite:
        if rep.element_count <= 8 and len(instances) < 7:
            instances.append((rep, *sig_pairs[0]))
    total_points = 0
    for rep, sig, cosig in instances:
        table = BijectionTable.build(rep, sig, cosig)
        for complement in (False, True):
            report = verify_cube_tiling(rep, table, 10_000, seed=5, complement=complement)
            assert report.passed
            assert not report.point_violations
            total_points += report.sample_count
    print(
        f"\nACCEPTANCE 5: PASS ({len(instances)} instances x 2 maps x 10000 points, "
        f"{total_points} points total, zero violations)"
    )


def test_criterion_6_local_bijectivity(suite):
    small = [(TRIANGLE, graph_to_rep(TRIANGLE), [canonical_signature_pair(graph_to_rep(TRIANGLE))])]
    small += [(g, rep, pairs) for g, rep, pairs in suite if rep.element_count <= 6]
    assert len(small) >= 5
    maps_checked = 0
    for _, rep, pairs in small:
        sig, cosig = pairs[0]
        n = rep.element_count
        for colors in itertools.product(range(3), repeat=n):
            mapping = {j: c == 1 for j, c in enumerate(colors) if c}
            local = restricted_subgraph_map(
                rep, PartialOrientation.from_mapping(mapping), sig, cosig
            )
            free = n - len(mapping)
            assert len(local) == 1 << free
            assert len(set(local.values())) == 1 << free

            include = tuple(j for j, c in enumerate(colors) if c == 1)
            exclude = tuple(j for j, c in enumerate(colors) if c == 2)
            inverse = restricted_orientation_map(rep, include, exclude, sig, cosig)
            free = n - len(include) - len(exclude)
            assert len(inverse) == 1 << free
            assert len(set(inverse.values())) == 1 << free
            maps_checked += 2
    print(
        f"\nACCEPTANCE 6: PASS ({len(small)} instances, {maps_checked} restricted maps, exhaustive)"
    )


def test_criterion_7_matroid_parity(suite):
    # triangle fixture through the matrix-only path
    rep_g = graph_to_rep(TRIANGLE)
    rep_m = matrix_rep(rep_g)
    assert rep_m.graph is None
    sig, cosig = canonical_signature_pair(rep_g)
    table_g = BijectionTable.build(rep_g, sig, cosig)
    table_m = BijectionTable.build(rep_m, sig, cosig)
    assert table_g.forward == table_m.forward
    assert table_g.tags == table_m.tags

    checked_orientations = 0
    for _, rep, sig_pairs in suite:
        n = rep.element_count
        repm = matrix_rep(rep)
        for s, cs in sig_pairs:
            tg = BijectionTable.build(rep, s, cs)
            tm = BijectionTable.build(repm, s, cs)
            assert tg.forward == tm.forward
            assert tg.tags == tm.tags
            assert tg.orientation_bases == tm.orientation_bases
        for kind in ("cycle", "cocycle", "cycle-cocycle"):
            assert enumerate_classes(rep, kind) == enumerate_classes(repm, kind)
        assert independent_set_polynomial(rep) == independent_set_polynomial(repm)
        # the per-orientation route, on a graph and on its matrix twin
        s, cs = sig_pairs[0]
        if n <= 6:
            masks = list(rep.orientation_universe())
        else:
            rng = random.Random(n)
            masks = [rng.randrange(1 << n) for _ in range(30)]
        for m in masks:
            o = Orientation.from_mask(n, m)
            assert orientation_to_subgraph(rep, o, s, cs) == \
                orientation_to_subgraph(repm, o, s, cs)
            checked_orientations += 1

    # R10: total unimodularity plus two independent basis counts
    assert is_totally_unimodular(R10_MATRIX)
    r10 = RegularMatroidRep.from_rows(R10_MATRIX)
    gram = [
        [sum(a * b for a, b in zip(ri, rj)) for rj in R10_MATRIX]
        for ri in R10_MATRIX
    ]
    assert len(enumerate_bases(r10)) == fraction_determinant(gram) == 162
    print(
        f"\nACCEPTANCE 7: PASS (matroid path identical on all suite instances, "
        f"{checked_orientations} twin-checked orientations, R10 verified)"
    )
