import random

import pytest

from oribij import (
    CapExceededError,
    Graph,
    RegularMatroidRep,
    audit_bijection,
    classify_subset,
    enumerate_bases,
    graph_to_rep,
    rep_for,
    reversal_closure_classes,
    tutte,
)
from oribij.core import closure_mask_partition

from helpers import (
    R10_MATRIX,
    bfs_reversal_classes,
    fraction_determinant,
    ladder_reps,
    matrix_rep,
    random_connected_multigraph,
    suite_instances,
)

KINDS = ("cycle", "cocycle", "cycle-cocycle")
# unimodular but not TU: naive pivoting from A meets a 2 on basis {1, 2, 3}
UNIMODULAR_3X4 = ((0, 1, 1, -1), (-1, -1, 1, 0), (-1, -1, 0, 0))


def test_triangle_tutte_values(triangle):
    assert tutte(triangle, 1, 1) == 3
    assert tutte(triangle, 2, 1) == 7
    assert tutte(triangle, 1, 2) == 4
    assert tutte(triangle, 2, 2) == 8


def test_single_edge_tutte_values(single_edge):
    assert tutte(single_edge, 1, 1) == 1
    assert tutte(single_edge, 2, 1) == 2
    assert tutte(single_edge, 1, 2) == 1
    assert tutte(single_edge, 2, 2) == 2


def test_loop_only_graph():
    g = Graph(1, ((0, 0),))
    assert tutte(g, 1, 1) == 1
    assert tutte(g, 2, 2) == 2
    assert tutte(g, 1, 5) == 5


def test_tutte_cap():
    g = Graph(2, tuple((0, 1) for _ in range(17)))
    with pytest.raises(CapExceededError):
        tutte(g, 1, 1)


def test_tutte_against_independent_enumeration():
    rng = random.Random(83)
    for _ in range(10):
        g = random_connected_multigraph(rng, rng.randint(3, 9))
        rep = graph_to_rep(g)
        n = g.edge_count
        assert tutte(g, 1, 1) == len(enumerate_bases(rep))
        assert tutte(g, 2, 1) == len(rep._independent_masks)
        assert tutte(g, 1, 2) == sum(code & 1 for code in rep._subset_codes)
        assert tutte(g, 2, 2) == 1 << n
        # Cauchy-Binet: the Gram determinant of a TU representation counts bases
        gram = [
            [sum(a * b for a, b in zip(ri, rj)) for rj in rep.matrix]
            for ri in rep.matrix
        ]
        assert fraction_determinant(gram) == tutte(g, 1, 1)


def test_classify_subset_cases(triangle):
    assert classify_subset(triangle, ()) == "forest"
    assert classify_subset(triangle, (0, 1)) == "tree"
    assert classify_subset(triangle, (0, 1, 2)) == "connected-spanning"


def test_classify_subset_of_tree_graph():
    path = Graph(3, ((0, 1), (1, 2)))
    assert classify_subset(path, (0, 1)) == "tree"
    assert classify_subset(path, (0,)) == "forest"


def test_classify_neither():
    square_with_tail = Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4), (0, 3)))
    # contains the triangle but misses vertex 4's connection
    assert classify_subset(square_with_tail, (0, 1, 2, 3)) == "neither"


def test_audit_bijection_reports():
    ok = audit_bijection([1, 2, 3], {1: "a", 2: "b", 3: "c"}, ["a", "b", "c"])
    assert ok.bijective

    broken = audit_bijection([1, 2, 3], {1: "a", 2: "a", 3: "c"}, ["a", "b", "c"])
    assert not broken.injective
    assert broken.collisions == ((1, 2, "a"),)
    assert broken.missing == ("b",)


def test_triangle_closure_classes(triangle_rep):
    classes = reversal_closure_classes(triangle_rep, "cycle-cocycle")
    assert len(classes) == 3
    assert sorted(len(c) for c in classes) == [2, 3, 3]


def test_closure_counts_match_tutte():
    rng = random.Random(89)
    evaluations = {"cycle": (2, 1), "cocycle": (1, 2), "cycle-cocycle": (1, 1)}
    for _ in range(8):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        for kind, (x, y) in evaluations.items():
            assert len(reversal_closure_classes(rep, kind)) == tutte(g, x, y)


def test_every_orientation_has_a_move_under_joint_kind():
    # on a connected graph with an edge, every arc is in a cycle or cocycle,
    # so singleton joint classes happen only when no move applies at all
    rng = random.Random(97)
    for _ in range(5):
        g = random_connected_multigraph(rng, rng.randint(3, 6))
        rep = graph_to_rep(g)
        circuits = rep._circuits
        cocircuits = rep._cocircuits
        covered = set()
        for vec in circuits + cocircuits:
            covered |= vec.support
        assert covered == set(range(g.edge_count))


def _moves(rep, kind):
    pool = {"cycle": rep._circuits, "cocycle": rep._cocircuits,
            "cycle-cocycle": rep._circuits + rep._cocircuits}[kind]
    return [(vec.pos_mask, vec.neg_mask) for vec in pool]


def test_closure_partition_equals_the_bfs_reference(triangle_loop, triangle_bridge):
    reps = [rep for _, rep, _ in suite_instances()]
    # n = 0, n = 1 (a bridge, a loop), two bridges, an antiparallel pair, rank 0,
    # parallel edges, a triangle with a loop and one with a bridge
    small = [Graph(1, ()), Graph(2, ((0, 1),)), Graph(1, ((0, 0),)), Graph(3, ((0, 1), (2, 1))),
             Graph(2, ((0, 1), (1, 0))), Graph(1, ((0, 0),) * 3), Graph(2, ((0, 1),) * 4),
             triangle_loop, triangle_bridge]
    reps += [rep_for(g) for g in small]
    reps += [matrix_rep(rep) for rep in reps[-len(small):]]
    reps += [RegularMatroidRep.from_rows(R10_MATRIX), RegularMatroidRep.from_rows(UNIMODULAR_3X4)]
    assert {rep.element_count for rep in reps} >= set(range(11))
    assert any(rep.rank == 0 for rep in reps)
    for rep in reps:
        for kind in KINDS:
            want = tuple(bfs_reversal_classes(rep.element_count, _moves(rep, kind)))
            assert closure_mask_partition(rep, kind) == want, (rep.matrix, kind)


# Gioan: T(2,1) cycle-reversal, T(1,2) cocycle-reversal and T(1,1) joint classes
@pytest.mark.parametrize("name, counts", [
    ("W8", (18_462, 18_462, 2_205)),
    ("grid3x3", (3_102, 431, 192)),
    ("R10", (533, 533, 162)),
])
def test_class_counts_are_gioans(name, counts):
    rep = ladder_reps()[name]
    assert tuple(len(closure_mask_partition(rep, kind)) for kind in KINDS) == counts
    if rep.graph is not None:
        g = rep.graph
        assert counts == (tutte(g, 2, 1), tutte(g, 1, 2), tutte(g, 1, 1))


def test_class_counts_on_the_acceptance_pool():
    for _, rep, _ in suite_instances():
        for r in (rep, matrix_rep(rep)):
            spanning = sum(code & 1 for code in r._subset_codes)
            want = (len(r._independent_masks), spanning, len(r._basis_masks))
            assert tuple(len(closure_mask_partition(r, kind)) for kind in KINDS) == want
