"""The table build against the Fraction oracle, and every way it can refuse.

``BijectionTable.build`` splits cp - m through packed projection columns and
gets its compatibility flags bit-parallel.  These tests hold both to the
plain definitions in ``helpers`` (exact Fraction projection, per-mask
``is_compatible``) and make each of the build's invariant checks fire.
"""

import pytest

from oribij import (
    BijectionTable,
    CIRCUIT,
    COCIRCUIT,
    Graph,
    InvariantViolationError,
    Orientation,
    RegularMatroidRep,
    canonical_signature_pair,
    explicit_signature,
    graph_to_rep,
    is_compatible,
    orientation_to_subgraph,
)
from oribij import bijection
from oribij.signatures import _compatible_set

from helpers import R10_MATRIX, matrix_rep, suite_instances, table_oracle


def _oracle_cases():
    """(rep, sig, cosig): the suite graphs with <= 8 edges and their twins, K5, R10."""
    cases = []
    for g, rep, pairs in suite_instances():
        if g.edge_count <= 8:
            cases += [(rep, *pairs[0]), (matrix_rep(rep), *pairs[0])]
    k5 = graph_to_rep(Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5))))
    r10 = RegularMatroidRep.from_rows(R10_MATRIX)
    return cases + [(k5, *canonical_signature_pair(k5)), (r10, *canonical_signature_pair(r10))]


def test_table_equals_the_fraction_oracle():
    oracles = {}
    for rep, sig, cosig in _oracle_cases():
        table = BijectionTable.build(rep, sig, cosig, use_cache=False)
        key = (rep.matrix, sig, cosig)
        if key not in oracles:
            oracles[key] = table_oracle(
                rep.matrix, rep.element_count,
                [v.entries for v in sig.chosen], [v.entries for v in cosig.chosen],
            )
        assert (table.forward, table.tags) == oracles[key]
    assert len(oracles) > 30


def test_bit_parallel_flags_equal_is_compatible():
    for rep, sig, cosig in _oracle_cases():
        for s in (sig, cosig):
            flags = _compatible_set(rep, s)
            assert flags >> (1 << rep.element_count) == 0
            for m in rep.orientation_universe():
                assert bool(flags >> m & 1) == is_compatible(rep, m, s)


# ---------------------------------------------------------------------------
# the build's invariant checks


def _k4():
    return graph_to_rep(Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))))


def test_cyclic_explicit_signature_pair_is_refused(theta_rep):
    # the three 2-cycles of the theta graph, chosen head to tail: they sum to zero
    sig = explicit_signature(theta_rep, CIRCUIT, [(1, -1, 0), (0, 1, -1), (-1, 0, 1)])
    cosig = explicit_signature(theta_rep, COCIRCUIT, [(1, 1, 1)])
    with pytest.raises(InvariantViolationError):
        BijectionTable.build(theta_rep, sig, cosig, use_cache=False)


def test_class_with_two_compatible_orientations_is_refused(monkeypatch):
    rep = _k4()
    classes = bijection._class_masks(rep, "cycle-cocycle")
    merged = [classes[0] + classes[1], *classes[2:]]
    monkeypatch.setattr(bijection, "_class_masks", lambda *args: merged)
    with pytest.raises(InvariantViolationError, match="has 2 compatible orientations, not 1"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_non_injective_basis_map_is_refused(monkeypatch):
    rep = _k4()
    monkeypatch.setattr(bijection, "_orient_basis_mask", lambda *args: 0)
    with pytest.raises(InvariantViolationError, match="basis map is not injective"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_basis_map_missing_a_representative_is_refused(monkeypatch):
    rep = _k4()
    full = (1 << rep.element_count) - 1
    orient = bijection._orient_basis_mask
    # reversing a compatible orientation makes every chosen vector in it anti-chosen
    monkeypatch.setattr(bijection, "_orient_basis_mask", lambda *args: orient(*args) ^ full)
    with pytest.raises(InvariantViolationError, match="missed by the basis map"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_orientation_outside_its_class_is_refused(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    classes = [list(c) for c in bijection._class_masks(rep, "cycle-cocycle")]
    source = next(c for c in classes if len(c) > 1)
    stray = next(
        m for m in source if not (is_compatible(rep, m, sig) and is_compatible(rep, m, cosig))
    )
    source.remove(stray)
    next(c for c in classes if c is not source).append(stray)
    monkeypatch.setattr(bijection, "_class_masks", lambda *args: classes)
    with pytest.raises(InvariantViolationError, match="class split is not integral"):
        BijectionTable.build(rep, sig, cosig, use_cache=False)


def _with_projection(rep, scale):
    """A copy of rep whose projection matrix N is multiplied by ``scale``."""
    fresh = RegularMatroidRep.from_rows(rep.matrix, graph=rep.graph)
    rows, t = rep._projection()
    scaled = tuple(tuple(scale * x for x in row) for row in rows)
    fresh.__dict__["_projection"] = lambda: (scaled, t)
    return fresh


def test_split_that_is_not_a_sign_split_is_refused():
    rep = _with_projection(_k4(), 2)
    sig, cosig = canonical_signature_pair(rep)
    with pytest.raises(InvariantViolationError, match="not a sign split"):
        BijectionTable.build(rep, sig, cosig, use_cache=False)
    # a single query splits through the same columns and refuses it too
    messages = set()
    for m in rep.orientation_universe():
        with pytest.raises(InvariantViolationError) as exc:
            orientation_to_subgraph(rep, Orientation.from_mask(rep.element_count, m), sig, cosig)
        messages.add(str(exc.value))
    assert "same-class split is not a sign vector" in messages


def test_forward_map_that_is_not_a_bijection_is_refused():
    rep = _with_projection(_k4(), 0)
    with pytest.raises(InvariantViolationError, match="not a bijection"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_wrong_tag_is_refused(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    flags = bijection._compatible_set
    # swapping the two signatures' flags swaps forest and connected-spanning
    monkeypatch.setattr(
        bijection, "_compatible_set", lambda rep, s: flags(rep, cosig if s is sig else sig)
    )
    with pytest.raises(InvariantViolationError, match="mapped to a subgraph with"):
        BijectionTable.build(rep, sig, cosig, use_cache=False)
