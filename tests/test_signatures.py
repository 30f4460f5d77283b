import random
from fractions import Fraction
from math import lcm

import pytest

from oribij import fourier_motzkin, signatures
from oribij import (
    CIRCUIT,
    COCIRCUIT,
    CapExceededError,
    Graph,
    InputError,
    InvariantViolationError,
    Orientation,
    RegularMatroidRep,
    Signature,
    canonical_signature_pair,
    canonical_weights,
    directed_circuits_in,
    enumerate_classes,
    explicit_signature,
    graph_to_rep,
    is_acyclic,
    is_compatible,
    signature_from_weights,
    tutte,
)

from helpers import (
    R10_MATRIX,
    ladder_reps,
    matrix_rep,
    random_connected_multigraph,
    random_weights,
    suite_instances,
)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_triangle_circuit_choice(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, 1, 1), CIRCUIT)
    assert [v.entries for v in sig.chosen] == [(1, 1, 1)]
    assert sig.provenance == "weights"


def test_triangle_cocircuit_choices(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, -2, 0), COCIRCUIT)
    by_support = {tuple(sorted(v.support)): v.entries for v in sig.chosen}
    assert by_support == {
        (0, 1): (1, -1, 0),
        (1, 2): (0, -1, 1),
        (0, 2): (1, 0, -1),
    }


def test_single_edge_cocircuit_choice(single_edge_rep):
    sig = signature_from_weights(single_edge_rep, (1,), COCIRCUIT)
    assert [v.entries for v in sig.chosen] == [(1,)]


def test_weight_scores_are_positive(triangle_rep):
    w = (1, -2, 0)
    sig = signature_from_weights(triangle_rep, w, COCIRCUIT)
    scores = sorted(dot(w, v.entries) for v in sig.chosen)
    assert scores == [1, 2, 3]


def test_tie_falls_back_to_canonical(theta_rep):
    # weights orthogonal to the circuit (1,-1,0): tie resolved lexicographically
    sig = signature_from_weights(theta_rep, (1, 1, 0), CIRCUIT)
    chosen = {tuple(sorted(v.support)): v.entries for v in sig.chosen}
    assert chosen[(0, 1)] == (1, -1, 0)
    assert is_acyclic(theta_rep, sig).acyclic


def test_cyclic_explicit_signature_detected(theta_rep):
    sig = explicit_signature(
        theta_rep, CIRCUIT, [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    )
    result = is_acyclic(theta_rep, sig)
    assert not result.acyclic
    assert result.witness is None


def test_single_support_signature_always_acyclic(triangle_rep):
    for choice in [(1, 1, 1), (-1, -1, -1)]:
        sig = explicit_signature(triangle_rep, CIRCUIT, [choice])
        assert is_acyclic(triangle_rep, sig).acyclic


def test_acyclicity_witness_separates(theta_rep):
    sig = signature_from_weights(theta_rep, (1, 5, 25), CIRCUIT)
    result = is_acyclic(theta_rep, sig)
    assert result.acyclic
    for vec in sig.chosen:
        assert dot(result.witness, vec.entries) > 0


def test_a_witness_that_does_not_separate_is_refused(theta_rep, monkeypatch):
    # a positive supremum reported at the zero point: only the strict check can tell
    sig = signature_from_weights(theta_rep, (1, 5, 25), CIRCUIT)
    monkeypatch.setattr(fourier_motzkin, "maximize",
                        lambda rows, nvars, objective: (Fraction(1), [Fraction(0)] * nvars))
    with pytest.raises(InvariantViolationError, match="witness does not separate strictly"):
        is_acyclic(theta_rep, sig)


def test_acyclicity_cap(theta_rep):
    sig = signature_from_weights(theta_rep, (1, 5, 25), CIRCUIT)
    with pytest.raises(CapExceededError):
        is_acyclic(theta_rep, sig, cap=2)


def test_acyclicity_refuses_a_signature_of_another_ground_set(triangle_rep):
    k4 = graph_to_rep(Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))))
    sig, _ = canonical_signature_pair(k4)
    with pytest.raises(InputError):
        is_acyclic(triangle_rep, sig)


def test_weight_induced_signatures_are_acyclic():
    rng = random.Random(11)
    graphs = [
        random_connected_multigraph(rng, rng.randint(3, 6)) for _ in range(3)
    ]
    for g in graphs:
        rep = graph_to_rep(g)
        checked = 0
        while checked < 100:
            w = random_weights(rng, rep.element_count)
            for side in (CIRCUIT, COCIRCUIT):
                sig = signature_from_weights(rep, w, side)
                assert is_acyclic(rep, sig).acyclic
            checked += 1


def refined_weights(weights, n):
    """D 3^n w + (3^(n-1), ..., 3, 1), D the lcm of the denominators: tie-free
    weights whose choices are w's with each tie broken toward the vector
    whose lowest-index entry is +1."""
    w = [Fraction(x) for x in weights]
    scale = lcm(*(x.denominator for x in w)) * 3 ** n
    return [int(scale * x) + 3 ** (n - 1 - j) for j, x in enumerate(w)]


def tied_weights(rng, n):
    """Integer entries in {-1, 0, 1, 2}, or halves and thirds of them."""
    denominator = rng.choice((1, 1, 2, 3))
    return [Fraction(rng.choice((-1, 0, 1, 2)), denominator) for _ in range(n)]


def test_tied_weights_choose_as_their_lexicographic_refinement(monkeypatch):
    # the ladder up to n = 12 and the acceptance pool, each with its matrix
    # twin; support_cap is accepted and ignored
    def refuse(*args, **kwargs):
        raise AssertionError("weight signatures are acyclic without a check")

    monkeypatch.setattr(signatures, "is_acyclic", refuse)
    monkeypatch.setattr(fourier_motzkin, "maximize", refuse)
    reps = [rep for rep in ladder_reps().values() if rep.element_count <= 12]
    reps += [rep for _, rep, _ in suite_instances()]
    rng = random.Random(24)
    ties = 0
    for rep in reps:
        n = rep.element_count
        for r in (rep, matrix_rep(rep)):
            for _ in range(3):
                w = tied_weights(rng, n)
                refined = refined_weights(w, n)
                for side in (CIRCUIT, COCIRCUIT):
                    sig = signature_from_weights(r, w, side, support_cap=0)
                    ties += sum(dot(w, v.entries) == 0 for v in sig.chosen)
                    assert all(dot(refined, v.entries) > 0 for v in sig.chosen)
                    assert sig.chosen == signature_from_weights(r, refined, side).chosen
    assert ties > 500  # the draws do tie


def test_explicit_signature_validation(triangle_rep):
    with pytest.raises(InputError):
        explicit_signature(triangle_rep, CIRCUIT, [(1, -1, 0)])  # not a circuit
    with pytest.raises(InputError):
        explicit_signature(triangle_rep, CIRCUIT, [])  # missing support
    with pytest.raises(InputError):
        explicit_signature(triangle_rep, CIRCUIT, [(1, 1, 1), (-1, -1, -1)])


def test_explicit_signature_refuses_non_integer_entries(triangle_rep):
    # (1.9, 1.2, 1.7) is not read as the triangle's circuit (1, 1, 1)
    explicit_signature(triangle_rep, CIRCUIT, [(1, 1, 1)])
    with pytest.raises(InputError, match="signed circuit entries must be integers"):
        explicit_signature(triangle_rep, CIRCUIT, [(1.9, 1.2, 1.7)])


def test_directed_circuits_in_orientations(triangle_rep, single_edge_rep, two_parallel_rep):
    ref = Orientation.reference(3)
    assert [v.entries for v in directed_circuits_in(triangle_rep, ref)] == [(1, 1, 1)]
    assert directed_circuits_in(single_edge_rep, Orientation.reference(1)) == []
    opposite = Orientation((True, False))
    got = directed_circuits_in(two_parallel_rep, opposite)
    assert [v.entries for v in got] == [(1, -1)]


def test_directed_circuits_in_lists_each_support_both_ways_round():
    # every orientation of K4 and R10: each vector, then its negation, in orientation
    for rep in (graph_to_rep(Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))),
                RegularMatroidRep.from_rows(R10_MATRIX)):
        for side in (CIRCUIT, COCIRCUIT):
            pool = rep._circuits if side == CIRCUIT else rep._cocircuits
            for m in rep.orientation_universe():
                o = Orientation.from_mask(rep.element_count, m)
                want = [c for v in pool for c in (v, -v) if c.in_orientation(o)]
                assert directed_circuits_in(rep, o, side) == want


def test_compatibility_triangle(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, 1, 1), CIRCUIT)
    assert is_compatible(triangle_rep, Orientation.reference(3), sig)
    assert not is_compatible(triangle_rep, Orientation.from_mask(3, 0), sig)


def test_acyclic_orientation_compatible_with_every_signature(triangle_rep):
    # (1,1,0) contains no directed circuit at all
    o = Orientation((True, True, False))
    for choice in [(1, 1, 1), (-1, -1, -1)]:
        sig = explicit_signature(triangle_rep, CIRCUIT, [choice])
        assert is_compatible(triangle_rep, o, sig)


def test_compatible_count_equals_forest_count():
    rng = random.Random(23)
    for _ in range(8):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        sig = signature_from_weights(rep, random_weights(rng, rep.element_count), CIRCUIT)
        count = sum(
            1 for m in rep.orientation_universe() if is_compatible(rep, m, sig)
        )
        assert count == tutte(g, 2, 1)


def test_unique_compatible_orientation_per_cycle_class():
    rng = random.Random(29)
    for _ in range(6):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        sig = signature_from_weights(rep, random_weights(rng, rep.element_count), CIRCUIT)
        for members in enumerate_classes(rep, "cycle"):
            compatible = [o for o in members if is_compatible(rep, o, sig)]
            assert len(compatible) == 1


def test_canonical_pair_is_deterministic(triangle_rep):
    a = canonical_signature_pair(triangle_rep)
    b = canonical_signature_pair(triangle_rep)
    assert a is b
    assert a[0].side == CIRCUIT and a[1].side == COCIRCUIT


def test_canonical_weights_never_tie():
    w = canonical_weights(6)
    assert len(set(w)) == 6
    rng = random.Random(1)
    for _ in range(200):
        vec = [rng.choice((-1, 0, 1)) for _ in range(6)]
        if any(vec):
            assert dot(w, vec) != 0


def test_weight_length_validated(triangle_rep):
    with pytest.raises(InputError):
        signature_from_weights(triangle_rep, (1, 2), CIRCUIT)


def test_signature_hash_is_the_field_hash():
    rep = graph_to_rep(Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))))
    weights = canonical_weights(rep.element_count)
    for side in (CIRCUIT, COCIRCUIT):
        sig = signature_from_weights(rep, weights, side)
        assert hash(sig) == hash((sig.side, sig.chosen, sig.provenance))
        twin = signature_from_weights(rep, weights, side)
        copy = Signature(side=sig.side, chosen=tuple(v for v in sig.chosen),
                         provenance=sig.provenance)
        for other in (twin, copy):
            assert other is not sig and other == sig and hash(other) == hash(sig)
        explicit = explicit_signature(rep, side, [v.entries for v in sig.chosen])
        assert explicit != sig
        assert hash(explicit) == hash((side, sig.chosen, "explicit"))
