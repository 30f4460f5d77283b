import itertools
import random

import pytest

from oribij import (
    Basis,
    BijectionTable,
    CIRCUIT,
    COCIRCUIT,
    InputError,
    NotCompatibleError,
    Orientation,
    PartialOrientation,
    audit_bijection,
    basis_from_orientation,
    basis_to_orientation,
    canonical_signature_pair,
    classify_specialization,
    classify_subset,
    enumerate_bases,
    explicit_signature,
    graph_to_rep,
    is_compatible,
    orientation_to_subgraph,
    orientation_to_subgraph_complement,
    restricted_orientation_map,
    restricted_subgraph_map,
    signature_from_weights,
    subgraph_to_orientation,
)

from helpers import random_connected_multigraph, random_signature_pair


def test_single_edge_basis_orientation(single_edge_rep):
    sig = signature_from_weights(single_edge_rep, (1,), CIRCUIT)
    cosig = signature_from_weights(single_edge_rep, (1,), COCIRCUIT)
    o = basis_to_orientation(single_edge_rep, Basis(frozenset({0})), sig, cosig)
    assert o.vector() == (1,)


def test_parallel_edges_basis_orientation(two_parallel_rep):
    sig = explicit_signature(two_parallel_rep, CIRCUIT, [(-1, 1)])
    cosig = explicit_signature(two_parallel_rep, COCIRCUIT, [(1, 1)])
    o = basis_to_orientation(two_parallel_rep, Basis(frozenset({0})), sig, cosig)
    assert o.vector() == (1, 1)


def test_triangle_bases_map_onto_compatible_orientations(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    images = set()
    for basis in enumerate_bases(triangle_rep):
        o = basis_to_orientation(triangle_rep, basis, sig, cosig)
        assert is_compatible(triangle_rep, o, sig)
        assert is_compatible(triangle_rep, o, cosig)
        images.add(o.mask)
    compatible = {
        m for m in triangle_rep.orientation_universe()
        if is_compatible(triangle_rep, m, sig) and is_compatible(triangle_rep, m, cosig)
    }
    assert images == compatible
    assert len(images) == 3


def test_basis_round_trip(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for basis in enumerate_bases(triangle_rep):
        o = basis_to_orientation(triangle_rep, basis, sig, cosig)
        assert basis_from_orientation(triangle_rep, o, sig, cosig) == basis


def test_basis_from_incompatible_orientation_rejected(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    with pytest.raises(NotCompatibleError):
        basis_from_orientation(triangle_rep, Orientation.from_mask(3, 0), sig, cosig)


@pytest.mark.parametrize("query", [
    basis_from_orientation,
    classify_specialization,
    orientation_to_subgraph,
    orientation_to_subgraph_complement,
])
def test_wrong_length_orientation_fails_at_the_door(triangle_rep, query):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for o in (Orientation.from_mask(5, 21), Orientation.from_mask(2, 1)):
        with pytest.raises(InputError, match="orientation length disagrees with the ground set"):
            query(triangle_rep, o, sig, cosig)


def test_basis_separation_property():
    rng = random.Random(41)
    for _ in range(6):
        g = random_connected_multigraph(rng, rng.randint(3, 7))
        rep = graph_to_rep(g)
        sig, cosig = random_signature_pair(rep, rng)
        pairs = list(itertools.combinations(enumerate_bases(rep), 2))
        for b1, b2 in pairs:
            o1 = basis_to_orientation(rep, b1, sig, cosig)
            o2 = basis_to_orientation(rep, b2, sig, cosig)
            sym = b1.elements ^ b2.elements
            assert any(o1.signs[e] != o2.signs[e] for e in sym)


def test_compatible_orientation_maps_to_its_tree(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for basis in enumerate_bases(triangle_rep):
        o = basis_to_orientation(triangle_rep, basis, sig, cosig)
        assert orientation_to_subgraph(triangle_rep, o, sig, cosig) == basis.elements


def test_anti_cycle_maps_to_full_edge_set(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, 1, 1), CIRCUIT)
    cosig = signature_from_weights(triangle_rep, (1, -2, 0), COCIRCUIT)
    anti = Orientation.from_mask(3, 0)
    assert orientation_to_subgraph(triangle_rep, anti, sig, cosig) == {0, 1, 2}


def test_single_edge_backward_maps_to_empty(single_edge_rep):
    sig = signature_from_weights(single_edge_rep, (1,), CIRCUIT)
    cosig = signature_from_weights(single_edge_rep, (1,), COCIRCUIT)
    assert orientation_to_subgraph(single_edge_rep, Orientation((False,)), sig, cosig) == frozenset()


def test_orientation_to_subgraph_rejects_wrong_length(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for signs in ((True, False), (True, False, True, False), (True, False, True, True)):
        with pytest.raises(InputError):
            orientation_to_subgraph(triangle_rep, Orientation(signs), sig, cosig)


def test_forward_map_is_bijective_and_invertible():
    rng = random.Random(43)
    for _ in range(6):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        sig, cosig = random_signature_pair(rep, rng)
        table = BijectionTable.build(rep, sig, cosig)
        n = rep.element_count
        images = set()
        for m in rep.orientation_universe():
            o = Orientation.from_mask(n, m)
            s = table.subgraph_of(o)
            images.add(frozenset(s))
            assert subgraph_to_orientation(rep, s, sig, cosig) == o
        assert len(images) == 1 << n


def test_triangle_trees_pull_back_to_compatible_orientations(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for basis in enumerate_bases(triangle_rep):
        o = subgraph_to_orientation(triangle_rep, basis.elements, sig, cosig)
        assert is_compatible(triangle_rep, o, sig)
        assert is_compatible(triangle_rep, o, cosig)


def test_complement_map(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    full = frozenset(range(3))
    for m in triangle_rep.orientation_universe():
        o = Orientation.from_mask(3, m)
        phi = orientation_to_subgraph(triangle_rep, o, sig, cosig)
        star = orientation_to_subgraph_complement(triangle_rep, o, sig, cosig)
        assert star == full - phi
    # the complement of a tree image has one element
    basis = enumerate_bases(triangle_rep)[0]
    o = basis_to_orientation(triangle_rep, basis, sig, cosig)
    assert len(orientation_to_subgraph_complement(triangle_rep, o, sig, cosig)) == 1


def test_complement_also_separates(triangle_rep, bowtie):
    for rep in (triangle_rep, graph_to_rep(bowtie)):
        sig, cosig = canonical_signature_pair(rep)
        table = BijectionTable.build(rep, sig, cosig)
        n = rep.element_count
        full = (1 << n) - 1
        images = [table.forward[m] ^ full for m in rep.orientation_universe()]
        for a in range(1 << n):
            for b in range(a + 1, 1 << n):
                assert (a ^ b) & (images[a] ^ images[b])


def test_separation_property_random_instances():
    rng = random.Random(47)
    for _ in range(6):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        sig, cosig = random_signature_pair(rep, rng)
        table = BijectionTable.build(rep, sig, cosig)
        images = [table.forward[m] for m in rep.orientation_universe()]
        total = 1 << rep.element_count
        for a in range(total):
            for b in range(a + 1, total):
                assert (a ^ b) & (images[a] ^ images[b])


def test_triangle_specialization_counts(triangle_rep, triangle):
    sig, cosig = canonical_signature_pair(triangle_rep)
    tags = [
        classify_specialization(triangle_rep, Orientation.from_mask(3, m), sig, cosig)
        for m in triangle_rep.orientation_universe()
    ]
    assert tags.count("basis") == 3
    assert tags.count("basis") + tags.count("forest") == 7
    assert tags.count("basis") + tags.count("connected-spanning") == 4


def test_tags_agree_with_graph_classification(triangle_rep, triangle):
    sig, cosig = canonical_signature_pair(triangle_rep)
    table = BijectionTable.build(triangle_rep, sig, cosig)
    expected = {
        "basis": "tree",
        "forest": "forest",
        "connected-spanning": "connected-spanning",
        "general": "neither",
    }
    for o, subgraph, tag in table.rows():
        assert classify_subset(triangle, subgraph) == expected[tag]


def test_acyclic_orientation_gets_forest_tag(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    o = Orientation((True, True, False))  # no directed circuit
    assert classify_specialization(triangle_rep, o, sig, cosig) in ("forest", "basis")


def test_restricted_map_empty_fixing_is_whole_map(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    table = BijectionTable.build(triangle_rep, sig, cosig)
    local = restricted_subgraph_map(
        triangle_rep, PartialOrientation.from_mapping({}), sig, cosig
    )
    assert len(local) == 8
    for combo, image in local.items():
        o = Orientation(combo)
        assert image == table.subgraph_of(o)


def test_restricted_map_full_fixing_is_singleton(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    local = restricted_subgraph_map(
        triangle_rep,
        PartialOrientation.from_mapping({0: True, 1: False, 2: True}),
        sig, cosig,
    )
    assert list(local.keys()) == [()]
    assert local[()] == frozenset()


def test_restricted_map_triangle_one_fixed_edge(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    local = restricted_subgraph_map(
        triangle_rep, PartialOrientation.from_mapping({2: True}), sig, cosig
    )
    assert len(local) == 4
    assert len(set(local.values())) == 4


def test_restricted_inverse_map_cases(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    table = BijectionTable.build(triangle_rep, sig, cosig)
    whole = restricted_orientation_map(triangle_rep, (), (), sig, cosig)
    assert len(whole) == 8
    for subset, combo in whole.items():
        assert table.subgraph_of(Orientation(combo)) == subset

    nothing_free = restricted_orientation_map(triangle_rep, (0, 1), (2,), sig, cosig)
    assert list(nothing_free.keys()) == [frozenset()]

    partial = restricted_orientation_map(triangle_rep, (0,), (1,), sig, cosig)
    assert len(partial) == 2
    assert len(set(partial.values())) == 2


def test_restricted_maps_reject_elements_outside_ground_set(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for fixed in (3, 5, -1):
        with pytest.raises(InputError):
            restricted_subgraph_map(
                triangle_rep, PartialOrientation.from_mapping({0: True, fixed: True}),
                sig, cosig,
            )
        with pytest.raises(InputError):
            restricted_orientation_map(triangle_rep, (fixed,), (), sig, cosig)
        with pytest.raises(InputError):
            restricted_orientation_map(triangle_rep, (0,), (fixed,), sig, cosig)


def test_local_bijectivity_exhaustive():
    rng = random.Random(53)
    graphs = [random_connected_multigraph(rng, rng.randint(3, 6)) for _ in range(3)]
    for g in graphs:
        rep = graph_to_rep(g)
        sig, cosig = random_signature_pair(rep, rng)
        n = rep.element_count
        for colors in itertools.product(range(3), repeat=n):
            mapping = {j: c == 1 for j, c in enumerate(colors) if c}
            local = restricted_subgraph_map(
                rep, PartialOrientation.from_mapping(mapping), sig, cosig
            )
            free = n - len(mapping)
            assert len(local) == 1 << free
            assert len(set(local.values())) == 1 << free
        for colors in itertools.product(range(3), repeat=n):
            include = tuple(j for j, c in enumerate(colors) if c == 1)
            exclude = tuple(j for j, c in enumerate(colors) if c == 2)
            inverse = restricted_orientation_map(rep, include, exclude, sig, cosig)
            free = n - len(include) - len(exclude)
            assert len(inverse) == 1 << free
            assert len(set(inverse.values())) == 1 << free


def test_audit_bijection_on_table(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    table = BijectionTable.build(triangle_rep, sig, cosig)
    report = audit_bijection(
        list(table.forward), table.forward, list(range(8))
    )
    assert report.bijective

    corrupted = dict(table.forward)
    corrupted[0], corrupted[1] = corrupted[1], corrupted[1]
    report = audit_bijection(list(corrupted), corrupted, list(range(8)))
    assert not report.injective
    assert report.collisions


def test_table_cache_reuse(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    a = BijectionTable.build(triangle_rep, sig, cosig)
    b = BijectionTable.build(triangle_rep, sig, cosig)
    assert a is b
