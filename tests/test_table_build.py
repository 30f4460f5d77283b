"""The table build and single queries against the Fraction oracle, and every way they refuse.

``BijectionTable.build`` and single queries look each row's class
representative up by class key in the basis map, which orients all bases
at once from per-element sets of bases, split
cp - m through packed projection columns, and check the tag code (made
bit-parallel) against the image's subset code.  These tests hold
all of it to the plain definitions in ``helpers`` (exact Fraction
projection, per-mask ``is_compatible``, fundamental signed vectors) and
make each of the build's invariant checks fire.
"""

import json
import math
import random
from collections import OrderedDict

import pytest

from oribij import (
    BijectionTable,
    CIRCUIT,
    COCIRCUIT,
    Graph,
    InputError,
    InvariantViolationError,
    Orientation,
    RegularMatroidRep,
    Signature,
    SignedSupportVector,
    basis_from_orientation,
    basis_to_orientation,
    canonical_signature_pair,
    classify_specialization,
    compatible_decomposition,
    enumerate_bases,
    enumerate_signed_circuits,
    explicit_signature,
    graph_to_rep,
    is_compatible,
    loops_only_rep,
    orientation_to_subgraph,
    orientation_to_subgraph_complement,
)
from oribij import bijection, core, reversal, signatures
from oribij.core import _class_key, bits_of, mask_of
from oribij.serialize import dump_json, table_json_obj
from oribij.signatures import _compatible_set

from helpers import (
    R10_MATRIX,
    complete_graph,
    ladder_reps,
    matrix_rep,
    orient_basis_by_vectors,
    suite_instances,
    table_oracle,
)


def _oracle_cases():
    """(rep, sig, cosig): the suite graphs with <= 8 edges and their twins, K5, R10."""
    cases = []
    for g, rep, pairs in suite_instances():
        if g.edge_count <= 8:
            cases += [(rep, *pairs[0]), (matrix_rep(rep), *pairs[0])]
    k5 = graph_to_rep(Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5))))
    r10 = RegularMatroidRep.from_rows(R10_MATRIX)
    return cases + [(k5, *canonical_signature_pair(k5)), (r10, *canonical_signature_pair(r10))]


_ORACLES = {}


def _oracle(rep, sig, cosig):
    """table_oracle of one case, computed once per matrix and signature pair."""
    key = (rep.matrix, sig, cosig)
    if key not in _ORACLES:
        _ORACLES[key] = table_oracle(
            rep.matrix, rep.element_count,
            [v.entries for v in sig.chosen], [v.entries for v in cosig.chosen],
        )
    return _ORACLES[key]


def test_table_equals_the_fraction_oracle():
    oracles = set()
    for rep, sig, cosig in _oracle_cases():
        table = BijectionTable.build(rep, sig, cosig, use_cache=False)
        oracles.add((rep.matrix, sig, cosig))
        assert (table.forward, table.tags) == _oracle(rep, sig, cosig)
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
    sig, cosig = canonical_signature_pair(rep)
    # one more orientation compatible with both signatures (tag code 3): its
    # class holds two, and the jointly compatible orientations number t + 1
    extra = next(m for m in rep.orientation_universe()
                 if not (is_compatible(rep, m, sig) or is_compatible(rep, m, cosig)))
    flags = reversal._compatible_set
    monkeypatch.setattr(reversal, "_compatible_set", lambda rep, s: flags(rep, s) | 1 << extra)
    with pytest.raises(InvariantViolationError,
                       match="17 jointly compatible orientations, not the 16 classes"):
        BijectionTable.build(rep, sig, cosig, use_cache=False)


def _flipped_columns(monkeypatch, rep):
    """Make every basis orientation the reverse of what the pair gives it."""
    full = (1 << len(rep._basis_masks)) - 1
    columns = reversal._orientation_columns
    monkeypatch.setattr(
        reversal, "_orientation_columns", lambda *args: [c ^ full for c in columns(*args)])


def test_non_injective_basis_map_is_refused(monkeypatch):
    rep = _k4()
    # every basis oriented as the all-backward orientation
    monkeypatch.setattr(reversal, "_orientation_columns", lambda *args: [0] * 6)
    with pytest.raises(InvariantViolationError, match="basis map is not injective"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_basis_map_missing_a_representative_is_refused(monkeypatch):
    rep = _k4()
    # reversing a compatible orientation makes every chosen vector in it anti-chosen
    _flipped_columns(monkeypatch, rep)
    # the key map refuses incompatible basis orientations first; past that
    # check, the tag codes must refuse the map
    monkeypatch.setattr(reversal, "_compatible_among", lambda columns, full, s: full)
    with pytest.raises(InvariantViolationError, match="missed by the basis map"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_orientation_outside_its_class_is_refused(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    labels = bijection._class_keys(rep)
    stray = next(
        m for m in rep.orientation_universe()
        if not (is_compatible(rep, m, sig) and is_compatible(rep, m, cosig))
    )
    # the stray orientation carries the key of another class
    labels[stray] = next(label for label in labels if label != labels[stray])
    monkeypatch.setattr(bijection, "_class_keys", lambda *args: labels)
    with pytest.raises(InvariantViolationError, match="class split is not integral"):
        BijectionTable.build(rep, sig, cosig, use_cache=False)


def _with_projection(rep, scale):
    """A copy of rep whose projection matrix N is multiplied by ``scale``."""
    fresh = RegularMatroidRep.from_rows(rep.matrix, graph=rep.graph)
    rows, t = rep._projection
    fresh.__dict__["_projection"] = (tuple(tuple(scale * x for x in row) for row in rows), t)
    return fresh


def test_split_that_is_not_a_sign_split_is_refused(monkeypatch):
    clean = _k4()
    sig, cosig = canonical_signature_pair(clean)
    want = BijectionTable.build(clean, sig, cosig, use_cache=False)
    # the class keys read the Smith form of G, not N, so a scaled N still
    # keys the classes apart and the build reaches the split; a single query
    # splits through the same columns as the build: those that need a
    # nonzero row-space part are refused, the others keep their clean image
    for scale in (2, 3):
        rep = _with_projection(clean, scale)
        # the scaled reps equal the clean one, so none may reuse another's basis map
        monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
        with pytest.raises(InvariantViolationError, match="class split is not a sign split"):
            BijectionTable.build(rep, sig, cosig, use_cache=False)
        messages = set()
        answered = 0
        for m in rep.orientation_universe():
            o = Orientation.from_mask(rep.element_count, m)
            try:
                image = orientation_to_subgraph(rep, o, sig, cosig)
            except InvariantViolationError as exc:
                messages.add(str(exc))
            else:
                assert image == want.subgraph_of(o)
                answered += 1
        assert 0 < answered < 1 << rep.element_count
        assert messages == {"class split is not a sign split"}


def test_forward_map_that_is_not_a_bijection_is_refused():
    rep = _with_projection(_k4(), 0)
    # a zero N leaves the class keys apart (they read the Smith form of G),
    # so the build splits every row with c* = 0
    with pytest.raises(InvariantViolationError, match="not a bijection"):
        BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)


def test_wrong_tag_is_refused(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    tags = BijectionTable.build(rep, sig, cosig, use_cache=False).tags
    flags = reversal._compatible_set
    # the pair's tag codes are made once for the map's entry, which the build
    # and single queries read; swapping the two signatures' flags swaps the
    # codes of forest and connected-spanning, and leaves code 3 as it was
    monkeypatch.setattr(
        reversal, "_compatible_set", lambda rep, s: flags(rep, cosig if s is sig else sig)
    )
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    with pytest.raises(InvariantViolationError, match="mapped to a subgraph with"):
        BijectionTable.build(rep, sig, cosig, use_cache=False)
    forest = Orientation.from_mask(6, min(m for m, tag in tags.items() if tag == "forest"))
    with pytest.raises(InvariantViolationError,
                       match="connected-spanning orientation mapped to a subgraph with"):
        orientation_to_subgraph(rep, forest, sig, cosig)


def test_the_build_reads_the_packed_list(monkeypatch):
    # the rows are split off one packed N o per orientation, with no column
    # sum per row
    for rep in (_k4(), RegularMatroidRep.from_rows(R10_MATRIX)):
        sig, cosig = canonical_signature_pair(rep)
        want = _oracle(rep, sig, cosig)

        def refuse(*args):
            raise AssertionError("the build summed packed columns per row")

        monkeypatch.setattr(bijection, "_packed_sum", refuse)
        table = BijectionTable.build(rep, sig, cosig, use_cache=False)
        assert (table.forward, table.tags) == want
        monkeypatch.undo()


def _table_json_by_the_row_formula(table):
    n = table.rep.element_count
    rows = [
        {"orientation": [m >> j & 1 for j in range(n)],
         "subgraph": bits_of(table.forward[m]), "tag": table.tags[m]}
        for m in sorted(table.forward)
    ]
    return {"elements": n, "rows": rows}


@pytest.mark.parametrize(
    "name", ["single edge", "one loop", "three loops", "triangle", "K4", "R10"],
)
def test_table_json_equals_the_row_formula(name):
    # odd n, n = 1 (no low half), rank 0, and every table's empty subgraph
    rep = {
        "single edge": lambda: graph_to_rep(Graph(2, ((0, 1),))),
        "one loop": lambda: loops_only_rep(1),
        "three loops": lambda: loops_only_rep(3),
        "triangle": lambda: graph_to_rep(Graph(3, ((2, 0), (0, 1), (1, 2)))),
        "K4": _k4,
        "R10": lambda: RegularMatroidRep.from_rows(R10_MATRIX),
    }[name]()
    table = BijectionTable.build(rep, *canonical_signature_pair(rep), use_cache=False)
    obj = table_json_obj(table)
    assert obj == _table_json_by_the_row_formula(table)
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    rows = obj["rows"]
    assert any(row["subgraph"] == [] for row in rows)
    # plain, mutable rows that share no list
    assert all(type(row) is dict for row in rows)
    lists = [row[key] for row in rows for key in ("orientation", "subgraph")]
    assert all(type(x) is list for x in lists)
    assert len({id(x) for x in lists}) == len(lists)


# ---------------------------------------------------------------------------
# single queries, without the table


def _reversed(rep, sig):
    """The explicit signature taking the other direction on every support.

    Reversing every choice of an acyclic signature keeps it acyclic (negate
    the witness), so each case yields a second, explicit, pair.
    """
    return explicit_signature(rep, sig.side, [(-v).entries for v in sig.chosen])


def _query_cases():
    for rep, sig, cosig in _oracle_cases():
        yield rep, sig, cosig
        yield rep, _reversed(rep, sig), _reversed(rep, cosig)


def test_single_queries_equal_the_fraction_oracle():
    provenances = set()
    for rep, sig, cosig in _query_cases():
        forward, tags = _oracle(rep, sig, cosig)
        provenances.add(sig.provenance)
        for m in rep.orientation_universe():
            o = Orientation.from_mask(rep.element_count, m)
            assert orientation_to_subgraph(rep, o, sig, cosig) == frozenset(bits_of(forward[m]))
            assert classify_specialization(rep, o, sig, cosig) == tags[m]
    assert provenances == {"weights", "explicit"}


def _assert_the_map_orients_by_the_vectors(rep, sig, cosig, bases):
    entry = reversal._basis_map(rep, sig, cosig, use_cache=False)
    assert list(entry.orientations) == list(rep._basis_masks)
    for basis in bases:
        got = entry.orientations[basis.mask]
        assert got == orient_basis_by_vectors(rep, basis, sig, cosig)
        assert basis_to_orientation(rep, basis, sig, cosig).mask == got


def test_tableau_orientation_equals_the_vector_definition():
    bases = 0
    for rep, sig, cosig in _query_cases():
        _assert_the_map_orients_by_the_vectors(rep, sig, cosig, enumerate_bases(rep))
        bases += len(rep._basis_masks)
    assert bases > 1000


def test_the_column_map_orients_every_basis_by_the_vectors():
    rng = random.Random(23)
    edge_cases = [
        RegularMatroidRep.from_rows((), element_count=0),
        loops_only_rep(3),
        # loops and parallel edges
        graph_to_rep(Graph(3, ((0, 0), (0, 1), (1, 0), (0, 1), (1, 2), (2, 0), (2, 2)))),
    ]
    for rep in list(ladder_reps().values()) + edge_cases:
        sig, cosig = canonical_signature_pair(rep)
        bases = enumerate_bases(rep)
        if len(bases) > 1000:  # W8: the vector definition pivots 16 times per basis
            bases = rng.sample(bases, 300)
        _assert_the_map_orients_by_the_vectors(rep, sig, cosig, bases)
        # a matrix twin orients its bases alike, keyed alike and in the same order
        twin = reversal._basis_map(matrix_rep(rep), sig, cosig, use_cache=False)
        entry = reversal._basis_map(rep, sig, cosig, use_cache=False)
        assert (twin.orientations, list(twin.by_key.items())) == (
            entry.orientations, list(entry.by_key.items()))


def test_the_basis_map_enumerates_no_bases_and_tests_no_compatibility(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the basis map went one basis at a time")

    for rep in (_k4(), RegularMatroidRep.from_rows(R10_MATRIX)):
        sig, cosig = canonical_signature_pair(rep)
        want = reversal._basis_map(rep, sig, cosig, use_cache=False)
        for module in (core, bijection, reversal, signatures):
            for name in ("is_compatible", "enumerate_bases"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        got = reversal._basis_map(rep, sig, cosig, use_cache=False)
        assert (got.orientations, list(got.by_key.items())) == (
            want.orientations, list(want.by_key.items()))
        monkeypatch.undo()


def test_a_signature_pair_of_another_rep_is_refused_at_the_door(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    edges = list(rep.graph.edges)
    edges[0] = edges[0][::-1]
    flipped = graph_to_rep(Graph(4, tuple(edges)))
    # the same supports as K4's, with element 0's signs turned
    assert {v.support for v in enumerate_signed_circuits(flipped)} == set(sig.by_support)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    o = Orientation.reference(6)
    for call in (lambda: BijectionTable.build(flipped, sig, cosig),
                 lambda: orientation_to_subgraph(flipped, o, sig, cosig),
                 lambda: compatible_decomposition(flipped, o, sig, cosig),
                 lambda: basis_to_orientation(flipped, enumerate_bases(flipped)[0], sig, cosig)):
        with pytest.raises(InputError, match="is not a signed circuit on its support"):
            call()
    own, own_co = canonical_signature_pair(flipped)
    with pytest.raises(InputError, match="is not a signed cocircuit on its support"):
        BijectionTable.build(flipped, own, cosig)
    # a support the signature lacks, or one the rep lacks
    for chosen, message in ((own.chosen[1:], "has no chosen direction"),
                            (own.chosen + (SignedSupportVector((1, 1, 0, 0, 0, 0)),),
                             "no circuit with support")):
        with pytest.raises(InputError, match=message):
            BijectionTable.build(flipped, Signature(CIRCUIT, chosen), own_co)
    assert not reversal._TABLE_CACHE


def test_a_broken_exact_cover_is_refused():
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    # the triangle {0, 1, 3} is no basis: no chosen cocircuit is the
    # fundamental cocircuit of its element 0
    fresh = RegularMatroidRep.from_rows(rep.matrix, graph=rep.graph)
    fresh.__dict__["_basis_masks"] = tuple(sorted(rep._basis_masks + (0b1011,)))
    with pytest.raises(InvariantViolationError, match="has no fundamental support"):
        reversal._basis_map(fresh, sig, cosig, use_cache=False)
    # S = {0, 1, 2, 3} posing as a circuit: S less element 3 is the basis
    # {0, 1, 2}, where the triangle {0, 1, 3} is already 3's fundamental circuit
    fake = SignedSupportVector((1, 1, 1, 1, 0, 0), "kernel")
    circuits, cocircuits, bases = rep._tableau_pass
    fresh = RegularMatroidRep.from_rows(rep.matrix, graph=rep.graph)
    fresh.__dict__["_tableau_pass"] = (circuits + (fake,), cocircuits, bases)
    padded = Signature(CIRCUIT, sig.chosen + (fake,))
    with pytest.raises(InvariantViolationError, match="has two fundamental supports"):
        reversal._basis_map(fresh, padded, cosig, use_cache=False)


def test_tableau_orientation_refuses_what_the_vectors_refuse():
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    basis = enumerate_bases(rep)[0]
    triangle = graph_to_rep(Graph(3, ((0, 1), (1, 2), (2, 0))))
    with pytest.raises(InputError, match="no circuit with support"):
        reversal._basis_map(rep, *canonical_signature_pair(triangle), use_cache=False)
    # plant a 2 in the first basis's tableau, off the basis, where the walk
    # over the bases starts
    fresh = RegularMatroidRep.from_rows(rep.matrix, graph=rep.graph)
    pivots, tableau = rep._first_tableau
    assert mask_of(pivots) == basis.mask
    off = next(e for e in range(rep.element_count) if e not in basis.elements)
    rows = [list(row) for row in tableau]
    rows[0][off] = 2
    fresh.__dict__["_first_tableau"] = (pivots, tuple(tuple(row) for row in rows))
    with pytest.raises(InputError, match="matrix is not totally unimodular"):
        reversal._orientation_columns(fresh, sig, cosig)


@pytest.mark.parametrize("name", ["K4", "R10"])
def test_the_build_and_the_basis_map_pivot_nothing(monkeypatch, name):
    rep = _k4() if name == "K4" else RegularMatroidRep.from_rows(R10_MATRIX)
    sig, cosig = canonical_signature_pair(rep)
    enumerate_signed_circuits(rep)

    def refuse(*args):
        raise AssertionError("a basis tableau was pivoted again")

    # wherever a module binds the pivot
    for module in (core, bijection):
        monkeypatch.setattr(module, "_basis_tableau", refuse, raising=False)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    table = BijectionTable.build(rep, sig, cosig, use_cache=False)
    entry = bijection._basis_map(rep, sig, cosig)
    assert sorted(entry.by_key.values()) == sorted(
        (m, mask_of(b)) for b, m in table.basis_orientations.items())
    assert len(entry.by_key) == len(rep._basis_masks)


@pytest.mark.parametrize("name", ["K4", "R10"])
def test_single_queries_never_build_the_table(monkeypatch, name):
    rep = _k4() if name == "K4" else RegularMatroidRep.from_rows(R10_MATRIX)
    sig, cosig = canonical_signature_pair(rep)
    want = BijectionTable.build(rep, sig, cosig, use_cache=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a single query built the table")

    monkeypatch.setattr(BijectionTable, "build", refuse)
    n = rep.element_count
    full = frozenset(range(n))
    for m in rep.orientation_universe():
        o = Orientation.from_mask(n, m)
        image = orientation_to_subgraph(rep, o, sig, cosig)
        assert image == want.subgraph_of(o)
        assert orientation_to_subgraph_complement(rep, o, sig, cosig) == full - image
        assert classify_specialization(rep, o, sig, cosig) == want.tag_of(o)
        if want.tag_of(o) == "basis":
            assert basis_from_orientation(rep, o, sig, cosig).elements == image


# ---------------------------------------------------------------------------
# the class key and the key map


def _k5_dual():
    """The cographic dual of K5: regular, not graphic, rank 6 on 10 elements."""
    return RegularMatroidRep.from_rows(graph_to_rep(complete_graph(5)).kernel_basis)


def test_class_keys_name_the_joint_classes():
    cases = []
    for g, rep, pairs in suite_instances():
        cases += [(rep, *pairs[0]), (matrix_rep(rep), *pairs[0])]
    tree = graph_to_rep(Graph(4, ((0, 1), (1, 2), (1, 3))))
    for rep in (RegularMatroidRep.from_rows(R10_MATRIX), _k5_dual(), tree, loops_only_rep(3)):
        cases.append((rep, *canonical_signature_pair(rep)))
    for rep, sig, cosig in cases:
        classes = reversal._class_masks(rep, "cycle-cocycle")
        keys = [{_class_key(rep, m) for m in members} for members in classes]
        assert all(len(k) == 1 for k in keys)
        assert len(set().union(*keys)) == len(classes)
        entry = bijection._basis_map(rep, sig, cosig)
        by_key = entry.by_key
        assert len(by_key) == rep._packed_projection[1] == len(rep._basis_masks)
        # each key names the class of its basis orientation, kept with its basis's mask
        assert sorted(by_key.values()) == sorted(
            (orient_basis_by_vectors(rep, b, sig, cosig), b.mask) for b in enumerate_bases(rep))
        assert all(_class_key(rep, m) == k for k, (m, _) in by_key.items())
        labels = bijection._class_keys(rep)
        assert set(labels) == set(by_key)


def test_class_rows_are_the_smith_form_of_the_gram_matrix():
    ladder = ladder_reps()
    reps = [rep for _, rep, _ in suite_instances()] + list(ladder.values())
    reps += [matrix_rep(rep) for rep in reps] + [_k5_dual()]
    for rep in reps:
        rows, moduli = rep._class_rows
        # the Jacobian group has order t = det(A A^T), the number of bases
        assert math.prod(moduli) == rep._projection[1] == len(rep._basis_masks)
        assert all(d > 1 for d in moduli)
        assert all(b % a == 0 for a, b in zip(moduli, moduli[1:]))
        assert len(rows) == len(moduli) <= rep.rank
        assert all(len(row) == rep.element_count for row in rows)
        assert all(0 <= x < d for row, d in zip(rows, moduli) for x in row)
    factors = {name: list(rep._class_rows[1]) for name, rep in ladder.items()}
    assert factors == {
        "K4": [4, 4], "W4": [3, 15], "K5": [5, 5, 5], "R10": [3, 3, 3, 6], "W6": [8, 40],
        "grid3x3": [8, 24], "W7": [29, 29], "W8": [21, 105],
    }
    dual = _k5_dual()
    assert (dual.rank, dual.element_count, dual._class_rows[1]) == (6, 10, (5, 5, 5))
    assert len(reversal._class_masks(dual, "cycle-cocycle")) == 125
    # a tree and a rank-0 rep have one joint class, and no key rows
    for rep in (graph_to_rep(Graph(4, ((0, 1), (1, 2), (1, 3)))), loops_only_rep(3)):
        assert rep._class_rows == ((), ())
        assert reversal._class_masks(rep, "cycle-cocycle") == (
            tuple(range(1 << rep.element_count)),)


def _half_table_reps():
    """The ladder to n = 12, the pool and its twins, the dual of K5, n = 0 and 1, rank 0."""
    reps = [rep for rep in ladder_reps().values() if rep.element_count <= 12]
    pool = [rep for _, rep, _ in suite_instances()]
    reps += pool + [matrix_rep(rep) for rep in pool] + [_k5_dual(), loops_only_rep(3)]
    reps += [RegularMatroidRep.from_rows((), element_count=0), loops_only_rep(1),
             graph_to_rep(Graph(2, ((0, 1),)))]
    return reps


def _key_by_the_formula(rep, m):
    """R o mod d in mixed radix, the first row most significant, summed over o's elements."""
    rows, moduli = rep._class_rows
    elements = bits_of(m)
    key = 0
    for row, d in zip(rows, moduli):
        key = key * d + sum(row[j] for j in elements) % d
    return key


def test_half_tables_equal_the_subset_sums_and_the_key_formula():
    sizes = set()
    for rep in _half_table_reps():
        n = rep.element_count
        columns, _, _, bias = rep._packed_projection
        packed = core._subset_sums(columns, bias)
        for m in range(1 << n):
            assert core._packed_sum(rep, m) == packed[m]
            assert _class_key(rep, m) == _key_by_the_formula(rep, m)
        low_mask, h, low, high = rep._projection_halves
        assert (low_mask, h, len(low), len(high)) == ((1 << n // 2) - 1, n // 2,
                                                      1 << n // 2, 1 << n - n // 2)
        sizes.add((n, rep.rank))
    assert {(0, 0), (1, 0), (1, 1), (3, 0), (10, 6), (12, 6), (12, 8)} <= sizes


def test_one_packer_holds_n_a_and_k_field_by_field():
    # N (the table build and single queries), A and K (the cycle and cocycle
    # labels) share one packing: every field of every mask's packed sum,
    # less the bias, is that row's sum over the mask's elements
    ladder = [rep for rep in ladder_reps().values() if rep.element_count <= 12]
    pool = [matrix_rep(rep) for _, rep, _ in suite_instances()]
    sizes = set()
    for rep in ladder + pool:
        n = rep.element_count
        for rows in (rep._projection[0], rep.matrix, rep.kernel_basis):
            columns, width, bias = core._packed_columns(rows, n)
            if rows is rep._projection[0]:
                assert rep._packed_projection == (columns, rep._projection[1], width, bias)
            field, half = (1 << width) - 1, 1 << width - 1
            for m, packed in enumerate(core._subset_sums(columns, bias)):
                elements = bits_of(m)
                assert [(packed >> width * j & field) - half for j in range(len(rows))] == [
                    sum(row[k] for k in elements) for row in rows]
                assert packed >> width * len(rows) == 0
            sizes.add((n, len(rows)))
    assert {(12, 12), (12, 6), (12, 8), (10, 5), (10, 10)} <= sizes


def test_a_query_and_the_build_read_one_key_and_one_code_per_mask():
    sizes = set()
    for rep in _half_table_reps():
        n = rep.element_count
        sig, cosig = canonical_signature_pair(rep)
        labels = core._class_keys(rep)
        entry = reversal._basis_map(rep, sig, cosig, use_cache=False)
        codes = reversal._tag_codes(rep, sig, cosig, entry)
        subset_codes = rep._subset_codes
        assert len(labels) == len(codes) == len(subset_codes) == 1 << n
        for m in range(1 << n):
            assert _class_key(rep, m) == labels[m]
            assert codes[m] == 2 * is_compatible(rep, m, sig) + is_compatible(rep, m, cosig)
            spanning = any(b & ~m == 0 for b in rep._basis_masks)
            assert subset_codes[m] == 2 * (m in rep._independent_masks) + spanning
        sizes.add((n, rep.rank))
    assert {(0, 0), (1, 0), (1, 1), (3, 0), (10, 6), (12, 6), (12, 8)} <= sizes
    # past the element cap the key is summed directly, with no half table,
    # and names the class of k parallel edges: the forward edges mod k
    rng = random.Random(7)
    for k in (17, 60):
        rep = graph_to_rep(Graph(2, ((0, 1),) * k))
        assert rep._class_rows[1] == (k,)
        for m in [0, (1 << k) - 1] + [rng.getrandbits(k) for _ in range(200)]:
            key = _class_key(rep, m)
            assert key == _key_by_the_formula(rep, m)
            assert key in (m.bit_count() % k, -m.bit_count() % k)
        assert "_class_halves" not in vars(rep) and "_subset_codes" not in vars(rep)


def test_single_queries_read_the_map_and_test_no_compatibility(monkeypatch):
    # once the pair's first query has filled the map's entry, a query's tag
    # is two bits of the sets the entry keeps, with no compatibility scan
    def refuse(*args):
        raise AssertionError("a single query tested compatibility")

    for rep in (_k4(), RegularMatroidRep.from_rows(R10_MATRIX)):
        sig, cosig = canonical_signature_pair(rep)
        want = _oracle(rep, sig, cosig)
        monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
        orientation_to_subgraph(rep, Orientation.reference(rep.element_count), sig, cosig)
        for module in (bijection, reversal, signatures):
            for name in ("is_compatible", "_compatible_set"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        got = {}, {}
        for m in rep.orientation_universe():
            o = Orientation.from_mask(rep.element_count, m)
            got[0][m] = mask_of(orientation_to_subgraph(rep, o, sig, cosig))
            got[1][m] = classify_specialization(rep, o, sig, cosig)
        assert got == want
        monkeypatch.undo()


def test_basis_orientations_sharing_a_class_key_are_refused(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    # K4's class group is Z4 x Z4; keys taken mod (2, 2) name only four classes
    coarse = RegularMatroidRep.from_rows(rep.matrix, graph=rep.graph)
    rows, moduli = rep._class_rows
    assert moduli == (4, 4)
    coarse.__dict__["_class_rows"] = (rows, (2, 2))
    with pytest.raises(InvariantViolationError, match="share a class key"):
        BijectionTable.build(coarse, sig, cosig, use_cache=False)
    monkeypatch.setattr(reversal, "_class_key", lambda rep, m: ())
    with pytest.raises(InvariantViolationError, match="share a class key"):
        orientation_to_subgraph(rep, Orientation.reference(6), sig, cosig)


def test_class_key_missing_from_the_key_map_is_refused(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    orientation_to_subgraph(rep, Orientation.reference(6), sig, cosig)
    # the lookup reads the key through reversal, after the map is built
    monkeypatch.setattr(reversal, "_class_key", lambda rep, m: ())
    with pytest.raises(InvariantViolationError, match="missed by the basis map"):
        orientation_to_subgraph(rep, Orientation.reference(6), sig, cosig)


def test_incompatible_basis_orientation_is_refused_by_the_key_map(monkeypatch):
    rep = _k4()
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    _flipped_columns(monkeypatch, rep)
    with pytest.raises(InvariantViolationError, match="not jointly compatible"):
        orientation_to_subgraph(rep, Orientation.reference(6), *canonical_signature_pair(rep))


def test_key_count_other_than_the_gram_determinant_is_refused(monkeypatch):
    clean = _k4()
    fresh = RegularMatroidRep.from_rows(clean.matrix, graph=clean.graph)
    rows, t = clean._projection
    # the same projection N/t as 3N/3t, but 3t = 48 is not the number of bases
    fresh.__dict__["_projection"] = (tuple(tuple(3 * x for x in r) for r in rows), 3 * t)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    with pytest.raises(InvariantViolationError, match="16 class keys, not the Gram determinant 48"):
        orientation_to_subgraph(fresh, Orientation.reference(6), *canonical_signature_pair(fresh))


def test_class_moduli_other_than_the_gram_determinant_are_refused(monkeypatch):
    clean = _k4()
    sig, cosig = canonical_signature_pair(clean)
    rows, moduli = clean._class_rows
    assert moduli == (4, 4)
    # dropping a modulus leaves 4 keys for 16 bases; doubling one keeps the
    # 16 basis orientations' keys apart, but 32 keys name 16 classes, so the
    # keys of some class's orientations would miss the map
    for class_rows, message in (
        ((rows[:1], moduli[:1]), "two basis orientations share a class key"),
        ((rows, (4, 8)), "the class moduli multiply to 32, not the Gram determinant 16"),
    ):
        fresh = RegularMatroidRep.from_rows(clean.matrix, graph=clean.graph)
        fresh.__dict__["_class_rows"] = class_rows
        monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
        with pytest.raises(InvariantViolationError, match=message):
            orientation_to_subgraph(fresh, Orientation.reference(6), sig, cosig)


# ---------------------------------------------------------------------------
# the one pair cache


def test_the_pair_cache_keeps_at_most_its_bound():
    # the bench reads the cache through the bijection module
    assert bijection._TABLE_CACHE is reversal._TABLE_CACHE
    cases = [(rep, *pairs[0]) for _, rep, pairs in suite_instances()[:core.CACHE_SIZE + 4]]
    assert len({(rep, sig, cosig) for rep, sig, cosig in cases}) == len(cases)
    first = BijectionTable.build(*cases[0])
    for rep, sig, cosig in cases:
        # a table, single queries and a decomposition per pair
        table = BijectionTable.build(rep, sig, cosig)
        o = Orientation.reference(rep.element_count)
        assert orientation_to_subgraph(rep, o, sig, cosig) == table.subgraph_of(o)
        assert classify_specialization(rep, o, sig, cosig) == table.tag_of(o)
        dec = compatible_decomposition(rep, o, sig, cosig)
        assert table.tag_of(dec.representative) == "basis"
        assert len(bijection._TABLE_CACHE) <= core.CACHE_SIZE
    # the least recently used pairs went first; a hit makes its pair the most
    # recent, so rebuilding the first pair evicts the second oldest
    keys = [(rep, sig, cosig, True) for rep, sig, cosig in cases]
    size = core.CACHE_SIZE
    assert list(bijection._TABLE_CACHE) == keys[-size:]
    BijectionTable.build(*cases[-size])
    again = BijectionTable.build(*cases[0])
    assert list(bijection._TABLE_CACHE) == [*keys[len(keys) + 2 - size:], keys[-size], keys[0]]
    assert again is not first
    assert (again.forward, again.tags) == (first.forward, first.tags)
    assert (again.basis_orientations, again.orientation_bases) == (
        first.basis_orientations, first.orientation_bases)
    assert BijectionTable.build(*cases[0]) is again
    assert len(bijection._TABLE_CACHE) <= core.CACHE_SIZE


def test_a_rep_hashes_its_fields_once():
    reps = [rep for _, rep, _ in suite_instances()] + list(ladder_reps().values())
    for rep in reps + [RegularMatroidRep.from_rows((), element_count=0)]:
        twin = matrix_rep(rep)
        assert hash(rep) == hash((rep.matrix, rep.element_count, rep.rank)) == hash(twin)
        assert rep == twin
        # kept with the rep once computed
        assert vars(rep)["_hash"] == vars(twin)["_hash"] == hash(rep)


def test_a_graph_rep_and_its_matrix_twin_keep_separate_entries(monkeypatch):
    rep = _k4()
    twin = matrix_rep(rep)
    sig, cosig = canonical_signature_pair(rep)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    o = Orientation.reference(6)
    assert orientation_to_subgraph(rep, o, sig, cosig) == orientation_to_subgraph(
        twin, o, sig, cosig)
    # equal reps with equal hashes, told apart by the graph flag
    assert list(reversal._TABLE_CACHE) == [(rep, sig, cosig, True), (twin, sig, cosig, False)]
    graph_entry, matrix_entry = reversal._TABLE_CACHE.values()
    assert graph_entry is not matrix_entry
    assert (graph_entry.by_key, graph_entry.codes) == (matrix_entry.by_key, matrix_entry.codes)
    assert reversal._basis_map(twin, sig, cosig) is matrix_entry
    assert reversal._basis_map(rep, sig, cosig) is graph_entry


def test_the_table_and_the_queries_share_one_basis_map(monkeypatch):
    rep = _k4()
    sig, cosig = canonical_signature_pair(rep)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    orientation_to_subgraph(rep, Orientation.reference(6), sig, cosig)
    entry = reversal._basis_map(rep, sig, cosig)
    assert entry.table is None
    table = BijectionTable.build(rep, sig, cosig)
    assert list(reversal._TABLE_CACHE.values()) == [entry] and entry.table is table
    # the map keeps basis masks; the table keeps the bases as sets, both ways round
    bases = {m: frozenset(bits_of(b)) for m, b in entry.by_key.values()}
    assert table.orientation_bases == bases
    assert table.basis_orientations == {b: m for m, b in bases.items()}
    # without the cache, the build reads and writes none
    assert BijectionTable.build(rep, sig, cosig, use_cache=False) is not table
    assert list(reversal._TABLE_CACHE.values()) == [entry] and entry.table is table
