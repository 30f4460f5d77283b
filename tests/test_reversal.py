import ast
import random
from collections import OrderedDict
from pathlib import Path

import pytest

import oribij
from oribij import (
    BijectionTable,
    CIRCUIT,
    COCIRCUIT,
    CapExceededError,
    Graph,
    InputError,
    InvariantViolationError,
    Orientation,
    SignedSupportVector,
    basis_from_orientation,
    canonical_signature_pair,
    circuit_class_representative,
    cocircuit_class_representative,
    compatible_decomposition,
    enumerate_classes,
    explicit_signature,
    graph_to_rep,
    is_compatible,
    orientation_to_subgraph,
    rep_for,
    RegularMatroidRep,
    reversal_closure_classes,
    reverse,
    same_class,
    signature_from_weights,
    tutte,
)

from oribij import bijection, core, oracle, reversal, signatures

from helpers import (
    R10_MATRIX,
    complete_graph,
    matrix_rep,
    random_connected_multigraph,
    random_signature_pair,
    suite_instances,
)

KINDS = ("cycle", "cocycle", "cycle-cocycle")


def test_reverse_full_circuit(triangle_rep):
    ref = Orientation.reference(3)
    flipped = reverse(ref, SignedSupportVector((1, 1, 1), "kernel"))
    assert flipped.vector() == (0, 0, 0)


def test_reverse_zero_vector_is_identity(triangle_rep):
    o = Orientation((True, False, True))
    assert reverse(o, SignedSupportVector((0, 0, 0), "kernel")) == o


def test_reverse_single_edge():
    o = Orientation((True,))
    assert reverse(o, SignedSupportVector((1,), "image")).vector() == (0,)


def test_reverse_rejects_vector_not_in_orientation():
    o = Orientation((False, True))
    with pytest.raises(InputError):
        reverse(o, SignedSupportVector((1, 0), "kernel"))


def test_circuit_representative_triangle(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, 1, 1), CIRCUIT)
    anti = Orientation.from_mask(3, 0)
    assert circuit_class_representative(triangle_rep, anti, sig).vector() == (1, 1, 1)


def test_circuit_representative_fixed_point(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, 1, 1), CIRCUIT)
    ref = Orientation.reference(3)
    assert circuit_class_representative(triangle_rep, ref, sig) == ref


def test_single_edge_has_no_circuit_moves(single_edge_rep):
    sig = signature_from_weights(single_edge_rep, (1,), CIRCUIT)
    for mask in (0, 1):
        o = Orientation.from_mask(1, mask)
        assert circuit_class_representative(single_edge_rep, o, sig) == o


def test_cocircuit_representative_single_edge(single_edge_rep):
    cosig = signature_from_weights(single_edge_rep, (1,), COCIRCUIT)
    backward = Orientation((False,))
    assert cocircuit_class_representative(single_edge_rep, backward, cosig).vector() == (1,)


def test_cocircuit_representative_matches_exhaustive_scan(triangle_rep):
    cosig = signature_from_weights(triangle_rep, (1, -2, 0), COCIRCUIT)
    for m in triangle_rep.orientation_universe():
        o = Orientation.from_mask(3, m)
        got = cocircuit_class_representative(triangle_rep, o, cosig)
        expected = [
            other
            for other in enumerate_classes(triangle_rep, "cocycle")
            if o in other
        ][0]
        unique = [c for c in expected if is_compatible(triangle_rep, c, cosig)]
        assert unique == [got]


def test_representative_idempotent_and_order_independent():
    rng = random.Random(77)
    for _ in range(5):
        g = random_connected_multigraph(rng, rng.randint(3, 7))
        rep = graph_to_rep(g)
        sig, cosig = random_signature_pair(rep, rng)
        for m in rep.orientation_universe():
            o = Orientation.from_mask(rep.element_count, m)
            r1 = circuit_class_representative(rep, o, sig)
            assert circuit_class_representative(rep, r1, sig) == r1
            shuffled = circuit_class_representative(rep, o, sig, rng=random.Random(m))
            assert shuffled == r1
            s1 = cocircuit_class_representative(rep, o, cosig)
            assert cocircuit_class_representative(rep, s1, cosig) == s1


def test_decomposition_of_representative_is_empty(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    o = Orientation.from_mask(3, 0b100)
    dec = compatible_decomposition(triangle_rep, o, sig, cosig)
    again = compatible_decomposition(triangle_rep, dec.representative, sig, cosig)
    assert again.representative == dec.representative
    assert again.cycles == () and again.cocycles == ()


def test_decomposition_triangle_anti_cycle(triangle_rep):
    sig = signature_from_weights(triangle_rep, (1, 1, 1), CIRCUIT)
    cosig = signature_from_weights(triangle_rep, (1, -2, 0), COCIRCUIT)
    anti = Orientation.from_mask(3, 0)
    dec = compatible_decomposition(triangle_rep, anti, sig, cosig)
    assert dec.representative.vector() == (1, 1, 1)
    assert [c.entries for c in dec.cycles] == [(1, 1, 1)]
    assert dec.cocycles == ()


def test_decomposition_single_edge(single_edge_rep):
    sig = signature_from_weights(single_edge_rep, (1,), CIRCUIT)
    cosig = signature_from_weights(single_edge_rep, (1,), COCIRCUIT)
    dec = compatible_decomposition(single_edge_rep, Orientation((False,)), sig, cosig)
    assert dec.representative.vector() == (1,)
    assert dec.cycles == ()
    assert [c.entries for c in dec.cocycles] == [(1,)]


def test_decomposition_sound_on_random_instances():
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        twin = matrix_rep(rep)
        sig, cosig = random_signature_pair(rep, rng)
        table = BijectionTable.build(rep, sig, cosig)
        for m in rep.orientation_universe():
            o = Orientation.from_mask(rep.element_count, m)
            dec = compatible_decomposition(rep, o, sig, cosig)
            assert compatible_decomposition(twin, o, sig, cosig) == dec
            # the paper's subgraph map: basis, plus reversed circuits, minus
            # reversed cocircuits
            image = basis_from_orientation(rep, dec.representative, sig, cosig).elements
            image = image.union(*(p.support for p in dec.cycles))
            image = image.difference(*(p.support for p in dec.cocycles))
            assert orientation_to_subgraph(rep, o, sig, cosig) == image
            assert table.subgraph_of(o) == image
            assert is_compatible(rep, dec.representative, sig)
            assert is_compatible(rep, dec.representative, cosig)
            seen = frozenset()
            current = dec.representative
            for piece in (*dec.cycles, *dec.cocycles):
                assert not (piece.support & seen)
                seen |= piece.support
                assert piece.in_orientation(dec.representative)
                current = reverse(current, piece)
            assert current == o
            if is_compatible(rep, o, sig):
                assert dec.cycles == ()
            if is_compatible(rep, o, cosig):
                assert dec.cocycles == ()


def test_decomposition_rejects_wrong_length(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for signs in ((True, False), (True, False, True, False)):
        with pytest.raises(InputError):
            compatible_decomposition(triangle_rep, Orientation(signs), sig, cosig)


def test_same_class_rejects_wrong_length(triangle_rep):
    short, o, long = (Orientation((True,) * k) for k in (2, 3, 4))
    for kind in ("cycle", "cocycle", "cycle-cocycle"):
        for a, b in ((o, long), (long, o), (o, short), (short, long)):
            with pytest.raises(InputError):
                same_class(triangle_rep, a, b, kind)


def test_same_class_reflexive(triangle_rep):
    o = Orientation((True, False, True))
    for kind in ("cycle", "cocycle", "cycle-cocycle"):
        assert same_class(triangle_rep, o, o, kind)


def test_same_class_triangle_cycle(triangle_rep):
    ref = Orientation.reference(3)
    anti = Orientation.from_mask(3, 0)
    assert same_class(triangle_rep, ref, anti, "cycle")
    assert not same_class(triangle_rep, ref, anti, "cocycle")
    assert same_class(triangle_rep, ref, anti, "cycle-cocycle")


def test_triangle_class_structure(triangle_rep):
    joint = enumerate_classes(triangle_rep, "cycle-cocycle")
    assert len(joint) == 3
    assert sorted(len(c) for c in joint) == [2, 3, 3]
    assert len(enumerate_classes(triangle_rep, "cycle")) == 7
    assert len(enumerate_classes(triangle_rep, "cocycle")) == 4


def test_single_edge_classes(single_edge_rep):
    assert len(enumerate_classes(single_edge_rep, "cycle")) == 2
    assert len(enumerate_classes(single_edge_rep, "cocycle")) == 1
    assert len(enumerate_classes(single_edge_rep, "cycle-cocycle")) == 1


def test_class_counts_match_tutte():
    rng = random.Random(31)
    evaluations = {"cycle": (2, 1), "cocycle": (1, 2), "cycle-cocycle": (1, 1)}
    for _ in range(8):
        g = random_connected_multigraph(rng, rng.randint(3, 8))
        rep = graph_to_rep(g)
        for kind, (x, y) in evaluations.items():
            assert len(enumerate_classes(rep, kind)) == tutte(g, x, y)


def test_classes_match_bfs_oracle(triangle_loop, triangle_bridge):
    rng = random.Random(37)
    reps = [graph_to_rep(random_connected_multigraph(rng, rng.randint(3, 8))) for _ in range(6)]
    reps += [graph_to_rep(g) for g in (complete_graph(5), triangle_loop, triangle_bridge)]
    reps.append(rep_for(Graph(1, ((0, 0), (0, 0), (0, 0)))))
    reps += [matrix_rep(rep) for rep in reps]
    # R10 and the dual of K5: regular, not graphic
    k5_dual = RegularMatroidRep.from_rows(graph_to_rep(complete_graph(5)).kernel_basis)
    reps += [RegularMatroidRep.from_rows(R10_MATRIX), k5_dual]
    for rep in reps:
        for kind in KINDS:
            ours = [tuple(o.mask for o in cls) for cls in enumerate_classes(rep, kind)]
            oracle = [tuple(o.mask for o in cls) for cls in reversal_closure_classes(rep, kind)]
            assert ours == oracle, (rep.matrix, kind)


def test_same_class_matches_oracle_membership():
    reps = [rep for g, rep, _ in suite_instances() if g.edge_count <= 6]
    reps += [matrix_rep(rep) for rep in reps]
    assert len(reps) > 20
    for rep in reps:
        n = rep.element_count
        orientations = [Orientation.from_mask(n, m) for m in rep.orientation_universe()]
        for kind in KINDS:
            label = {}
            for i, cls in enumerate(reversal_closure_classes(rep, kind)):
                label.update((o.mask, i) for o in cls)
            for a in orientations:
                for b in orientations:
                    assert same_class(rep, a, b, kind) == (label[a.mask] == label[b.mask])


def _parallel(k):
    return graph_to_rep(Graph(2, ((0, 1),) * k))


def test_joint_classes_honour_the_callers_cap():
    assert len(enumerate_classes(_parallel(17), "cycle-cocycle", cap=17)) == 17
    # same_class enumerates nothing, so no cap applies
    rep = _parallel(20)
    ref = Orientation.reference(20)
    assert same_class(rep, ref, Orientation.from_mask(20, 0), "cycle-cocycle")
    assert not same_class(rep, ref, Orientation.from_mask(20, 1), "cycle-cocycle")


def test_decomposition_past_the_default_cap():
    rep = _parallel(17)
    weights = [3 ** j for j in range(17)]
    sig = signature_from_weights(rep, weights, CIRCUIT, cap=17)
    cosig = signature_from_weights(rep, weights, COCIRCUIT, cap=17)
    o = Orientation.from_mask(17, 0b10110)
    dec = compatible_decomposition(rep, o, sig, cosig)
    # the heavier edge of each 2-cycle leads, so the compatible member of a
    # class (the orientations with as many forward edges) leads on the top ones
    assert dec.representative == Orientation.from_mask(17, 0b111 << 14)
    current = dec.representative
    for piece in (*dec.cycles, *dec.cocycles):
        current = reverse(current, piece)
    assert current == o
    # single queries refuse the same pair at the default cap, before and
    # after the decomposition left its basis map in the cache
    with pytest.raises(CapExceededError):
        orientation_to_subgraph(rep, o, sig, cosig)
    assert compatible_decomposition(rep, o, sig, cosig) == dec
    with pytest.raises(CapExceededError):
        orientation_to_subgraph(rep, o, sig, cosig)


def test_decomposition_of_a_large_ground_set_makes_no_2n_set(monkeypatch):
    # the basis map checks its t orientations one by one; the 2^n tag codes
    # are made only for the build and single queries, which refuse this
    # ground set
    n = 40
    rep = _parallel(n)
    weights = [3 ** j for j in range(n)]
    sig = signature_from_weights(rep, weights, CIRCUIT, cap=n)
    cosig = signature_from_weights(rep, weights, COCIRCUIT, cap=n)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    o = Orientation.from_mask(n, 0b10110)
    dec = compatible_decomposition(rep, o, sig, cosig)
    assert dec.representative == Orientation.from_mask(n, 0b111 << n - 3)
    current = dec.representative
    for piece in (*dec.cycles, *dec.cocycles):
        current = reverse(current, piece)
    assert current == o
    (entry,) = reversal._TABLE_CACHE.values()
    assert entry.codes is None


def test_same_class_past_the_cap_reads_no_half_tables():
    # rank 1: the class of an orientation is its number of forward edges mod k
    for k in (16, 60):
        rep = _parallel(k)
        three, four = (Orientation.from_mask(k, m) for m in (0b111, 0b1111 << k - 4))
        assert same_class(rep, Orientation.reference(k), Orientation.from_mask(k, 0),
                          "cycle-cocycle")
        assert same_class(rep, three, Orientation.from_mask(k, 0b1101 << 5), "cycle-cocycle")
        assert not same_class(rep, three, four, "cycle-cocycle")
        # tables of 2^(k/2) entries are built only up to the element cap
        assert ("_class_halves" in vars(rep)) == (k <= core.DEFAULT_ELEMENT_CAP)


def _walked_representative(rep, o, sig, cosig):
    """The joint representative by alternating the two one-sided reversal walks."""
    while True:
        o = circuit_class_representative(rep, o, sig)
        nxt = cocircuit_class_representative(rep, o, cosig)
        if nxt == o:
            return o
        o = nxt


def test_decomposition_looks_its_representative_up(monkeypatch):
    cases = [(rep, *pairs[0]) for _, rep, pairs in suite_instances()]
    r10 = RegularMatroidRep.from_rows(R10_MATRIX)
    cases.append((r10, *canonical_signature_pair(r10)))
    rng = random.Random(41)
    samples = []
    for rep, sig, cosig in cases:
        n = rep.element_count
        for m in rng.sample(range(1 << n), min(1 << n, 24)):
            o = Orientation.from_mask(n, m)
            samples.append((rep, o, sig, cosig, _walked_representative(rep, o, sig, cosig)))

    def refuse(*args):
        raise AssertionError("a reversal walk was taken")

    monkeypatch.setattr(reversal, "_representative_mask", refuse)
    for rep, o, sig, cosig, walked in samples:
        dec = compatible_decomposition(rep, o, sig, cosig, rng=random.Random(0))
        assert dec.representative == walked
        assert compatible_decomposition(rep, o, sig, cosig) == dec
        current = dec.representative
        for piece in (*dec.cycles, *dec.cocycles):
            current = reverse(current, piece)
        assert current == o


def test_decomposition_refuses_a_cyclic_pair(theta_rep):
    cyclic = explicit_signature(theta_rep, CIRCUIT, [(1, -1, 0), (0, 1, -1), (-1, 0, 1)])
    cosig = explicit_signature(theta_rep, COCIRCUIT, [(1, 1, 1)])
    with pytest.raises(InvariantViolationError):
        compatible_decomposition(theta_rep, Orientation((True, False, False)), cyclic, cosig)


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle or a signature was consulted")


@pytest.mark.parametrize("name", ["K4", "R10"])
def test_partitions_consult_neither_the_oracle_nor_signatures(monkeypatch, name):
    if name == "K4":
        rep = graph_to_rep(complete_graph(4))
    else:
        rep = RegularMatroidRep.from_rows(R10_MATRIX)
    n = rep.element_count
    weights = [3 ** j for j in range(n)]
    sig = signature_from_weights(rep, weights, CIRCUIT)
    cosig = signature_from_weights(rep, weights, COCIRCUIT)
    # every module that binds one of these names, not only the defining one
    for module in (oribij, core, oracle, reversal, signatures, bijection):
        for attr in ("closure_mask_partition", "canonical_signature_pair"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, _refuse)
    table = BijectionTable.build(rep, sig, cosig, use_cache=False)
    joint = enumerate_classes(rep, "cycle-cocycle")
    assert len(joint) == sum(tag == "basis" for tag in table.tags.values())
    for kind in KINDS:
        classes = enumerate_classes(rep, kind)
        largest = max(classes, key=len)
        assert len(largest) > 1
        assert same_class(rep, largest[0], largest[-1], kind)
        assert not same_class(rep, classes[0][0], classes[1][0], kind)


def test_only_the_oracle_calls_the_closure_and_nothing_calls_the_canonical_pair():
    callers = set()
    for path in sorted(Path(oribij.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if name in ("closure_mask_partition", "canonical_signature_pair"):
                            callers.add((path.stem, fn.name, name))
    assert callers == {
        ("oracle", "reversal_closure_classes", "closure_mask_partition"),
        ("verification", "run_verification", "closure_mask_partition"),
    }


def test_the_closure_reads_no_linear_class_map():
    # the class oracle checks the keyed partitions, so it names none of the
    # linear maps or tables they are read from, nor the matrix itself
    tree = ast.parse(Path(core.__file__).read_text())
    closure = next(fn for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "closure_mask_partition")
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(closure)}
    assert {"_circuits", "_cocircuits", "orientations_with_bit"} <= names
    assert not names & {
        "_class_rows", "_class_halves", "_class_key", "_class_keys", "_packed_columns",
        "_packed_projection", "_projection", "_projection_halves", "_packed_sum",
        "_subset_sums", "_half_sums", "kernel_basis", "matrix", "in_kernel", "in_row_space",
    }


def test_no_module_item_assigns_into_another_objects_attribute():
    # a per-rep cache written as rep._cache[key] = value would hide mutable
    # state inside the frozen RegularMatroidRep; module caches are dicts bound
    # to a module name instead
    writes = set()
    for path in sorted(Path(oribij.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                item = targets.pop()
                if isinstance(item, (ast.Tuple, ast.List)):
                    targets += item.elts
                    continue
                base = item
                while isinstance(base, ast.Subscript):
                    base = base.value
                if base is not item and isinstance(base, ast.Attribute):
                    writes.add((path.stem, node.lineno, ast.unparse(item)))
    assert writes == set()


def test_one_integer_elimination_no_ratlin_and_no_fractions_in_core():
    # core._gauss_jordan is the one exact elimination; ratlin's Fraction
    # row reduction and Bareiss determinant are gone
    found = set()
    for path in sorted(Path(oribij.__file__).parent.glob("*.py")):
        banned = {"ratlin", "fractions"} if path.stem == "core" else {"ratlin"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                parts = {p for a in node.names for p in a.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                parts = set((node.module or "").split(".")) | {a.name for a in node.names}
            else:
                continue
            found |= {(path.stem, name) for name in parts & banned}
    assert found == set()


def _unbounded_caches(source: str) -> list[str]:
    """``lru_cache(maxsize=None)`` (or ``lru_cache(None)``) and ``functools.cache`` uses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
            sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                found.append(ast.unparse(node))
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and getattr(node.value, "id", None) == "functools"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"from functools import {a.name}" for a in node.names if a.name == "cache"]
    return found


def test_no_module_cache_is_unbounded():
    # a long-lived process must not grow a cache without bound
    assert _unbounded_caches("@lru_cache(maxsize=None)\ndef f(): pass") != []
    assert _unbounded_caches("@functools.lru_cache(None)\ndef f(): pass") != []
    assert _unbounded_caches("@functools.cache\ndef f(): pass") != []
    assert _unbounded_caches("from functools import cache") != []
    assert _unbounded_caches("@lru_cache(maxsize=16)\ndef f(): pass") == []
    found = {
        (path.stem, use)
        for path in sorted(Path(oribij.__file__).parent.glob("*.py"))
        for use in _unbounded_caches(path.read_text())
    }
    assert found == set()
    assert signatures.canonical_signature_pair.cache_info().maxsize == core.CACHE_SIZE


def test_representatives_constant_on_classes(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    for members in enumerate_classes(triangle_rep, "cycle-cocycle"):
        reps = {
            compatible_decomposition(triangle_rep, o, sig, cosig).representative
            for o in members
        }
        assert len(reps) == 1


def test_non_acyclic_signature_reversal_guard(theta_rep):
    cyclic = explicit_signature(theta_rep, CIRCUIT, [(1, -1, 0), (0, 1, -1), (-1, 0, 1)])
    # starting from (1,0,0) the anti-chosen reversals cycle forever
    with pytest.raises(InvariantViolationError):
        circuit_class_representative(theta_rep, Orientation((True, False, False)), cyclic)
