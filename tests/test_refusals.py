"""Every refusal at the door, each with its error type and message."""

import dataclasses
import re
from fractions import Fraction

import pytest

from oribij import (
    Basis,
    BijectionTable,
    CapExceededError,
    Graph,
    InputError,
    MultilinearPolynomial,
    Orientation,
    PartialOrientation,
    RationalPoint,
    RegularMatroidRep,
    Signature,
    SignedSupportVector,
    basis_from_orientation,
    basis_to_orientation,
    canonical_signature_pair,
    cell_count_polynomial,
    circuit_class_representative,
    classify_specialization,
    classify_subset,
    cocircuit_class_representative,
    compatible_decomposition,
    conformal_decompose,
    dilated_zonotope_lattice_count,
    directed_circuits_in,
    enumerate_classes,
    explicit_signature,
    find_conforming_circuit_or_cocircuit,
    fundamental_circuit,
    fundamental_cocircuit,
    graph_to_rep,
    is_compatible,
    locate_point,
    orientation_to_subgraph,
    orientation_to_subgraph_complement,
    restricted_orientation_map,
    restricted_subgraph_map,
    reversal_closure_classes,
    reverse,
    run_verification,
    same_class,
    signature_from_weights,
    split_kernel_image,
    subgraph_to_orientation,
    verify_cube_tiling,
)
from oribij.core import closure_mask_partition
from oribij.verification import separation_violations
from oribij.serialize import load_matroid_obj, load_signature_obj, parse_weights

from helpers import complete_graph

TRIANGLE = graph_to_rep(Graph(3, ((2, 0), (0, 1), (1, 2))))
SIG, COSIG = canonical_signature_pair(TRIANGLE)
REFERENCE = Orientation.reference(3)
TREE = Basis(frozenset({0, 1}))
# loads, as no walk over the bases runs at load past the 16-element cap; its
# tableau on the basis {1, 2} holds a -2
WIDE = RegularMatroidRep.from_rows([[1, 0, 1, 1] + [0] * 13, [0, 1, 1, -1] + [0] * 13])

REFUSALS = {
    # core
    "graph without a vertex": (lambda: Graph(0, ()), "a graph needs at least one vertex"),
    "edge endpoint out of range": (lambda: Graph(2, ((0, 2),)), "edge endpoint out of range"),
    "ragged matrix": (lambda: RegularMatroidRep.from_rows([[1, 0], [1]]), "ragged matrix"),
    "empty matrix without a width": (
        lambda: RegularMatroidRep.from_rows([]), "element_count is required"),
    "mismatched width": (
        lambda: RegularMatroidRep.from_rows([[1, 0]], element_count=3),
        "element_count disagrees with the matrix width"),
    "fundamental circuit off the ground set": (
        lambda: fundamental_circuit(TRIANGLE, TREE, 3), "element outside the ground set"),
    "untagged vector": (
        lambda: conformal_decompose(TRIANGLE, SignedSupportVector((1, 1, 1))),
        "vector must be tagged kernel or image"),
    "non-sign vector": (
        lambda: conformal_decompose(TRIANGLE, SignedSupportVector((2, 2, 2), "kernel")),
        r"needs a \{0,\+-1\} vector"),
    "closure kind": (
        lambda: closure_mask_partition(TRIANGLE, "cut"), "unknown reversal kind 'cut'"),
    "split length": (
        lambda: split_kernel_image(TRIANGLE, (1, 0)),
        "vector length disagrees with the ground set"),
    "pivot element without a direction": (
        lambda: find_conforming_circuit_or_cocircuit(
            TRIANGLE, PartialOrientation.from_mapping({0: True}),
            frozenset({1}), frozenset({2}), 1),
        "the pivot element must carry a direction"),
    "fundamental circuit past the cap of a non-unimodular matrix": (
        lambda: fundamental_circuit(WIDE, Basis(frozenset({1, 2})), 3),
        "matrix is not totally unimodular"),
    "fundamental cocircuit past the cap of a non-unimodular matrix": (
        lambda: fundamental_cocircuit(WIDE, Basis(frozenset({1, 2})), 2),
        "matrix is not totally unimodular"),
    # reversal
    "same_class kind": (
        lambda: same_class(TRIANGLE, REFERENCE, REFERENCE, "cut"), "unknown reversal kind"),
    "enumerate_classes kind": (
        lambda: enumerate_classes(TRIANGLE, "cut"), "unknown reversal kind"),
    "same_class cycle past the cap of a non-unimodular matrix": (
        lambda: same_class(WIDE, 0, 1, "cycle"), "matrix is not totally unimodular"),
    "same_class cocycle past the cap of a non-unimodular matrix": (
        lambda: same_class(WIDE, 0, 1, "cocycle"), "matrix is not totally unimodular"),
    "same_class cycle-cocycle past the cap of a non-unimodular matrix": (
        lambda: same_class(WIDE, 0, 1, "cycle-cocycle"), "matrix is not totally unimodular"),
    "circuit representative of a cocircuit signature": (
        lambda: circuit_class_representative(TRIANGLE, REFERENCE, COSIG),
        "expected a circuit signature"),
    "cocircuit representative of a circuit signature": (
        lambda: cocircuit_class_representative(TRIANGLE, REFERENCE, SIG),
        "expected a cocircuit signature"),
    "swapped pair": (
        lambda: compatible_decomposition(TRIANGLE, REFERENCE, COSIG, SIG),
        "need a circuit signature and a cocircuit signature"),
    # geometry
    "negative samples": (
        lambda: verify_cube_tiling(TRIANGLE, BijectionTable.build(TRIANGLE, SIG, COSIG), -1),
        "the sample count must not be negative"),
    # serialize
    "matroid without rows": (
        lambda: load_matroid_obj({"matrix": []}), "must have at least one row"),
    "bad weight list": (lambda: parse_weights("1,x"), "bad weight list '1,x'"),
    "signature side": (
        lambda: load_signature_obj(TRIANGLE, {"side": "cut", "weights": [1, 2, 3]}),
        "signature side must be circuit or cocircuit, got 'cut'"),
    "signature without choices": (
        lambda: load_signature_obj(TRIANGLE, {"side": "circuit"}),
        "needs 'weights' or 'explicit'"),
    # signatures
    "choice of a non-support": (lambda: SIG.choice({0, 1}), r"no circuit with support \[0, 1\]"),
    "cocircuit choice of a non-support": (
        lambda: COSIG.choice({0, 1, 2}), r"no cocircuit with support \[0, 1, 2\]"),
    "weights for an unknown side": (
        lambda: signature_from_weights(TRIANGLE, (1, 2, 3), "cut"),
        "unknown signature side 'cut'"),
    "explicit choice off its circuit": (
        lambda: explicit_signature(TRIANGLE, "circuit", [(1, -1, 1)]),
        r"\(1, -1, 1\) is not a signed circuit on its support"),
    # elements read at the door
    "negative subgraph element": (
        lambda: subgraph_to_orientation(TRIANGLE, [-1], SIG, COSIG),
        "subset is outside the ground set"),
    "fractional subgraph element": (
        lambda: subgraph_to_orientation(TRIANGLE, [0.5], SIG, COSIG),
        "subgraph entries must be integers"),
    "negative table subgraph element": (
        lambda: BijectionTable.build(TRIANGLE, SIG, COSIG).orientation_of([-1]),
        "subset is outside the ground set"),
    "fractional included element": (
        lambda: restricted_orientation_map(TRIANGLE, [0.5], [], SIG, COSIG),
        "fixed element entries must be integers"),
    "included and excluded at once": (
        lambda: restricted_orientation_map(TRIANGLE, [0], [0], SIG, COSIG),
        "included and excluded elements overlap"),
    "fractional partial orientation element": (
        lambda: PartialOrientation.from_mapping({0.7: True}),
        "partial orientation entries must be integers"),
    "negative partial orientation element": (
        lambda: PartialOrientation.from_mapping({-1: True}),
        "fixed element outside the ground set"),
    "fractional vertex count": (
        lambda: Graph(2.0, ((0, 1),)), "vertex count entries must be integers"),
    "fractional edge endpoint": (
        lambda: Graph(2, ((0.0, 1),)), "edge endpoint entries must be integers"),
    "edge of three endpoints": (
        lambda: Graph(2, ((0, 1, 2),)), r"an edge must be a \(tail, head\) pair"),
    "edge of one endpoint": (
        lambda: Graph(2, ((0,),)), r"an edge must be a \(tail, head\) pair"),
    "edge list that is not iterable": (
        lambda: Graph(2, None), r"the edges must be an iterable of \(tail, head\) pairs"),
    "fractional verification samples": (
        lambda: run_verification(TRIANGLE, SIG, COSIG, samples=2.5),
        "sample count entries must be integers"),
    "fractional tiling samples": (
        lambda: verify_cube_tiling(TRIANGLE, BijectionTable.build(TRIANGLE, SIG, COSIG), 2.0),
        "sample count entries must be integers"),
    "float coefficient": (
        lambda: MultilinearPolynomial({frozenset({0}): 1.7}),
        "coefficient entries must be integers"),
    "half coefficient": (
        lambda: MultilinearPolynomial({frozenset({0}): 0.5}),
        "coefficient entries must be integers"),
    "fraction coefficient": (
        lambda: MultilinearPolynomial({(0,): Fraction(3, 2)}),
        "coefficient entries must be integers"),
    "string coefficient": (
        lambda: MultilinearPolynomial({(0,): "2"}), "coefficient entries must be integers"),
    "negative monomial element": (
        lambda: MultilinearPolynomial({(-1,): 1}), "subset elements must not be negative"),
    "fractional monomial element": (
        lambda: MultilinearPolynomial({(0.0,): 1}), "subset entries must be integers"),
    "negative subset element": (
        lambda: MultilinearPolynomial.from_subsets([(0,), (-1,)]),
        "subset elements must not be negative"),
    "negative coefficient element": (
        lambda: MultilinearPolynomial({(0,): 2}).coefficient([-1]),
        "subset elements must not be negative"),
    "too few polynomial values": (
        lambda: MultilinearPolynomial({(3,): 1}).evaluate([1]),
        "the polynomial needs 4 values, got 1"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_input_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_zonotope_box_cap_is_refused_as_a_cap():
    with pytest.raises(CapExceededError, match="bounding box has 9 points; cap is 8"):
        dilated_zonotope_lattice_count(TRIANGLE, [1, 1, 1], box_cap=8)
    assert dilated_zonotope_lattice_count(TRIANGLE, [1, 1, 1], box_cap=9) == 7


def test_a_fractional_key_never_fixes_element_zero():
    # int(0.7) is 0: a truncated key would fix edge 0 of the subgraph map
    with pytest.raises(InputError):
        restricted_subgraph_map(TRIANGLE, PartialOrientation.from_mapping({0.7: True}),
                                SIG, COSIG)
    assert PartialOrientation.from_mapping({True: False}).items == ((1, False),)


def test_backward_fundamental_cocircuit_is_the_negation():
    for e in TREE.elements:
        forward = fundamental_cocircuit(TRIANGLE, TREE, e)
        assert fundamental_cocircuit(TRIANGLE, TREE, e, forward=False) == -forward
        assert forward.entries[e] == 1


def test_graph_stores_its_vertex_count_and_endpoints_as_ints():
    g = Graph(True, [[0, 0]])
    assert (g.vertex_count, g.edges) == (1, ((0, 0),))
    assert g == Graph(1, ((0, 0),)) and hash(g) == hash(Graph(1, ((0, 0),)))


def test_polynomial_coefficients_are_read_as_integers():
    assert MultilinearPolynomial({(1, 0): True}).monomials() == [((0, 1), 1)]
    assert MultilinearPolynomial.from_subsets([(1,), [1]]).coefficient({1}) == 2


K4 = graph_to_rep(complete_graph(4))
K4_SIG, K4_COSIG = canonical_signature_pair(K4)
SIGNATURE_CALLS = {
    "build": lambda sig, cosig: BijectionTable.build(K4, sig, cosig),
    "query": lambda sig, cosig: orientation_to_subgraph(
        K4, Orientation.reference(K4.element_count), sig, cosig),
    "basis_to_orientation": lambda sig, cosig: basis_to_orientation(
        K4, Basis(frozenset({0, 1, 2})), sig, cosig),
    "compatible_decomposition": lambda sig, cosig: compatible_decomposition(
        K4, Orientation.reference(K4.element_count), sig, cosig),
}


@pytest.mark.parametrize("call", SIGNATURE_CALLS.values(), ids=SIGNATURE_CALLS.keys())
@pytest.mark.parametrize("side", ["circuit", "cocircuit"])
@pytest.mark.parametrize("sign", [1, -1], ids=["duplicate", "opposite"])
def test_a_support_chosen_twice_is_refused(call, side, sign, fresh_cache):
    call(K4_SIG, K4_COSIG)
    pair = {"circuit": K4_SIG, "cocircuit": K4_COSIG}
    first = pair[side].chosen[0]
    pair[side] = dataclasses.replace(
        pair[side], chosen=pair[side].chosen + (first if sign == 1 else -first,))
    with pytest.raises(InputError, match=re.escape(f"support {sorted(first.support)} chosen twice")):
        call(pair["circuit"], pair["cocircuit"])


def _turn_first_arc(vec):
    low = min(vec.support)
    return SignedSupportVector(tuple(-x if e == low else x for e, x in enumerate(vec.entries)))


# K4 has no circuit or cocircuit on two elements
SIGNATURE_DEFECTS = {
    "support missing": (lambda chosen: chosen[1:], "has no chosen direction"),
    "foreign support": (
        lambda chosen: chosen + (SignedSupportVector((1, 1, 0, 0, 0, 0)),),
        r"no \w+ with support \[0, 1\]"),
    "support chosen twice": (lambda chosen: chosen + chosen[:1], "chosen twice"),
    "vector off its circuit": (
        lambda chosen: (_turn_first_arc(chosen[0]),) + chosen[1:],
        r"is not a signed \w+ on its support"),
}


@pytest.mark.parametrize("defect, message", SIGNATURE_DEFECTS.values(),
                         ids=SIGNATURE_DEFECTS.keys())
@pytest.mark.parametrize("side", ["circuit", "cocircuit"])
def test_explicit_signature_and_the_build_refuse_alike(defect, message, side, fresh_cache):
    pair = {"circuit": K4_SIG, "cocircuit": K4_COSIG}
    chosen = defect(pair[side].chosen)
    with pytest.raises(InputError, match=message) as explicit:
        explicit_signature(K4, side, chosen)
    pair[side] = Signature(side, chosen)
    with pytest.raises(InputError) as built:
        BijectionTable.build(K4, pair["circuit"], pair["cocircuit"])
    assert str(built.value) == str(explicit.value)


# ---------------------------------------------------------------------------
# every door: each exported callable that reads an element set, an orientation
# mask, a reversal kind, a sample count or a table refuses bad values of it with
# InputError, never a TypeError, IndexError or KeyError from deeper down

N = TRIANGLE.element_count
TABLE = BijectionTable.build(TRIANGLE, SIG, COSIG)
# a negative value, the first one past the ground set, and a fraction
BAD = {
    "element": (-1, N, 0.5),
    "unbounded element": (-1, 0.5),  # no ground set is known
    "mask": (-1, 1 << N, 0.5),
    "kind": (-1, N, 0.5, "cut"),
    "count": (-1, 0.5),
    "table": (-1, N, 0.5),
    "table of a rep": (-1, N, 0.5, "K4"),  # "K4": a table over another ground set
}


def _partial(x):
    # built directly, so that the callable's own door is the one reached
    return PartialOrientation(((0, True), (x, False)))


def _any_table(x):
    return BijectionTable.build(K4, K4_SIG, K4_COSIG) if x == "K4" else x


# a jointly compatible orientation, the one basis_from_orientation accepts
JOINT = basis_to_orientation(TRIANGLE, TREE, SIG, COSIG).mask
# name: (the kind of input, a value of it the call accepts, the call)
DOORS = {
    # element sets
    "PartialOrientation.from_mapping": (
        "unbounded element", 1, lambda x: PartialOrientation.from_mapping({x: True})),
    "MultilinearPolynomial": (
        "unbounded element", 1, lambda x: MultilinearPolynomial({(0, x): 1})),
    "MultilinearPolynomial.from_subsets": (
        "unbounded element", 1, lambda x: MultilinearPolynomial.from_subsets([(x,)])),
    "MultilinearPolynomial.coefficient": (
        "unbounded element", 1, lambda x: MultilinearPolynomial({(0,): 1}).coefficient([x])),
    "fundamental_circuit basis": (
        "element", 1, lambda x: fundamental_circuit(TRIANGLE, Basis(frozenset({0, x})), 2)),
    "fundamental_cocircuit basis": (
        "element", 1, lambda x: fundamental_cocircuit(TRIANGLE, Basis(frozenset({0, x})), 0)),
    "basis_to_orientation basis": ("element", 1, lambda x: basis_to_orientation(
        TRIANGLE, Basis(frozenset({0, x})), SIG, COSIG)),
    "fundamental_circuit element": ("element", 2, lambda x: fundamental_circuit(TRIANGLE, TREE, x)),
    "fundamental_cocircuit element": (
        "element", 1, lambda x: fundamental_cocircuit(TRIANGLE, TREE, x)),
    "BijectionTable.orientation_of": ("element", 2, lambda x: TABLE.orientation_of([0, x])),
    "subgraph_to_orientation": (
        "element", 1, lambda x: subgraph_to_orientation(TRIANGLE, [x], SIG, COSIG)),
    "restricted_subgraph_map": (
        "element", 1, lambda x: restricted_subgraph_map(TRIANGLE, _partial(x), SIG, COSIG)),
    "restricted_orientation_map include": (
        "element", 1, lambda x: restricted_orientation_map(TRIANGLE, [x], [], SIG, COSIG)),
    "restricted_orientation_map exclude": (
        "element", 1, lambda x: restricted_orientation_map(TRIANGLE, [], [x], SIG, COSIG)),
    "classify_subset": ("element", 1, lambda x: classify_subset(TRIANGLE.graph, [0, x])),
    "find_conforming_circuit_or_cocircuit": (
        "element", 1, lambda x: find_conforming_circuit_or_cocircuit(
            TRIANGLE, PartialOrientation.from_mapping({0: True, 1: True, 2: True}),
            frozenset(), frozenset(), x)),
    # orientation masks
    "Orientation.from_mask": ("mask", 0, lambda x: Orientation.from_mask(N, x)),
    "BijectionTable.subgraph_of": ("mask", 0, lambda x: TABLE.subgraph_of(x)),
    "BijectionTable.tag_of": ("mask", 0, lambda x: TABLE.tag_of(x)),
    "basis_from_orientation": (
        "mask", JOINT, lambda x: basis_from_orientation(TRIANGLE, x, SIG, COSIG)),
    "orientation_to_subgraph": (
        "mask", 0, lambda x: orientation_to_subgraph(TRIANGLE, x, SIG, COSIG)),
    "orientation_to_subgraph_complement": (
        "mask", 0, lambda x: orientation_to_subgraph_complement(TRIANGLE, x, SIG, COSIG)),
    "classify_specialization": (
        "mask", 0, lambda x: classify_specialization(TRIANGLE, x, SIG, COSIG)),
    "circuit_class_representative": (
        "mask", 0, lambda x: circuit_class_representative(TRIANGLE, x, SIG)),
    "cocircuit_class_representative": (
        "mask", 0, lambda x: cocircuit_class_representative(TRIANGLE, x, COSIG)),
    "compatible_decomposition": (
        "mask", 0, lambda x: compatible_decomposition(TRIANGLE, x, SIG, COSIG)),
    "reverse": ("mask", 7, lambda x: reverse(x, SIG.choice({0, 1, 2}))),
    "same_class first": ("mask", 0, lambda x: same_class(TRIANGLE, x, 0, "cycle")),
    "same_class second": ("mask", 0, lambda x: same_class(TRIANGLE, 0, x, "cocycle")),
    "is_compatible": ("mask", 0, lambda x: is_compatible(TRIANGLE, x, SIG)),
    "directed_circuits_in": ("mask", 0, lambda x: directed_circuits_in(TRIANGLE, x)),
    "cell_count_polynomial orientations": (
        "mask", 0, lambda x: cell_count_polynomial(TABLE, [0, x])),
    # reversal kinds
    "same_class kind": ("kind", "cycle", lambda x: same_class(TRIANGLE, 0, 0, x)),
    "enumerate_classes": ("kind", "cycle", lambda x: enumerate_classes(TRIANGLE, x)),
    "reversal_closure_classes": ("kind", "cycle", lambda x: reversal_closure_classes(TRIANGLE, x)),
    "closure_mask_partition": ("kind", "cycle", lambda x: closure_mask_partition(TRIANGLE, x)),
    # sample counts
    "run_verification samples": (
        "count", 3, lambda x: run_verification(TRIANGLE, SIG, COSIG, samples=x)),
    "verify_cube_tiling samples": ("count", 3, lambda x: verify_cube_tiling(TRIANGLE, TABLE, x)),
    # tables
    "cell_count_polynomial table": ("table", TABLE, lambda x: cell_count_polynomial(x)),
    "separation_violations": ("table", TABLE, lambda x: separation_violations(x)),
    "verify_cube_tiling table": (
        "table of a rep", TABLE, lambda x: verify_cube_tiling(TRIANGLE, _any_table(x), 3)),
    "locate_point": ("table of a rep", TABLE, lambda x: locate_point(
        TRIANGLE, RationalPoint.of([0, 0, 0]), _any_table(x))),
    "run_verification table": ("table of a rep", TABLE, lambda x: run_verification(
        TRIANGLE, SIG, COSIG, samples=3, table=_any_table(x))),
}
DOOR_CASES = {f"{name} <- {bad!r}": (call, bad)
              for name, (kind, _, call) in DOORS.items() for bad in BAD[kind]}


@pytest.mark.parametrize("call, bad", DOOR_CASES.values(), ids=DOOR_CASES.keys())
def test_every_door_refuses_bad_input(call, bad):
    with pytest.raises(InputError):
        call(bad)


@pytest.mark.parametrize("kind, good, call", DOORS.values(), ids=DOORS.keys())
def test_every_door_lets_good_input_through(kind, good, call):
    # so the sweep above fails on its bad values alone
    call(good)
