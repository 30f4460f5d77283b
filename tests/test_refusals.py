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
    RegularMatroidRep,
    SignedSupportVector,
    basis_to_orientation,
    canonical_signature_pair,
    circuit_class_representative,
    cocircuit_class_representative,
    compatible_decomposition,
    conformal_decompose,
    dilated_zonotope_lattice_count,
    enumerate_classes,
    explicit_signature,
    fundamental_circuit,
    fundamental_cocircuit,
    graph_to_rep,
    orientation_to_subgraph,
    restricted_orientation_map,
    restricted_subgraph_map,
    run_verification,
    same_class,
    signature_from_weights,
    split_kernel_image,
    subgraph_to_orientation,
    verify_cube_tiling,
)
from oribij.core import closure_mask_partition
from oribij.serialize import load_matroid_obj, load_signature_obj, parse_weights

from helpers import complete_graph

TRIANGLE = graph_to_rep(Graph(3, ((2, 0), (0, 1), (1, 2))))
SIG, COSIG = canonical_signature_pair(TRIANGLE)
REFERENCE = Orientation.reference(3)
TREE = Basis(frozenset({0, 1}))

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
    # reversal
    "same_class kind": (
        lambda: same_class(TRIANGLE, REFERENCE, REFERENCE, "cut"), "unknown reversal kind"),
    "enumerate_classes kind": (
        lambda: enumerate_classes(TRIANGLE, "cut"), "unknown reversal kind"),
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
    "build": lambda sig, cosig: BijectionTable.build(K4, sig, cosig, use_cache=False),
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
def test_a_support_chosen_twice_is_refused(call, side, sign):
    call(K4_SIG, K4_COSIG)
    pair = {"circuit": K4_SIG, "cocircuit": K4_COSIG}
    first = pair[side].chosen[0]
    pair[side] = dataclasses.replace(
        pair[side], chosen=pair[side].chosen + (first if sign == 1 else -first,))
    with pytest.raises(InputError, match=re.escape(f"support {sorted(first.support)} chosen twice")):
        call(pair["circuit"], pair["cocircuit"])
