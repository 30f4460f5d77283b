"""The public API is pinned: the names the package exports and the surface of Orientation."""

import dataclasses
import inspect
import types

import oribij
from oribij import Orientation

EXPORTED = {
    # bijection
    "BijectionTable", "basis_from_orientation", "basis_to_orientation",
    "classify_specialization", "orientation_to_subgraph",
    "orientation_to_subgraph_complement", "restricted_orientation_map",
    "restricted_subgraph_map", "subgraph_to_orientation",
    # core
    "Basis", "Graph", "Orientation", "PartialOrientation", "RegularMatroidRep",
    "SignedSupportVector", "conformal_decompose", "enumerate_bases",
    "enumerate_independent_sets", "enumerate_signed_circuits",
    "enumerate_signed_cocircuits", "find_conforming_circuit_or_cocircuit",
    "fundamental_circuit", "fundamental_cocircuit", "graph_to_rep",
    "is_totally_unimodular", "loops_only_rep", "rep_for", "split_kernel_image",
    # errors
    "CapExceededError", "InputError", "InvariantViolationError",
    "NonGenericWeightsError", "NotCompatibleError", "NotSameClassError",
    "OribijError", "TrivialGraphError",
    # geometry
    "HalfOpenCell", "MultilinearPolynomial", "RationalPoint", "TilingReport",
    "cell_contains", "cell_count_polynomial", "dilated_zonotope_lattice_count",
    "independent_set_polynomial", "locate_point", "random_rational_point",
    "verify_cube_tiling",
    # oracle
    "AuditReport", "audit_bijection", "classify_subset", "reversal_closure_classes",
    "tutte",
    # reversal
    "ClassDecomposition", "circuit_class_representative",
    "cocircuit_class_representative", "compatible_decomposition",
    "enumerate_classes", "reverse", "same_class",
    # signatures
    "CIRCUIT", "COCIRCUIT", "Acyclicity", "Signature", "canonical_signature_pair",
    "canonical_weights", "directed_circuits_in", "explicit_signature", "is_acyclic",
    "is_compatible", "signature_from_weights",
    # verification
    "run_verification",
}


def test_the_package_exports_exactly_the_pinned_names():
    exported = {
        name for name, value in vars(oribij).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTED
    assert oribij.__version__ == "0.1.0"


def test_orientation_keeps_its_public_surface():
    assert [f.name for f in dataclasses.fields(Orientation)] == ["mask", "size"]
    public = {name for name in dir(Orientation) if not name.startswith("_")}
    assert public == {"from_mask", "mask", "reference", "signs", "size", "vector"}
    assert list(inspect.signature(Orientation).parameters) == ["signs"]
    assert list(inspect.signature(Orientation.from_mask).parameters) == ["n", "mask"]
    assert list(inspect.signature(Orientation.reference).parameters) == ["n"]
    assert isinstance(Orientation.signs, property)
    o = Orientation((True, False, True))
    assert (o.mask, o.size, o.signs, o.vector(), len(o)) == (5, 3, (True, False, True),
                                                            (1, 0, 1), 3)
    assert o == Orientation.from_mask(3, 5) and hash(o) == hash(Orientation.from_mask(3, 5))
    assert o != Orientation.from_mask(3, 4)
    assert {o, Orientation.from_mask(3, 5)} == {o}
