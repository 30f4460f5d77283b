"""The public API is pinned: the names the package exports, the parameters of each
exported callable, the exception hierarchy and the surface of Orientation."""

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

# parameter names and kinds, in order; defaults and annotations are not pinned
PARAMETERS = {
    "Acyclicity": "(acyclic, witness)",
    "AuditReport": "(injective, surjective, collisions, missing)",
    "Basis": "(elements)",
    "BijectionTable": "(rep, circuit_signature, cocircuit_signature, forward, tags, "
                      "basis_orientations, orientation_bases)",
    "ClassDecomposition": "(representative, cycles, cocycles)",
    "Graph": "(vertex_count, edges)",
    "HalfOpenCell": "(anchor, generating_set)",
    "MultilinearPolynomial": "(coefficients)",
    "Orientation": "(signs)",
    "PartialOrientation": "(items)",
    "RationalPoint": "(coords)",
    "RegularMatroidRep": "(matrix, element_count, rank, graph)",
    "Signature": "(side, chosen, provenance)",
    "SignedSupportVector": "(entries, side)",
    "TilingReport": "(seed, sample_count, complement, pair_violations, point_violations)",
    "audit_bijection": "(domain, mapping, codomain)",
    "basis_from_orientation": "(rep, o, sig, cosig)",
    "basis_to_orientation": "(rep, basis, sig, cosig)",
    "canonical_signature_pair": "(rep)",
    "canonical_weights": "(n)",
    "cell_contains": "(cell, point)",
    "cell_count_polynomial": "(table, orientations, complement)",
    "circuit_class_representative": "(rep, o, sig, rng)",
    "classify_specialization": "(rep, o, sig, cosig)",
    "classify_subset": "(g, subset)",
    "cocircuit_class_representative": "(rep, o, sig, rng)",
    "compatible_decomposition": "(rep, o, sig, cosig, rng)",
    "conformal_decompose": "(rep, vec)",
    "dilated_zonotope_lattice_count": "(rep, dilation, rank_cap, box_cap)",
    "directed_circuits_in": "(rep, o, side, cap)",
    "enumerate_bases": "(rep, cap)",
    "enumerate_classes": "(rep, kind, cap)",
    "enumerate_independent_sets": "(rep, cap)",
    "enumerate_signed_circuits": "(rep, cap)",
    "enumerate_signed_cocircuits": "(rep, cap)",
    "explicit_signature": "(rep, side, choices, *, cap)",
    "find_conforming_circuit_or_cocircuit": "(rep, partial, cycle_only, cocycle_only, element)",
    "fundamental_circuit": "(rep, basis, element, forward)",
    "fundamental_cocircuit": "(rep, basis, element, forward)",
    "graph_to_rep": "(g)",
    "independent_set_polynomial": "(rep, cap)",
    "is_acyclic": "(rep, sig, cap)",
    "is_compatible": "(rep, o, sig)",
    "is_totally_unimodular": "(matrix, cap)",
    "locate_point": "(rep, point, table, complement)",
    "loops_only_rep": "(n, graph)",
    "orientation_to_subgraph": "(rep, o, sig, cosig)",
    "orientation_to_subgraph_complement": "(rep, o, sig, cosig)",
    "random_rational_point": "(n, rng)",
    "rep_for": "(g)",
    "restricted_orientation_map": "(rep, include, exclude, sig, cosig)",
    "restricted_subgraph_map": "(rep, partial, sig, cosig)",
    "reversal_closure_classes": "(rep, kind, cap)",
    "reverse": "(o, vec)",
    "run_verification": "(rep, sig, cosig, samples, seed, table)",
    "same_class": "(rep, o1, o2, kind)",
    "signature_from_weights": "(rep, weights, side, *, cap, support_cap)",
    "split_kernel_image": "(rep, d)",
    "subgraph_to_orientation": "(rep, subgraph, sig, cosig)",
    "tutte": "(g, x, y, cap)",
    "verify_cube_tiling": "(rep, table, sample_count, seed, complement)",
}

EXCEPTION_BASES = {
    "CapExceededError": "OribijError", "InputError": "OribijError",
    "InvariantViolationError": "OribijError", "NonGenericWeightsError": "OribijError",
    "NotCompatibleError": "InputError", "NotSameClassError": "OribijError",
    "OribijError": "Exception", "TrivialGraphError": "OribijError",
}


def parameters(fn) -> str:
    """fn's signature without defaults or annotations, e.g. "(rep, *, cap)"."""
    sig = inspect.signature(fn)
    bare = [p.replace(annotation=p.empty, default=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


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


def test_every_exported_callable_keeps_its_parameters():
    exceptions = {name for name in EXPORTED
                  if isinstance(getattr(oribij, name), type)
                  and issubclass(getattr(oribij, name), Exception)}
    assert {name: getattr(oribij, name).__base__.__name__ for name in exceptions} \
        == EXCEPTION_BASES
    callables = {name for name in EXPORTED - exceptions if callable(getattr(oribij, name))}
    assert {name: parameters(getattr(oribij, name)) for name in callables} == PARAMETERS
    assert EXPORTED - exceptions - callables == {"CIRCUIT", "COCIRCUIT"}
