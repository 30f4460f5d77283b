"""The invariant battery behind the verify command.

Each suite is an independent certificate: separation, sampled half-open
tilings, Tutte (or direct enumeration) counts for the specialization tags,
reversal classes against the single-reversal closure oracle, and the two
counting-polynomial identities.
"""

from __future__ import annotations

from .bijection import BijectionTable
from .core import KINDS, RegularMatroidRep, closure_mask_partition
from .errors import InputError
from .geometry import (
    MultilinearPolynomial,
    _restricted_cell_polynomial,
    _sample_count,
    _table_over,
    _table_pairs,
    cell_count_polynomial,
    independent_set_polynomial,
    verify_cube_tiling,
)
from .oracle import tutte
from .reversal import _class_masks
from .signatures import Signature


def _suite(name: str, passed: bool, detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def separation_violations(table: BijectionTable) -> list[tuple[int, int]]:
    """Orientation pairs with no disagreeing element in the image difference.

    The list is the table's, shared with both ``verify_cube_tiling`` calls of
    a verification, so it is computed once per table.
    """
    return list(_table_pairs(_table_over(None, table)))


def run_verification(
    rep: RegularMatroidRep,
    sig: Signature,
    cosig: Signature,
    samples: int = 2000,
    seed: int = 0,
    table: BijectionTable | None = None,
) -> dict:
    samples = _sample_count(samples)
    n = rep.element_count
    if table is None:
        table = BijectionTable.build(rep, sig, cosig)
    elif (_table_over(rep, table).circuit_signature.by_support != sig.by_support
          or table.cocircuit_signature.by_support != cosig.by_support):
        raise InputError("the table was built for other signatures")
    suites = []

    bad_pairs = separation_violations(table)
    suites.append(_suite("separation", not bad_pairs, {"violations": bad_pairs[:5]}))

    forward = verify_cube_tiling(rep, table, samples, seed=seed, complement=False)
    dual = verify_cube_tiling(rep, table, samples, seed=seed, complement=True)
    suites.append(_suite(
        "tiling-sample",
        forward.passed and dual.passed,
        {"forward": forward.to_json_obj(), "complement": dual.to_json_obj()},
    ))

    counts = {"basis": 0, "forest": 0, "connected-spanning": 0, "general": 0}
    for m in rep.orientation_universe():
        counts[table.tags[m]] += 1
    got = {
        "bases": counts["basis"],
        "independent": counts["basis"] + counts["forest"],
        "spanning": counts["basis"] + counts["connected-spanning"],
        "total": sum(counts.values()),
    }
    if rep.graph is not None:
        want = {
            "bases": tutte(rep.graph, 1, 1),
            "independent": tutte(rep.graph, 2, 1),
            "spanning": tutte(rep.graph, 1, 2),
            "total": tutte(rep.graph, 2, 2),
        }
        source = "tutte"
    else:
        want = {
            "bases": len(rep._basis_masks),
            "independent": len(rep._independent_masks),
            "spanning": sum(code & 1 for code in rep._subset_codes),
            "total": 1 << n,
        }
        source = "direct-enumeration"
    suites.append(_suite(
        "count-identities", got == want,
        {"source": source, "got": got, "want": want},
    ))

    # both list each class sorted, and the classes by least member
    mismatched = [kind for kind in KINDS
                  if _class_masks(rep, kind) != closure_mask_partition(rep, kind)]
    suites.append(_suite("class-oracle", not mismatched, {"mismatched_kinds": mismatched}))

    product = cell_count_polynomial(table)
    cube = MultilinearPolynomial.full_cube(n)
    suites.append(_suite(
        "cell-polynomial-product", product == cube,
        {"monomials": len(product), "expected": 1 << n},
    ))

    restricted = _restricted_cell_polynomial(table)
    independent = independent_set_polynomial(rep)
    suites.append(_suite(
        "cell-polynomial-restricted", restricted == independent,
        {"monomials": len(restricted), "expected": len(independent)},
    ))

    return {
        "seed": seed,
        "samples": samples,
        "elements": n,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
