"""Command-line front door.

Commands: table, verify, classes, ehrhart, signature-check.  Exit codes:
0 success, 1 verification failure, 2 bad input or signature, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .bijection import BijectionTable
from .core import DEFAULT_ELEMENT_CAP, RegularMatroidRep, _require_cap, rep_for
from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    TrivialGraphError,
)
from .geometry import independent_set_polynomial, cell_count_polynomial
from .oracle import tutte
from .reversal import _class_masks
from .signatures import (
    CIRCUIT,
    COCIRCUIT,
    canonical_weights,
    is_acyclic,
    signature_from_weights,
)
from .serialize import (
    classes_json_obj,
    json_pieces,
    load_graph_obj,
    load_matroid_obj,
    load_signature_pair,
    parse_weights,
    polynomial_json_obj,
    table_csv,
    table_dot,
    table_json_obj,
)
from .verification import run_verification

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oribij",
        description="Orientation/subgraph correspondences with exact verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="JSON file {vertices, edges}")
        src.add_argument("--matroid", help="JSON file {matrix}")
        p.add_argument("--cycle-weights", help="comma-separated rationals, e.g. 1/2,-3,1")
        p.add_argument("--cocycle-weights", help="comma-separated rationals")
        p.add_argument("--signature", help="JSON file {circuit: {...}, cocircuit: {...}}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--format", choices=("json", "dot", "csv"), default="json")
        p.add_argument("--out", help="output path (default: stdout)")

    for name, help_text in (
        ("table", "emit the full orientation-to-subgraph table"),
        ("verify", "run the exact invariant battery"),
        ("classes", "emit the reversal-class partition"),
        ("ehrhart", "emit the two counting polynomials and their difference"),
        ("signature-check", "check signature acyclicity and print a witness"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "classes":
            p.add_argument(
                "--kind", choices=("cycle", "cocycle", "cycle-cocycle"),
                default="cycle-cocycle",
            )
    return parser


def _load_rep(args) -> RegularMatroidRep:
    if args.graph:
        with open(args.graph, encoding="utf-8") as fh:
            return rep_for(load_graph_obj(json.load(fh)))
    with open(args.matroid, encoding="utf-8") as fh:
        return load_matroid_obj(json.load(fh))


def _load_signatures(rep, args):
    """The signature pair, plus a side -> Acyclicity map of its explicit sides.

    An explicit side that is not acyclic is refused; weight-derived sides are
    acyclic by construction and are not checked here.
    """
    if args.signature:
        with open(args.signature, encoding="utf-8") as fh:
            sig, cosig = load_signature_pair(rep, json.load(fh))
    else:
        default = canonical_weights(rep.element_count)
        cw = parse_weights(args.cycle_weights) if args.cycle_weights else default
        dw = parse_weights(args.cocycle_weights) if args.cocycle_weights else default
        sig = signature_from_weights(rep, cw, CIRCUIT)
        cosig = signature_from_weights(rep, dw, COCIRCUIT)
    checked = {}
    for s in (sig, cosig):
        if s.provenance == "explicit":
            checked[s.side] = is_acyclic(rep, s)
            if not checked[s.side].acyclic:
                raise InputError(f"signature not acyclic ({s.side} side)")
    return sig, cosig, checked


def _emit(args, pieces: Iterable[str]):
    """Write the output text, given in pieces, to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _cmd_table(args) -> int:
    rep = _load_rep(args)
    sig, cosig, _ = _load_signatures(rep, args)
    table = BijectionTable.build(rep, sig, cosig)
    if args.format == "dot":
        _emit(args, [table_dot(table)])
    elif args.format == "csv":
        _emit(args, [table_csv(table)])
    else:
        _emit(args, json_pieces(table_json_obj(table)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    rep = _load_rep(args)
    sig, cosig, _ = _load_signatures(rep, args)
    report = run_verification(rep, sig, cosig, samples=args.samples, seed=args.seed)
    _emit(args, json_pieces(report))
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def _cmd_classes(args) -> int:
    rep = _load_rep(args)
    _require_cap(rep, DEFAULT_ELEMENT_CAP)
    obj = classes_json_obj(_class_masks(rep, args.kind), rep.element_count)
    obj["kind"] = args.kind
    if rep.graph is not None:
        point = {"cycle": (2, 1), "cocycle": (1, 2), "cycle-cocycle": (1, 1)}[args.kind]
        obj["tutte_count"] = tutte(rep.graph, *point)
    _emit(args, json_pieces(obj))
    if "tutte_count" in obj and obj["tutte_count"] != obj["count"]:
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_ehrhart(args) -> int:
    rep = _load_rep(args)
    sig, cosig, _ = _load_signatures(rep, args)
    table = BijectionTable.build(rep, sig, cosig)
    independent = independent_set_polynomial(rep)
    compatible = [m for m in rep.orientation_universe()
                  if table.tags[m] in ("basis", "forest")]
    restricted = cell_count_polynomial(table, compatible)
    diff = restricted - independent
    _emit(args, json_pieces({
        "independent_set_polynomial": polynomial_json_obj(independent),
        "restricted_cell_polynomial": polynomial_json_obj(restricted),
        "difference": polynomial_json_obj(diff),
    }))
    return EXIT_OK if diff.is_zero() else EXIT_VERIFICATION


def _cmd_signature_check(args) -> int:
    rep = _load_rep(args)
    sig, cosig, checked = _load_signatures(rep, args)
    out = {}
    ok = True
    for s in (sig, cosig):
        result = checked[s.side] if s.side in checked else is_acyclic(rep, s)
        out[s.side] = {
            "acyclic": result.acyclic,
            "witness": [str(w) for w in result.witness] if result.witness else None,
            "supports": len(s.chosen),
        }
        ok = ok and result.acyclic
    _emit(args, json_pieces(out))
    return EXIT_OK if ok else EXIT_VERIFICATION


_HANDLERS = {
    "table": _cmd_table,
    "verify": _cmd_verify,
    "classes": _cmd_classes,
    "ehrhart": _cmd_ehrhart,
    "signature-check": _cmd_signature_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InputError, TrivialGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
