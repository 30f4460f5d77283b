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
from .core import DEFAULT_ELEMENT_CAP, KINDS, RegularMatroidRep, _require_cap, rep_for
from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    TrivialGraphError,
)
from .geometry import _restricted_cell_polynomial, independent_set_polynomial
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
    # full flag names only: a prefix would name different flags on different commands
    for name, (help_text, _, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="JSON file {vertices, edges}")
        src.add_argument("--matroid", help="JSON file {matrix}")
        for flag, keywords in own.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _document(path: str):
    """The JSON document in the file at path; every input file is read here."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_rep(args) -> RegularMatroidRep:
    if args.graph is not None:
        return rep_for(load_graph_obj(_document(args.graph)))
    return load_matroid_obj(_document(args.matroid))


def _load_signatures(rep, args):
    """The signature pair, plus a side -> Acyclicity map of its explicit sides.

    An explicit side that is not acyclic is refused; weight-derived sides are
    acyclic by construction and are not checked here.
    """
    weights = (args.cycle_weights, args.cocycle_weights)
    if args.signature is not None:
        if weights != (None, None):
            raise InputError("--signature excludes --cycle-weights and --cocycle-weights")
        sig, cosig = load_signature_pair(rep, _document(args.signature))
    else:
        default = canonical_weights(rep.element_count)
        cw, dw = (default if w is None else parse_weights(w) for w in weights)
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
    if args.out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _cmd_table(args) -> int:
    rep = _load_rep(args)
    sig, cosig, _ = _load_signatures(rep, args)
    table = BijectionTable.build(rep, sig, cosig)
    write = {"dot": table_dot, "csv": table_csv}.get(args.format)
    _emit(args, write(table) if write else json_pieces(table_json_obj(table)))
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
    restricted = _restricted_cell_polynomial(table)
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


_SIGNATURE_FLAGS = {
    "--cycle-weights": {"help": "comma-separated rationals, e.g. 1/2,-3,1"},
    "--cocycle-weights": {"help": "comma-separated rationals"},
    "--signature": {"help": "JSON file {circuit: {...}, cocircuit: {...}}"},
}

# name -> (help text, handler, argparse keywords of each flag it reads past the input and --out)
_COMMANDS = {
    "table": ("emit the full orientation-to-subgraph table", _cmd_table, {
        **_SIGNATURE_FLAGS, "--format": {"choices": ("json", "dot", "csv"), "default": "json"}}),
    "verify": ("run the exact invariant battery", _cmd_verify, {
        **_SIGNATURE_FLAGS, "--seed": {"type": int, "default": 0},
        "--samples": {"type": int, "default": 2000}}),
    "classes": ("emit the reversal-class partition", _cmd_classes,
                {"--kind": {"choices": KINDS, "default": "cycle-cocycle"}}),
    "ehrhart": ("emit the two counting polynomials and their difference", _cmd_ehrhart,
                _SIGNATURE_FLAGS),
    "signature-check": ("check signature acyclicity and print a witness",
                        _cmd_signature_check, _SIGNATURE_FLAGS),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except (InputError, TrivialGraphError, CapExceededError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_INPUT
    except InvariantViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
