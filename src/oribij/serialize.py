"""JSON/DOT/CSV encodings of the public objects.

All JSON output is deterministic (sorted keys, sorted rows) so identical
inputs and seeds produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .bijection import BijectionTable
from .core import Graph, Orientation, RegularMatroidRep
from .errors import InputError
from .geometry import MultilinearPolynomial
from .signatures import CIRCUIT, COCIRCUIT, Signature, explicit_signature, signature_from_weights


def load_graph_obj(obj: dict) -> Graph:
    try:
        vertices = int(obj["vertices"])
        edges = tuple((int(t), int(h)) for t, h in obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph document: {exc}") from exc
    return Graph(vertices, edges)


def load_matroid_obj(obj: dict) -> RegularMatroidRep:
    try:
        rows = [[int(x) for x in row] for row in obj["matrix"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad matroid document: {exc}") from exc
    if not rows:
        raise InputError("matroid matrix must have at least one row")
    return RegularMatroidRep.from_rows(rows)


def parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad weight list {text!r}: {exc}") from exc


def load_signature_obj(rep: RegularMatroidRep, obj: dict) -> Signature:
    side = obj.get("side")
    if side not in (CIRCUIT, COCIRCUIT):
        raise InputError(f"signature side must be circuit or cocircuit, got {side!r}")
    if "weights" in obj:
        return signature_from_weights(rep, [Fraction(str(w)) for w in obj["weights"]], side)
    if "explicit" in obj:
        choices = []
        for item in obj["explicit"]:
            entries = [0] * rep.element_count
            for e, s in zip(item["support"], item["signs"]):
                entries[int(e)] = int(s)
            choices.append(entries)
        return explicit_signature(rep, side, choices)
    raise InputError("signature document needs 'weights' or 'explicit'")


def load_signature_pair(rep: RegularMatroidRep, obj: dict) -> tuple[Signature, Signature]:
    try:
        circuit = dict(obj["circuit"], side=CIRCUIT)
        cocircuit = dict(obj["cocircuit"], side=COCIRCUIT)
    except (KeyError, TypeError) as exc:
        raise InputError("signature file needs 'circuit' and 'cocircuit' entries") from exc
    return load_signature_obj(rep, circuit), load_signature_obj(rep, cocircuit)


def orientation_json(o: Orientation) -> list[int]:
    return _orientation_bits(o.mask, len(o))


def _orientation_bits(m: int, n: int) -> list[int]:
    """``orientation_json`` of the orientation with mask m over n elements."""
    return [m >> j & 1 for j in range(n)]


def table_json_obj(table: BijectionTable) -> dict:
    n = table.rep.element_count
    rows = [
        {"orientation": _orientation_bits(m, n), "subgraph": subgraph, "tag": tag}
        for m, subgraph, tag in table.mask_rows()
    ]
    return {"elements": n, "rows": rows}


def classes_json_obj(classes: Sequence[Sequence[Orientation]]) -> dict:
    out = []
    for members in classes:
        out.append({
            "representative": orientation_json(members[0]),
            "members": [orientation_json(o) for o in members],
        })
    return {"count": len(out), "classes": out}


def polynomial_json_obj(poly: MultilinearPolynomial) -> list[dict]:
    return [
        {"subset": list(subset), "coeff": coeff}
        for subset, coeff in poly.monomials()
    ]


def table_csv(table: BijectionTable) -> str:
    n = table.rep.element_count
    lines = ["orientation,subgraph,tag"]
    for m, subgraph, tag in table.mask_rows():
        bits = "".join(map(str, _orientation_bits(m, n)))
        subset = ";".join(map(str, subgraph))
        lines.append(f"{bits},{subset},{tag}")
    return "\n".join(lines) + "\n"


def table_dot(table: BijectionTable) -> str:
    """One cluster per orientation, drawn with its image subgraph.

    Arcs follow the orientation; an edge is dashed exactly when it is not in
    the subgraph.
    """
    g = table.rep.graph
    if g is None:
        raise InputError("DOT output needs a graph-backed representation")
    n = table.rep.element_count
    lines = ["digraph table {"]
    for m, subgraph, tag in table.mask_rows():
        bits = "".join(map(str, _orientation_bits(m, n)))
        lines.append(f'  subgraph "cluster_{bits}" {{')
        lines.append(f'    label="{bits} [{tag}]";')
        for v in range(g.vertex_count):
            lines.append(f'    "o{bits}_v{v}";')
        for j, (tail, head) in enumerate(g.edges):
            if not m >> j & 1:
                tail, head = head, tail
            style = "solid" if j in subgraph else "dashed"
            lines.append(
                f'    "o{bits}_v{tail}" -> "o{bits}_v{head}" [style={style}, label="e{j}"];'
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


_INDENTED = json.JSONEncoder(sort_keys=True, indent=2)


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The standard library writes indented JSON in pure Python, one chunk per
    token.  Here dicts with string keys and lists are laid out directly, a
    list of plain ints in one join; every other value (scalars, non-string
    keys, container subclasses) is encoded by ``json`` and re-indented.
    """
    out: list[str] = []
    _write_json(obj, "", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, indent: str, out: list[str]):
    inner = indent + "  "
    kind = type(obj)
    if kind is dict and obj and set(map(type, obj)) == {str}:
        lead = "{\n"
        for key, value in sorted(obj.items()):
            out.append(f"{lead}{inner}{_INDENTED.encode(key)}: ")
            _write_json(value, inner, out)
            lead = ",\n"
        out.append(f"\n{indent}}}")
    elif (kind is list or kind is tuple) and set(map(type, obj)) == {int}:
        out.append(f"[\n{inner}" + f",\n{inner}".join(map(str, obj)) + f"\n{indent}]")
    elif (kind is list or kind is tuple) and obj:
        lead = "[\n"
        for value in obj:
            out.append(lead + inner)
            _write_json(value, inner, out)
            lead = ",\n"
        out.append(f"\n{indent}]")
    else:
        out.append(_INDENTED.encode(obj).replace("\n", "\n" + indent))
