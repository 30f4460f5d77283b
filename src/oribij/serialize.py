"""JSON/DOT/CSV encodings of the public objects.

All JSON output is deterministic (sorted keys, sorted rows) so identical
inputs and seeds produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterator, Sequence

from .bijection import BijectionTable
from .core import Graph, RegularMatroidRep, bits_of
from .errors import InputError
from .geometry import MultilinearPolynomial
from .signatures import CIRCUIT, COCIRCUIT, Signature, explicit_signature, signature_from_weights


def _json_int(x) -> int:
    """x if it is a JSON integer; floats, booleans and strings are refused, never truncated."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def load_graph_obj(obj: dict) -> Graph:
    try:
        vertices = _json_int(obj["vertices"])
        edges = tuple((_json_int(t), _json_int(h)) for t, h in obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph document: {exc}") from exc
    return Graph(vertices, edges)


def load_matroid_obj(obj: dict) -> RegularMatroidRep:
    try:
        rows = [[_json_int(x) for x in row] for row in obj["matrix"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad matroid document: {exc}") from exc
    if not rows:
        raise InputError("matroid matrix must have at least one row")
    if not all(rows):
        raise InputError("matroid matrix rows must not be empty")
    return RegularMatroidRep.from_rows(rows)


def parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad weight list {text!r}: {exc}") from exc


def _explicit_entries(item: dict, n: int) -> list[int]:
    """One explicit choice, {"support": [...], "signs": [...]}, as its n entries."""
    support = [_json_int(e) for e in item["support"]]
    signs = [_json_int(s) for s in item["signs"]]
    if len(support) != len(signs) or len(set(support)) < len(support):
        raise ValueError(f"support {support} needs distinct elements, one sign each: {signs}")
    entries = [0] * n
    for e, s in zip(support, signs):
        if not 0 <= e < n:
            raise ValueError(f"element {e} is not in 0..{n - 1}")
        entries[e] = s
    return entries


def load_signature_obj(rep: RegularMatroidRep, obj: dict) -> Signature:
    side = obj.get("side")
    if side not in (CIRCUIT, COCIRCUIT):
        raise InputError(f"signature side must be circuit or cocircuit, got {side!r}")
    try:
        if "weights" in obj:
            weights = [Fraction(str(w)) for w in obj["weights"]]
        elif "explicit" in obj:
            choices = [_explicit_entries(item, rep.element_count) for item in obj["explicit"]]
        else:
            raise InputError("signature document needs 'weights' or 'explicit'")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad signature document: {exc}") from exc
    if "weights" in obj:
        return signature_from_weights(rep, weights, side)
    return explicit_signature(rep, side, choices)


def load_signature_pair(rep: RegularMatroidRep, obj: dict) -> tuple[Signature, Signature]:
    try:
        circuit = dict(obj["circuit"], side=CIRCUIT)
        cocircuit = dict(obj["cocircuit"], side=COCIRCUIT)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("signature file needs 'circuit' and 'cocircuit' entries") from exc
    return load_signature_obj(rep, circuit), load_signature_obj(rep, cocircuit)


def _orientation_bits(m: int, n: int) -> list[int]:
    """The orientation with mask m over n elements as JSON: bit j of m, for each j < n."""
    return [m >> j & 1 for j in range(n)]


def table_json_obj(table: BijectionTable) -> dict:
    """{"elements": n, "rows": [...]}, one row dict per orientation, by increasing mask.

    A row holds the orientation's bits, its image's sorted elements and its
    tag.  Both lists are read off two half-mask tables, one for the low
    h = n // 2 bits and one for the rest, and concatenated, so every row gets
    lists of its own.
    """
    n = table.rep.element_count
    h = n // 2
    low = (1 << h) - 1
    bits_low = [_orientation_bits(m, h) for m in range(1 << h)]
    bits_high = [_orientation_bits(m, n - h) for m in range(1 << (n - h))]
    elements_low = [bits_of(s) for s in range(1 << h)]
    elements_high = [[e + h for e in bits_of(s)] for s in range(1 << (n - h))]
    forward, tags = table.forward, table.tags
    rows = []
    for m in range(1 << n):
        s = forward[m]
        rows.append({
            "orientation": bits_low[m & low] + bits_high[m >> h],
            "subgraph": elements_low[s & low] + elements_high[s >> h],
            "tag": tags[m],
        })
    return {"elements": n, "rows": rows}


def classes_json_obj(classes: Sequence[Sequence[int]], n: int) -> dict:
    """Reversal classes, given as orientation masks over n elements, least member first."""
    out = []
    for members in classes:
        out.append({
            "representative": _orientation_bits(members[0], n),
            "members": [_orientation_bits(m, n) for m in members],
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
_encode_str = json.encoder.encode_basestring_ascii


# json_pieces joins its pieces up to this many characters, so a writer makes
# few calls and holds little of the text at once
_PIECE_CHARS = 1 << 16


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The text is the join of ``json_pieces(obj)``.
    """
    return "".join(json_pieces(obj))


def json_pieces(obj) -> Iterator[str]:
    """The text of ``dump_json(obj)``, in pieces, for a writer's ``writelines``.

    The standard library writes indented JSON in pure Python, one chunk per
    token.  Here dicts with string keys and lists are laid out directly, and
    each flat value in them (see ``_flat``) is written in one go, a flat
    record such as a row of ``table_json_obj`` included; every other value
    (scalars, non-string keys, container subclasses) is encoded by ``json``
    and re-indented.  The pieces are joined up to ``_PIECE_CHARS`` each.
    """
    chunk: list[str] = []
    size = 0
    for piece in _pieces(obj, "", {}, _IntTexts()):
        chunk.append(piece)
        size += len(piece)
        if size >= _PIECE_CHARS:
            yield "".join(chunk)
            chunk, size = [], 0
    chunk.append("\n")
    yield "".join(chunk)


def _pieces(obj, indent: str, layouts: dict, ints: _IntTexts) -> Iterator[str]:
    inner = indent + "  "
    kind = type(obj)
    if kind is dict and obj and set(map(type, obj)) == {str}:
        items = ((f"{inner}{_encode_str(key)}: ", value) for key, value in sorted(obj.items()))
        opening, closing = "{\n", f"\n{indent}}}"
    elif (kind is list or kind is tuple) and obj:
        items = ((inner, value) for value in obj)
        opening, closing = "[\n", f"\n{indent}]"
    else:
        yield _INDENTED.encode(obj).replace("\n", "\n" + indent)
        return
    lead = opening
    for head, value in items:
        text = _flat(value, inner, layouts, ints)
        if text is None:
            yield lead + head
            yield from _pieces(value, inner, layouts, ints)
        else:
            yield lead + head + text
        lead = ",\n"
    yield closing


class _IntTexts(dict):
    """int -> its decimal text, filled as ints are met."""

    def __missing__(self, value: int) -> str:
        self[value] = text = str(value)
        return text


def _flat(
    value, indent: str, layouts: dict[tuple[str, ...], list[tuple[str, str]]], ints: _IntTexts,
) -> str | None:
    """The text of value at ``indent`` if it is flat, else None.

    Flat are strings, empty lists and tuples, lists and tuples of plain
    ints, and flat records: non-empty dicts with string keys whose values
    are flat but no dict.  One dump keeps the text of each int it meets in
    ``ints`` and, per key tuple, the sorted keys with their text in
    ``layouts``, since records mostly repeat both.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) != {int}:
            return None
        return f"[\n{inner}" + f",\n{inner}".join(map(ints.__getitem__, value)) + f"\n{indent}]"
    if kind is not dict or not value:
        return None
    keys = tuple(value)
    if set(map(type, keys)) != {str}:
        return None
    layout = layouts.get(keys)
    if layout is None:
        layout = layouts[keys] = [(key, f"{_encode_str(key)}: ") for key in sorted(keys)]
    fields = []
    for key, head in layout:
        field = value[key]
        text = None if type(field) is dict else _flat(field, inner, layouts, ints)
        if text is None:
            return None
        fields.append(inner + head + text)
    return "{\n" + ",\n".join(fields) + f"\n{indent}}}"
