"""Independent brute-force ground truth.

Everything here is deliberately direct: deletion-contraction for Tutte
evaluations, subgraph classification by component counts, the components of
the single-reversal move graph for reversal classes, and a generic bijection
auditor.  Nothing in this module consults signatures or the bijection tables
it is used to check, and the closure shares no code with the linear keys that
partition the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from .core import (
    DEFAULT_ELEMENT_CAP,
    Graph,
    Orientation,
    RegularMatroidRep,
    _components,
    _elements,
    _require_cap,
    closure_mask_partition,
)
from .errors import CapExceededError


def tutte(g: Graph, x: int, y: int, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Tutte polynomial evaluation by deletion-contraction.

    T(1,1) counts spanning trees, T(2,1) forests, T(1,2) connected spanning
    subgraphs, and T(2,2) all subsets.
    """
    if g.edge_count > cap:
        raise CapExceededError(f"{g.edge_count} edges exceeds the Tutte cap {cap}")
    memo: dict[tuple, int] = {}

    def canon(vcount: int, edges: tuple[tuple[int, int], ...]) -> tuple:
        degree = [0] * vcount
        for t, h in edges:
            degree[t] += 1
            degree[h] += 1
        order = sorted(range(vcount), key=lambda v: (degree[v], v))
        relabel = {v: i for i, v in enumerate(order)}
        return vcount, tuple(sorted(
            tuple(sorted((relabel[t], relabel[h]))) for t, h in edges
        ))

    def contract(vcount: int, edges, idx: int):
        t, h = edges[idx]
        keep, lost = min(t, h), max(t, h)

        def m(v):
            if v == lost:
                return keep
            return v - 1 if v > lost else v

        rest = tuple((m(a), m(b)) for i, (a, b) in enumerate(edges) if i != idx)
        return vcount - 1, rest

    def rec(vcount: int, edges) -> int:
        if not edges:
            return 1
        key = canon(vcount, edges)
        if key in memo:
            return memo[key]
        t, h = edges[0]
        if t == h:
            val = y * rec(vcount, edges[1:])
        elif _components(vcount, edges[1:]) > 1:
            val = x * rec(*contract(vcount, edges, 0))
        else:
            val = rec(vcount, edges[1:]) + rec(*contract(vcount, edges, 0))
        memo[key] = val
        return val

    return rec(g.vertex_count, tuple(g.edges))


def classify_subset(g: Graph, subset: Iterable[int]) -> str:
    """One of tree / forest / connected-spanning / neither."""
    chosen = set(_elements(subset, g.edge_count, "subset", "subset is outside the ground set"))
    components = _components(g.vertex_count, (g.edges[j] for j in chosen))
    acyclic = len(chosen) == g.vertex_count - components
    return ("neither", "connected-spanning", "forest", "tree")[2 * acyclic + (components == 1)]


@dataclass(frozen=True)
class AuditReport:
    injective: bool
    surjective: bool
    collisions: tuple[tuple, ...]
    missing: tuple[Hashable, ...]

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def audit_bijection(
    domain: Iterable[Hashable],
    mapping: Callable[[Hashable], Hashable] | Mapping,
    codomain: Iterable[Hashable],
) -> AuditReport:
    """Check a map for injectivity and surjectivity, reporting counterexamples."""
    get = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
    images: dict[Hashable, Hashable] = {}
    collisions = []
    for x in domain:
        y = get(x)
        if y in images:
            collisions.append((images[y], x, y))
        else:
            images[y] = x
    missing = [y for y in codomain if y not in images]
    return AuditReport(
        injective=not collisions,
        surjective=not missing,
        collisions=tuple(collisions),
        missing=tuple(missing),
    )


def reversal_closure_classes(
    rep: RegularMatroidRep, kind: str, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[tuple[Orientation, ...], ...]:
    """Reversal classes as the components of the single-reversal move graph (signature-free)."""
    _require_cap(rep, cap)
    n = rep.element_count
    return tuple(
        tuple(Orientation.from_mask(n, m) for m in members)
        for members in closure_mask_partition(rep, kind)
    )
