"""Graphs, totally unimodular representations, and signed circuit machinery.

Conventions used throughout the package:

* Edges/elements are indexed 0..n-1.  An orientation is a point of {0,1}^E;
  coordinate 1 means "agrees with the reference arc".  The reference
  orientation itself is (1, 1, ..., 1).
* A signed circuit is a {0,+1,-1} vector of support-minimal kernel type for
  the representation matrix; a signed cocircuit is the row-space analogue.
  On graphs these are exactly the directed cycles and directed minimal cuts.
* All arithmetic is exact (ints and Fractions).  Bit masks over the element
  set are used in inner loops; bit j of a mask is element j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Literal, Mapping, Sequence

from . import ratlin
from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    NotSameClassError,
    TrivialGraphError,
)

DEFAULT_ELEMENT_CAP = 16
DEFAULT_TU_CAP = 12

Side = Literal["kernel", "image", "free"]


# ---------------------------------------------------------------------------
# bit-mask helpers

def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Graph:
    """A connected multigraph with a reference orientation.

    ``edges[j] = (tail, head)`` fixes the reference arc of edge j.  Loops
    (tail == head) and parallel edges are allowed.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InputError("a graph needs at least one vertex")
        for tail, head in self.edges:
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise InputError(f"edge endpoint out of range: {(tail, head)}")
        if not self._connected():
            raise InputError("graph must be connected")

    def _connected(self) -> bool:
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for tail, head in self.edges:
            parent[find(tail)] = find(head)
        return len({find(v) for v in range(self.vertex_count)}) == 1

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, j: int) -> bool:
        tail, head = self.edges[j]
        return tail == head


@dataclass(frozen=True)
class Orientation:
    """An orientation of the ground set, as signs against the reference arcs."""

    signs: tuple[bool, ...]

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Orientation":
        return cls(tuple(bool(mask >> j & 1) for j in range(n)))

    @classmethod
    def reference(cls, n: int) -> "Orientation":
        return cls((True,) * n)

    @cached_property
    def mask(self) -> int:
        return mask_of(j for j, s in enumerate(self.signs) if s)

    def vector(self) -> tuple[int, ...]:
        return tuple(1 if s else 0 for s in self.signs)

    def __len__(self) -> int:
        return len(self.signs)


@dataclass(frozen=True)
class PartialOrientation:
    """Directions for a subset of the ground set."""

    items: tuple[tuple[int, bool], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, bool]) -> "PartialOrientation":
        return cls(tuple(sorted((int(k), bool(v)) for k, v in mapping.items())))

    @cached_property
    def mapping(self) -> dict[int, bool]:
        return dict(self.items)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(j for j, _ in self.items)

    @cached_property
    def forward_mask(self) -> int:
        return mask_of(j for j, s in self.items if s)

    @cached_property
    def backward_mask(self) -> int:
        return mask_of(j for j, s in self.items if not s)


@dataclass(frozen=True)
class SignedSupportVector:
    """An integer vector tagged with the subspace it is claimed to live in."""

    entries: tuple[int, ...]
    side: Side = "free"

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(j for j, x in enumerate(self.entries) if x)

    @cached_property
    def pos_mask(self) -> int:
        return mask_of(j for j, x in enumerate(self.entries) if x > 0)

    @cached_property
    def neg_mask(self) -> int:
        return mask_of(j for j, x in enumerate(self.entries) if x < 0)

    def is_sign_vector(self) -> bool:
        return all(abs(x) <= 1 for x in self.entries)

    def in_orientation(self, o: "Orientation | int") -> bool:
        """True when every arc of this vector appears in the orientation."""
        m = o if isinstance(o, int) else o.mask
        return (self.pos_mask & ~m) == 0 and (self.neg_mask & m) == 0

    def __neg__(self) -> "SignedSupportVector":
        return SignedSupportVector(tuple(-x for x in self.entries), self.side)


@dataclass(frozen=True)
class Basis:
    """An independent column set of full rank (a spanning tree on graphs)."""

    elements: frozenset[int]

    @cached_property
    def mask(self) -> int:
        return mask_of(self.elements)


@dataclass(frozen=True)
class RegularMatroidRep:
    """A full-row-rank totally unimodular integer matrix, optionally graph-backed.

    ``matrix`` is stored row-wise.  When built from a graph, ``graph`` keeps
    the vertex structure around so searches can use reachability instead of
    enumeration; results never depend on its presence.
    """

    matrix: tuple[tuple[int, ...], ...]
    element_count: int
    rank: int
    graph: Graph | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], *, element_count: int | None = None,
        graph: Graph | None = None,
    ) -> "RegularMatroidRep":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            n = len(rows[0])
            if any(len(row) != n for row in rows):
                raise InputError("ragged matrix")
        else:
            if element_count is None:
                raise InputError("element_count is required for an empty matrix")
            n = element_count
        if element_count is not None and element_count != n:
            raise InputError("element_count disagrees with the matrix width")
        for row in rows:
            if any(x not in (-1, 0, 1) for x in row):
                raise InputError("matrix entries must be 0 or +-1")
        if ratlin.matrix_rank(rows, n) != len(rows):
            raise InputError("matrix must have full row rank")
        return cls(matrix=rows, element_count=n, rank=len(rows), graph=graph)

    # -- cached structure ---------------------------------------------------

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row[j] for row in self.matrix) for j in range(self.element_count))

    @cached_property
    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integer rows spanning ker(A); empty when the columns are independent.

        The rows are the fundamental circuits of the lexicographically first
        basis (the pivot columns of A), one per element outside it.
        """
        basis = Basis(frozenset(ratlin.row_reduce(self.matrix, self.element_count)[1]))
        return tuple(
            fundamental_circuit(self, basis, e).entries
            for e in range(self.element_count) if e not in basis.elements
        )

    @cached_property
    def _independent_masks(self) -> frozenset[int]:
        return frozenset(_independent_column_masks(self.columns, self.rank))

    @cached_property
    def _basis_masks(self) -> tuple[int, ...]:
        r = self.rank
        return tuple(sorted(m for m in self._independent_masks if m.bit_count() == r))

    @cached_property
    def _spanning_masks(self) -> frozenset[int]:
        full = (1 << self.element_count) - 1
        out: set[int] = set()
        for b in self._basis_masks:
            free = full & ~b
            sub = free
            while True:
                out.add(b | sub)
                if sub == 0:
                    break
                sub = (sub - 1) & free
        return frozenset(out)

    def _extend_to_basis(self, start: int, avoid: int) -> Basis:
        """Greedily extend the independent mask ``start`` by elements outside ``avoid``."""
        mask = start
        for j in range(self.element_count):
            bit = 1 << j
            if not (avoid | mask) & bit and mask | bit in self._independent_masks:
                mask |= bit
        return Basis(frozenset(bits_of(mask)))

    @cached_property
    def _circuits(self) -> tuple[SignedSupportVector, ...]:
        # circuit C through its lowest element e: C is the fundamental circuit
        # of e for any basis containing C - e
        vecs = []
        for s in _minimal_dependent_masks(self._independent_masks, self.element_count):
            e = _lowest_bit(s)
            vecs.append(fundamental_circuit(self, self._extend_to_basis(s & ~(1 << e), s), e))
        return tuple(sorted(vecs, key=lambda v: sorted(v.support)))

    @cached_property
    def _cocircuits(self) -> tuple[SignedSupportVector, ...]:
        # cocircuits are the circuits of the dual, whose independent sets are
        # the complements of spanning sets; cocircuit D through its lowest
        # element e is the fundamental cocircuit of e for any basis meeting D
        # in e alone
        full = (1 << self.element_count) - 1
        dual_independent = frozenset(full & ~s for s in self._spanning_masks)
        vecs = []
        for s in _minimal_dependent_masks(dual_independent, self.element_count):
            e = _lowest_bit(s)
            vecs.append(fundamental_cocircuit(self, self._extend_to_basis(1 << e, s), e))
        for v in vecs:
            if any(ratlin.dot(row, v.entries) for row in self.kernel_basis):
                raise InvariantViolationError("cocircuit not orthogonal to the kernel")
        return tuple(sorted(vecs, key=lambda v: sorted(v.support)))

    @cached_property
    def _tableaus(self) -> dict[frozenset[int], tuple[tuple[int, ...], ...]]:
        return {}

    @cached_property
    def _projection(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer matrix N and scale t with row-space projection = N/t."""
        if self.rank == 0:
            zero = tuple(tuple(0 for _ in range(self.element_count))
                         for _ in range(self.element_count))
            return zero, 1
        gram = [
            [sum(a * b for a, b in zip(ri, rj)) for rj in self.matrix]
            for ri in self.matrix
        ]
        t = ratlin.determinant_int(gram)
        if t <= 0:
            raise InvariantViolationError("Gram determinant must be positive")
        inv = ratlin.invert(gram)
        n = self.element_count
        # N = t * A^T inv(A A^T) A, entrywise integral because t*inv is the adjugate
        half = [[sum(inv[i][k] * self.matrix[k][j] for k in range(self.rank))
                 for j in range(n)] for i in range(self.rank)]
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                val = t * sum(self.matrix[k][i] * half[k][j] for k in range(self.rank))
                if val.denominator != 1:
                    raise InvariantViolationError("projection scale is not integral")
                row.append(int(val))
            out.append(tuple(row))
        return tuple(out), t

    @cached_property
    def _closure_cache(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        return {}

    # -- membership helpers ---------------------------------------------------

    def in_kernel(self, entries: Sequence[int]) -> bool:
        return all(ratlin.dot(row, entries) == 0 for row in self.matrix)

    def in_row_space(self, entries: Sequence[int]) -> bool:
        return all(ratlin.dot(row, entries) == 0 for row in self.kernel_basis)

    def orientation_universe(self) -> range:
        return range(1 << self.element_count)


# ---------------------------------------------------------------------------
# constructors

def graph_to_rep(g: Graph) -> RegularMatroidRep:
    """Incidence matrix of the reference orientation with the last row removed.

    Entry (i, j) is +1 when vertex i is the head of non-loop arc j, -1 when it
    is the tail, and 0 otherwise; loop columns are zero.  Connectivity makes
    the result full row rank.
    """
    if g.vertex_count == 1:
        raise TrivialGraphError(
            "single-vertex graphs have no incidence matrix; use loops_only_rep"
        )
    rows = []
    for v in range(g.vertex_count - 1):
        row = []
        for tail, head in g.edges:
            if tail == head:
                row.append(0)
            elif head == v:
                row.append(1)
            elif tail == v:
                row.append(-1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return RegularMatroidRep.from_rows(rows, graph=g)


def loops_only_rep(n: int, graph: Graph | None = None) -> RegularMatroidRep:
    """Rank-zero representation: every element is a loop."""
    return RegularMatroidRep.from_rows((), element_count=n, graph=graph)


def rep_for(g: Graph) -> RegularMatroidRep:
    """graph_to_rep with the single-vertex fast path folded in."""
    if g.vertex_count == 1:
        return loops_only_rep(g.edge_count, graph=g)
    return graph_to_rep(g)


# ---------------------------------------------------------------------------
# total unimodularity

def is_totally_unimodular(matrix: Sequence[Sequence[int]], cap: int = DEFAULT_TU_CAP) -> bool:
    """Exhaustively check that every square minor lies in {0, +1, -1}."""
    rows = [tuple(int(x) for x in row) for row in matrix]
    r = len(rows)
    n = len(rows[0]) if rows else 0
    if min(r, n) > cap:
        raise CapExceededError(f"minor check needs min(r, n) <= {cap}")
    if any(x not in (-1, 0, 1) for row in rows for x in row):
        return False
    for k in range(2, min(r, n) + 1):
        for rsub in itertools.combinations(range(r), k):
            sliced = [rows[i] for i in rsub]
            for csub in itertools.combinations(range(n), k):
                minor = [[row[j] for j in csub] for row in sliced]
                if abs(ratlin.determinant_int(minor)) > 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# enumeration

def _independent_column_masks(columns: Sequence[tuple[int, ...]], height: int) -> set[int]:
    """All column subsets that are linearly independent, as bit masks."""
    n = len(columns)
    out = {0}

    def reduce(col: Sequence[Fraction], echelon: list[tuple[int, list[Fraction]]]):
        work = list(col)
        for pivot, row in echelon:
            f = work[pivot]
            if f:
                work = [a - f * b for a, b in zip(work, row)]
        return work

    def extend(mask: int, start: int, echelon: list[tuple[int, list[Fraction]]]):
        for j in range(start, n):
            work = reduce([Fraction(x) for x in columns[j]], echelon)
            pivot = next((i for i, x in enumerate(work) if x), None)
            if pivot is None:
                continue
            inv = Fraction(1) / work[pivot]
            row = [x * inv for x in work]
            out.add(mask | (1 << j))
            extend(mask | (1 << j), j + 1, echelon + [(pivot, row)])

    if height:
        extend(0, 0, [])
    return out


def _minimal_dependent_masks(independent: frozenset[int], n: int) -> list[int]:
    """Supports of circuits: dependent sets whose proper subsets are independent."""
    found: set[int] = set()
    for base in independent:
        for j in range(n):
            bit = 1 << j
            if base & bit:
                continue
            cand = base | bit
            if cand in independent or cand in found:
                continue
            if all((cand & ~(1 << f)) in independent for f in bits_of(cand)):
                found.add(cand)
    return sorted(found)


def _require_cap(rep: RegularMatroidRep, cap: int):
    if rep.element_count > cap:
        raise CapExceededError(
            f"{rep.element_count} elements exceeds the enumeration cap {cap}"
        )


def enumerate_signed_circuits(
    rep: RegularMatroidRep, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[SignedSupportVector, ...]:
    """One canonical representative per +- pair of signed circuits."""
    _require_cap(rep, cap)
    return rep._circuits


def enumerate_signed_cocircuits(
    rep: RegularMatroidRep, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[SignedSupportVector, ...]:
    """One canonical representative per +- pair of signed cocircuits."""
    _require_cap(rep, cap)
    return rep._cocircuits


def enumerate_bases(
    rep: RegularMatroidRep, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[Basis, ...]:
    _require_cap(rep, cap)
    return tuple(Basis(frozenset(bits_of(m))) for m in rep._basis_masks)


def enumerate_independent_sets(
    rep: RegularMatroidRep, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[frozenset[int], ...]:
    _require_cap(rep, cap)
    return tuple(frozenset(bits_of(m)) for m in sorted(rep._independent_masks))


# ---------------------------------------------------------------------------
# fundamental circuits / cocircuits

def _basis_tableau(rep: RegularMatroidRep, basis: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of A_b^{-1} A, computed with the +-1 pivots a TU matrix guarantees."""
    cached = rep._tableaus.get(basis)
    if cached is not None:
        return cached
    cols = sorted(basis)
    work = [list(row) for row in rep.matrix]
    for i, col in enumerate(cols):
        pivot = next((k for k in range(i, rep.rank) if work[k][col]), None)
        if pivot is None:
            raise InputError("basis columns are dependent")
        work[i], work[pivot] = work[pivot], work[i]
        if abs(work[i][col]) != 1:
            raise InputError("matrix is not totally unimodular")
        if work[i][col] == -1:
            work[i] = [-x for x in work[i]]
        for k in range(rep.rank):
            f = work[k][col]
            if k != i and f:
                work[k] = [a - f * b for a, b in zip(work[k], work[i])]
    tableau = tuple(tuple(row) for row in work)
    rep._tableaus[basis] = tableau
    return tableau


def fundamental_circuit(
    rep: RegularMatroidRep, basis: Basis, element: int, forward: bool = True
) -> SignedSupportVector:
    """The unique signed circuit inside basis + element, oriented at element."""
    if element in basis.elements:
        raise InputError("fundamental circuits need an element outside the basis")
    tableau = _basis_tableau(rep, basis.elements)
    entries = [0] * rep.element_count
    entries[element] = 1
    for i, b in enumerate(sorted(basis.elements)):
        coeff = tableau[i][element]
        if abs(coeff) > 1:
            raise InputError("matrix is not totally unimodular")
        entries[b] = -coeff
    if not forward:
        entries = [-x for x in entries]
    return SignedSupportVector(tuple(entries), "kernel")


def fundamental_cocircuit(
    rep: RegularMatroidRep, basis: Basis, element: int, forward: bool = True
) -> SignedSupportVector:
    """The unique signed cocircuit avoiding basis - element, oriented at element."""
    if element not in basis.elements:
        raise InputError("fundamental cocircuits need an element of the basis")
    tableau = _basis_tableau(rep, basis.elements)
    i = sorted(basis.elements).index(element)
    entries = tableau[i]
    if any(abs(x) > 1 for x in entries):
        raise InputError("matrix is not totally unimodular")
    if not forward:
        entries = tuple(-x for x in entries)
    return SignedSupportVector(tuple(entries), "image")


# ---------------------------------------------------------------------------
# the conforming-search subroutine

def find_conforming_circuit_or_cocircuit(
    rep: RegularMatroidRep,
    partial: PartialOrientation,
    cycle_only: frozenset[int],
    cocycle_only: frozenset[int],
    element: int,
) -> SignedSupportVector:
    """A signed circuit or cocircuit through ``element`` that respects a coloring.

    The ground set is partitioned into the support of ``partial`` plus two
    extra classes: ``cycle_only`` edges may be used by circuits in either
    direction but by no cocircuit, and ``cocycle_only`` edges dually.  The
    result contains ``element``, agrees with ``partial`` on every shared
    element, and avoids its forbidden class; one of the two kinds always
    exists.
    """
    n = rep.element_count
    supp = partial.support
    if element not in supp:
        raise InputError("the pivot element must carry a direction")
    if cycle_only & cocycle_only or (supp | cycle_only | cocycle_only) != frozenset(range(n)) \
            or supp & (cycle_only | cocycle_only):
        raise InputError("the three edge classes must partition the ground set")
    if rep.graph is not None:
        return _graph_conforming_search(rep, partial, cycle_only, cocycle_only, element)
    return _matroid_conforming_search(rep, partial, cycle_only, cocycle_only, element)


def _matroid_conforming_search(rep, partial, cycle_only, cocycle_only, element):
    fwd, bwd = partial.forward_mask, partial.backward_mask
    bit = 1 << element
    ed_mask = mask_of(cocycle_only)
    ec_mask = mask_of(cycle_only)
    for pool, forbidden in ((rep._circuits, ed_mask), (rep._cocircuits, ec_mask)):
        for vec in pool:
            for cand in (vec, -vec):
                full = cand.pos_mask | cand.neg_mask
                if not full & bit:
                    continue
                if full & forbidden:
                    continue
                if (cand.pos_mask & bwd) or (cand.neg_mask & fwd):
                    continue
                return cand
    raise InvariantViolationError("no conforming circuit or cocircuit found")


def _graph_conforming_search(rep, partial, cycle_only, cocycle_only, element):
    g = rep.graph
    n = rep.element_count
    direction = partial.mapping[element]
    tail, head = g.edges[element]
    if not direction:
        tail, head = head, tail
    sign = 1 if direction else -1
    if tail == head:
        entries = [0] * n
        entries[element] = sign
        return SignedSupportVector(tuple(entries), "kernel")

    # reachability from the head, along partial arcs and both ways on
    # cycle_only edges
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(g.vertex_count)]
    for j, (t, h) in enumerate(g.edges):
        if t == h:
            continue
        if j in partial.support:
            if partial.mapping[j]:
                adjacency[t].append((h, j, 1))
            else:
                adjacency[h].append((t, j, -1))
        elif j in cycle_only:
            adjacency[t].append((h, j, 1))
            adjacency[h].append((t, j, -1))
    parent: dict[int, tuple[int, int, int] | None] = {head: None}
    queue = [head]
    while queue:
        v = queue.pop()
        for target, j, s in adjacency[v]:
            if target not in parent:
                parent[target] = (v, j, s)
                queue.append(target)

    if tail in parent:
        entries = [0] * n
        entries[element] = sign
        v = tail
        while v != head:
            prev, j, s = parent[v]
            entries[j] = s
            v = prev
        vec = SignedSupportVector(tuple(entries), "kernel")
        if not rep.in_kernel(vec.entries):
            raise InvariantViolationError("reconstructed cycle is not in the kernel")
        return vec

    # cocircuit case: extract the minimal directed cut through the element
    reached = set(parent)
    k_side = _component(g, head, lambda v: v in reached)
    l_side = _component(g, tail, lambda v: v not in k_side)
    entries = [0] * n
    for j, (t, h) in enumerate(g.edges):
        if h in k_side and t in l_side:
            entries[j] = 1
        elif t in k_side and h in l_side:
            entries[j] = -1
    vec = SignedSupportVector(tuple(entries), "image")
    if not rep.in_row_space(vec.entries):
        raise InvariantViolationError("reconstructed cut is not in the row space")
    return vec


def _component(g: Graph, start: int, allowed) -> set[int]:
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for t, h in g.edges:
            if t == v and allowed(h) and h not in seen:
                seen.add(h)
                queue.append(h)
            elif h == v and allowed(t) and t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


# ---------------------------------------------------------------------------
# conformal decomposition and the orthogonal split

def conformal_decompose(
    rep: RegularMatroidRep, vec: SignedSupportVector
) -> tuple[SignedSupportVector, ...]:
    """Write a {0,+-1} kernel (image) vector as disjoint conforming circuits
    (cocircuits).

    Every returned piece has support inside the input's, matches its signs,
    and the pieces sum to the input exactly.
    """
    if vec.side not in ("kernel", "image"):
        raise InputError("vector must be tagged kernel or image")
    if not vec.is_sign_vector():
        raise InputError("conformal decomposition needs a {0,+-1} vector")
    member = rep.in_kernel if vec.side == "kernel" else rep.in_row_space
    if not member(vec.entries):
        raise InputError(f"vector is not in the declared {vec.side} subspace")

    n = rep.element_count
    pieces = []
    current = list(vec.entries)
    while any(current):
        support = frozenset(j for j, x in enumerate(current) if x)
        partial = PartialOrientation.from_mapping(
            {j: current[j] > 0 for j in support}
        )
        rest = frozenset(range(n)) - support
        if vec.side == "kernel":
            piece = find_conforming_circuit_or_cocircuit(
                rep, partial, frozenset(), rest, min(support)
            )
        else:
            piece = find_conforming_circuit_or_cocircuit(
                rep, partial, rest, frozenset(), min(support)
            )
        if piece.side != vec.side:
            raise InvariantViolationError("conforming search returned the wrong side")
        for j, x in enumerate(piece.entries):
            current[j] -= x
        if any(abs(x) > 1 for x in current):
            raise InvariantViolationError("piece does not conform to the vector")
        pieces.append(piece)
    return tuple(pieces)


def closure_mask_partition(rep: RegularMatroidRep, kind: str) -> tuple[tuple[int, ...], ...]:
    """Reversal classes by breadth-first closure over single reversal moves.

    Signature-free: the only moves are "reverse one directed circuit" and/or
    "reverse one directed cocircuit".  Returns sorted tuples of orientation
    masks, cached per rep and kind.
    """
    cached = rep._closure_cache.get(kind)
    if cached is not None:
        return cached
    moves: list[tuple[int, int]] = []
    pools = {
        "cycle": (rep._circuits,),
        "cocycle": (rep._cocircuits,),
        "cycle-cocycle": (rep._circuits, rep._cocircuits),
    }
    if kind not in pools:
        raise InputError(f"unknown reversal kind {kind!r}")
    for pool in pools[kind]:
        for vec in pool:
            moves.append((vec.pos_mask, vec.neg_mask))
            moves.append((vec.neg_mask, vec.pos_mask))
    total = 1 << rep.element_count
    seen = [False] * total
    classes = []
    for start in range(total):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        queue = [start]
        while queue:
            m = queue.pop()
            for pos, neg in moves:
                if (pos & ~m) == 0 and (neg & m) == 0:
                    nxt = (m & ~pos) | neg
                    if not seen[nxt]:
                        seen[nxt] = True
                        members.append(nxt)
                        queue.append(nxt)
        classes.append(tuple(sorted(members)))
    result = tuple(sorted(classes, key=lambda c: c[0]))
    rep._closure_cache[kind] = result
    return result


def split_kernel_image(
    rep: RegularMatroidRep, d: Sequence[int]
) -> tuple[SignedSupportVector, SignedSupportVector]:
    """Orthogonal split d = c + c* with c in ker(A) and c* in the row space.

    Computed by exact rational projection onto the row space.  Raises
    NotSameClassError when the split is not integral, which is exactly the
    case where d is not a difference of same-class orientations.
    """
    d = [int(x) for x in d]
    if len(d) != rep.element_count:
        raise InputError("vector length disagrees with the ground set")
    matrix, t = rep._projection
    nums = [sum(row[j] * d[j] for j in range(rep.element_count)) for row in matrix]
    if any(x % t for x in nums):
        raise NotSameClassError("kernel/image split is not integral")
    cstar = [x // t for x in nums]
    c = [a - b for a, b in zip(d, cstar)]
    return (
        SignedSupportVector(tuple(c), "kernel"),
        SignedSupportVector(tuple(cstar), "image"),
    )
