"""Graphs, totally unimodular representations, and signed circuit machinery.

Conventions used throughout the package:

* Edges/elements are indexed 0..n-1.  An orientation is a point of {0,1}^E;
  coordinate 1 means "agrees with the reference arc".  The reference
  orientation itself is (1, 1, ..., 1).  An ``Orientation`` is stored as its
  mask and its length; its signs are derived from the mask.
* A signed circuit is a {0,+1,-1} vector of support-minimal kernel type for
  the representation matrix; a signed cocircuit is the row-space analogue.
  On graphs these are exactly the directed cycles and directed minimal cuts.
* All arithmetic is exact and integral; ``_gauss_jordan`` is the one
  elimination.  Bit masks over the element set are used in inner loops;
  bit j of a mask is element j.
* The bases are found by one breadth-first walk over the basis exchange
  graph (``_tableau_pass``), each tableau one pivot from its parent's;
  circuits and cocircuits are read off the tableaux on the way.  Every
  pivot must be +-1, which proves every basis determinant +-1: the walk is
  the load's unimodularity check.  The independent and spanning sets are
  the down- and up-closures of the bases, one bit-parallel pass per element.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import index, mul
from typing import Iterable, Literal, Mapping, Sequence

from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    NotSameClassError,
    TrivialGraphError,
)

DEFAULT_ELEMENT_CAP = 16
DEFAULT_TU_CAP = 12
# entries each bounded cache keeps, least recently used evicted first; two serve
# a caller that alternates two pairs, such as a graph rep and its matrix twin
CACHE_SIZE = 2
# square minors is_totally_unimodular may visit: C(r + n, r) - 1 for r x n
TU_MINOR_CAP = 10 ** 6

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
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def orientations_with_bit(n: int) -> list[int]:
    """Entry e: the orientations whose bit e is set, as a 2^n-bit set (bit m is mask m).

    Runs of 2^e zeros and then 2^e ones: one such pair, doubled up to 2^n
    bits by shifts (a big-int division would cost more than all of them).
    """
    out = []
    for e in range(n):
        bits = ((1 << (1 << e)) - 1) << (1 << e)
        for k in range(e + 1, n):
            bits |= bits << (1 << k)
        out.append(bits)
    return out


def _element_sets(values: Sequence[int], n: int) -> list[int]:
    """Entry e: the indices m with bit e of values[m] set, as a len(values)-bit set."""
    if max(values, default=0) >> n:
        raise InvariantViolationError("an image lies outside the ground set")
    text = "".join([format(v, f"0{n}b") for v in reversed(values)])  # "" for no values
    return [int(text[n - 1 - e::n] or "0", 2) for e in range(n)]


def _bit_bytes(bits: int, total: int) -> bytes:
    """A 2^n-bit set as total = 2^n bytes, byte m being bit m: read in O(1) by index."""
    return format(bits, f"0{total}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints; a float, even 1.0, or a fraction is refused, never truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InputError(f"{what} entries must be integers") from None


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Graph:
    """A connected multigraph with a reference orientation.

    ``edges[j] = (tail, head)`` fixes the reference arc of edge j.  Loops
    (tail == head) and parallel edges are allowed.  The vertex count and the
    endpoints are read as integers and stored as ints and tuples.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        (count,) = _integers((self.vertex_count,), "vertex count")
        edges = tuple(_integers(edge, "edge endpoint") for edge in self.edges)
        if any(len(edge) != 2 for edge in edges):
            raise InputError("an edge must be a (tail, head) pair")
        object.__setattr__(self, "vertex_count", count)
        object.__setattr__(self, "edges", edges)
        if self.vertex_count < 1:
            raise InputError("a graph needs at least one vertex")
        for tail, head in self.edges:
            if not (0 <= tail < self.vertex_count and 0 <= head < self.vertex_count):
                raise InputError(f"edge endpoint out of range: {(tail, head)}")
        # fewer than vertex_count - 1 edges cannot connect; refuse before the union-find
        if self.vertex_count > len(self.edges) + 1 or not self._connected():
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


@dataclass(frozen=True, slots=True, init=False)
class Orientation:
    """An orientation of ``size`` elements, stored as its mask (bit j: j agrees)."""

    mask: int
    size: int

    def __init__(self, signs: Iterable[bool]):
        signs = tuple(signs)
        object.__setattr__(self, "mask", mask_of(j for j, s in enumerate(signs) if s))
        object.__setattr__(self, "size", len(signs))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Orientation":
        """The orientation of n elements given by mask; a mask outside [0, 2^n) is refused."""
        if mask < 0 or mask >> n:
            raise InputError("orientation mask lies outside the ground set")
        o = object.__new__(cls)
        object.__setattr__(o, "mask", mask)
        object.__setattr__(o, "size", n)
        return o

    @classmethod
    def reference(cls, n: int) -> "Orientation":
        return cls.from_mask(n, (1 << n) - 1)

    @property
    def signs(self) -> tuple[bool, ...]:
        return tuple(bool(self.mask >> j & 1) for j in range(self.size))

    def vector(self) -> tuple[int, ...]:
        return tuple(self.mask >> j & 1 for j in range(self.size))

    def __len__(self) -> int:
        return self.size


def _orientation_mask(o: Orientation | int, n: int) -> int:
    """The mask of o over n elements; another length, or a mask outside [0, 2^n), is refused."""
    if isinstance(o, int):
        if o < 0 or o >> n:
            raise InputError("orientation mask lies outside the ground set")
        return o
    if len(o) != n:
        raise InputError("orientation length disagrees with the ground set")
    return o.mask


@dataclass(frozen=True)
class PartialOrientation:
    """Directions for a subset of the ground set."""

    items: tuple[tuple[int, bool], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, bool]) -> "PartialOrientation":
        elements = _integers(mapping, "partial orientation")
        if min(elements, default=0) < 0:
            raise InputError("fixed element outside the ground set")
        return cls(tuple(sorted(zip(elements, map(bool, mapping.values())))))

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
    the vertex structure around for what only a graph has (Tutte counts, DOT
    output) and lets the load skip the unimodularity check; every matroid
    computation reads the matrix alone, so results never depend on it.
    """

    matrix: tuple[tuple[int, ...], ...]
    element_count: int
    rank: int
    graph: Graph | None = field(default=None, compare=False, repr=False)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash of the compared fields, which never change
        return hash((self.matrix, self.element_count, self.rank))

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], *, element_count: int | None = None,
        graph: Graph | None = None,
    ) -> "RegularMatroidRep":
        rows = tuple(tuple(row) for row in rows)
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
        if any(x not in _UNIT for row in rows for x in row):
            raise InputError("matrix entries must be 0 or +-1")
        # 1.0 and Fraction(1) pass the test above by value; they are refused here
        rep = cls(matrix=tuple(_integers(row, "matrix") for row in rows),
                  element_count=n, rank=len(rows), graph=graph)
        if len(rep._elimination[1]) != rep.rank:
            raise InputError("matrix must have full row rank")
        if n <= DEFAULT_ELEMENT_CAP and graph is None:
            # the walk over the bases checks unimodularity (larger matrices: see
            # _require_cap); an incidence matrix always passes
            rep._tableau_pass
        return rep

    # -- cached structure ---------------------------------------------------

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row[j] for row in self.matrix) for j in range(self.element_count))

    @cached_property
    def _elimination(self) -> tuple[list[list[int]], list[int], int]:
        """``_gauss_jordan`` of A, run once: the load's rank check and the first tableau."""
        return _gauss_jordan(self.matrix, self.element_count)

    @cached_property
    def _first_tableau(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The first basis (A's pivot columns) and A's tableau [I | D] on it.

        The elimination gives d times the tableau, with |d| the first basis
        determinant; entries are ratios of basis determinants (Cramer), so
        d is +-1 and every entry +-1 or 0 if A is unimodular.
        """
        rows, pivots, d = self._elimination
        if abs(d) != 1 or not _UNIT.issuperset(x for row in rows for x in row):
            raise InputError("matrix is not totally unimodular")
        return tuple(pivots), tuple(tuple(d * x for x in row) for row in rows)

    @cached_property
    def kernel_basis(self) -> tuple[tuple[int, ...], ...]:
        """Integer rows spanning ker(A); empty when the columns are independent.

        The rows are the fundamental circuits of the first basis, one per
        element outside it, read off the first tableau.
        """
        pivots, tableau = self._first_tableau
        return tuple(
            tuple(_circuit_entries(tableau, pivots, e, self.element_count))
            for e in range(self.element_count) if e not in pivots
        )

    def _closure(self, up: bool) -> bytes:
        """Byte s is 1 when s spans (up) or is independent (down), by one 2^n-bit
        set: element by element, each set lacking (holding) e is added with (without) it."""
        bits = sum(1 << b for b in self._basis_masks)
        for e, with_e in enumerate(orientations_with_bit(self.element_count)):
            bits |= (bits & ~with_e) << (1 << e) if up else (bits & with_e) >> (1 << e)
        return _bit_bytes(bits, 1 << self.element_count)

    @cached_property
    def _independent_masks(self) -> frozenset[int]:
        return frozenset(itertools.compress(itertools.count(), self._closure(False)))

    @cached_property
    def _basis_masks(self) -> tuple[int, ...]:
        return tuple(sorted(self._tableau_pass[2]))

    @cached_property
    def _subset_codes(self) -> bytes:
        """Byte s is 2 [s independent] + [s spanning], the tag code of s's preimage."""
        independent, spanning = (int.from_bytes(self._closure(up), "little")
                                 for up in (False, True))
        # every byte of either is 0 or 1, so no byte of the sum carries
        return (2 * independent + spanning).to_bytes(1 << self.element_count, "little")

    @cached_property
    def _tableau_pass(self) -> tuple[tuple, tuple, set[int]]:
        """(circuits, cocircuits, basis masks), by one walk over the bases.

        The walk is breadth first over the basis exchange graph (connected)
        from the first basis.  Entry (i, e) of a tableau, e off the basis, is
        det(basis - its i-th element + e) / det(basis) (Cramer), and a nonzero
        one leads to that basis by a pivot on it.  Each basis is reached by one
        pivot, refused unless +-1, so every basis determinant is +-1 like the
        first's: the walk is the unimodularity check.

        Every signed circuit (cocircuit) is the fundamental circuit (cocircuit)
        of some element for some basis.  A support keeps its first vector,
        scaled so its lowest entry is +1.  On a basis, e's fundamental cocircuit
        is e's tableau row; off it, e's fundamental circuit is e and column e.
        """
        n = self.element_count
        circuits, cocircuits = {}, {}  # keyed by support
        first, tableau = self._first_tableau
        # popped as visited, so a tableau is kept only until its turn
        walk = deque([(mask_of(first), first, tableau)])
        seen = {walk[0][0]}
        while walk:
            b, elements, tableau = walk.popleft()
            fundamental = [1 << e for e in range(n)]
            for i, (element, row) in enumerate(zip(elements, tableau)):
                support = 0
                for e, x in enumerate(row):
                    if x:
                        support |= 1 << e
                        fundamental[e] |= 1 << element
                        # e = element exchanges b for itself, already seen
                        exchanged = b ^ (1 << element) ^ (1 << e)
                        if exchanged not in seen:
                            seen.add(exchanged)
                            walk.append((exchanged, *_pivot(tableau, elements, i, e)))
                cocircuits.setdefault(support, row)
            for e in range(n):
                if not b >> e & 1 and fundamental[e] not in circuits:
                    circuits[fundamental[e]] = _circuit_entries(tableau, elements, e, n)
        for entries in cocircuits.values():
            if any(sum(a * b for a, b in zip(row, entries)) for row in self.kernel_basis):
                raise InvariantViolationError("cocircuit not orthogonal to the kernel")

        def vectors(found, side):
            out = []
            for s in sorted(found, key=bits_of):
                # the lowest entry is +-1, so scaling by it turns the vector
                lowest = found[s][(s & -s).bit_length() - 1]
                out.append(SignedSupportVector(tuple(lowest * x for x in found[s]), side))
            return tuple(out)

        return vectors(circuits, "kernel"), vectors(cocircuits, "image"), seen

    _circuits = property(lambda self: self._tableau_pass[0])
    _cocircuits = property(lambda self: self._tableau_pass[1])

    @cached_property
    def _projection(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer matrix N and scale t with row-space projection = N/t.

        t = det(G) for the Gram matrix G = A A^T, and N = A^T adj(G) A.
        ``_gauss_jordan`` over the G columns of [G | A] ends with t I on the
        left and adj(G) A on the right.
        """
        n = self.element_count
        if self.rank == 0:
            return tuple((0,) * n for _ in range(n)), 1
        r = self.rank
        rows, pivots, t = _gauss_jordan(_gram_and_matrix(self.matrix), r)
        # A has full row rank, so G is positive definite: full rank and det(G) > 0
        if pivots != list(range(r)) or t <= 0:
            raise InvariantViolationError("Gram determinant must be positive")
        half = [row[r:] for row in rows]
        out = tuple(
            tuple(sum(self.matrix[k][i] * half[k][j] for k in range(r)) for j in range(n))
            for i in range(n)
        )
        return out, t

    @cached_property
    def _packed_projection(self) -> tuple[tuple[int, ...], int, int, int]:
        """N packed by ``_packed_columns``, for the table build's 2^n sums and
        the half tables (``_projection_halves``) that ``_packed_sum`` reads.

        Field j is row j of N, the element j.  Returns (columns, t, width, bias).
        """
        rows, t = self._projection
        columns, width, bias = _packed_columns(rows, self.element_count)
        return columns, t, width, bias

    @cached_property
    def _projection_halves(self) -> tuple[int, int, list[int], list[int]]:
        """``_half_sums`` of the packed columns of N, the bias in the low table."""
        columns, _, _, bias = self._packed_projection
        return _half_sums(columns, bias)

    @cached_property
    def _class_halves(self) -> tuple[tuple[tuple[int, int, list[int], list[int]], int], ...]:
        """(``_half_sums`` of the row, d) per row of R, read by ``_class_key`` for
        one mask and by ``_class_keys`` for all."""
        return tuple((_half_sums(row), d) for row, d in zip(*self._class_rows))

    @cached_property
    def _class_rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(R, d): o and o' share a joint reversal class exactly when R o = R o' mod d.

        Joint classes are the cosets of ker(A) + row(A) over the integers.  A
        maps Z^n onto Z^r (it has a unimodular basis) and row(A) onto G Z^r,
        G = A A^T, so they are the cosets of the Jacobian group Z^r / G Z^r.
        Row and column operations on [G | A] (column ones on G only) bring G
        to its Smith form U G V = diag(d_i); R is the rows of U A with
        |d_i| > 1, reduced mod d = those |d_i|, whose product is det G = t.
        """
        r = self.rank
        work = _gram_and_matrix(self.matrix)
        for k in range(r):
            while True:
                _, i, j = min((abs(work[i][j]), i, j)
                              for i in range(k, r) for j in range(k, r) if work[i][j])
                work[k], work[i] = work[i], work[k]
                for row in work[k:]:
                    row[k], row[j] = row[j], row[k]
                pivot = work[k]
                for i in range(k + 1, r):
                    q = work[i][k] // pivot[k]
                    work[i] = [a - q * b for a, b in zip(work[i], pivot)]
                for j in range(k + 1, r):
                    q = pivot[j] // pivot[k]
                    for row in work[k:]:
                        row[j] -= q * row[k]
                # a remainder in row k, or a row below with an entry the pivot
                # does not divide (added to row k), leaves a smaller next pivot
                if any(pivot[k + 1:r]):
                    continue
                rest = next((row for row in work[k + 1:]
                             if any(x % pivot[k] for x in row[k:r])), None)
                if rest is None:
                    break
                work[k] = [a + b for a, b in zip(pivot, rest)]
        moduli = [abs(row[k]) for k, row in enumerate(work)]
        return (tuple(tuple(x % d for x in row[r:]) for row, d in zip(work, moduli) if d > 1),
                tuple(d for d in moduli if d > 1))

    # -- membership helpers ---------------------------------------------------

    def in_kernel(self, entries: Sequence[int]) -> bool:
        return not any(sum(a * b for a, b in zip(row, entries)) for row in self.matrix)

    def in_row_space(self, entries: Sequence[int]) -> bool:
        return not any(sum(a * b for a, b in zip(row, entries)) for row in self.kernel_basis)

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
    """Exhaustively check that every square minor lies in {0, +1, -1}.

    Refused (CapExceededError) when min(r, n) exceeds ``cap`` or the square
    minors number more than TU_MINOR_CAP.
    """
    rows = [_integers(row, "matrix") for row in matrix]
    r, n = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise InputError("ragged matrix")
    if min(r, n) > cap:
        raise CapExceededError(f"minor check needs min(r, n) <= {cap}")
    # sum over k of C(r, k) * C(n, k) square minors, by Vandermonde
    minors = math.comb(r + n, r) - 1
    if minors > TU_MINOR_CAP:
        raise CapExceededError(
            f"minor check visits {minors} square minors, more than {TU_MINOR_CAP}"
        )
    return _minors_are_unit(rows)


def _minors_are_unit(rows: Sequence[Sequence[int]]) -> bool:
    """Whether every square minor of the matrix, entries included, lies in {0, +1, -1}.

    Each k-minor is expanded along its first row over the (k-1)-minors of the
    rows below it, all computed (and checked) one level earlier.  Minors are
    keyed by their row mask shifted past the columns, or-ed with the column
    mask; only the nonzero ones are kept, so a missing key reads as 0.
    """
    r = len(rows)
    n = len(rows[0]) if rows else 0
    previous = {0: 1}
    for k in range(1, min(r, n) + 1):
        current = {}
        for rsub in itertools.combinations(range(r), k):
            top = rows[rsub[0]]
            below = mask_of(rsub[1:]) << n
            key = below | 1 << (rsub[0] + n)
            for csub in itertools.combinations(range(n), k):
                cmask = mask_of(csub)
                det = 0
                sign = 1
                for j in csub:
                    if top[j]:
                        det += sign * top[j] * previous.get(below | cmask ^ 1 << j, 0)
                    sign = -sign
                if det:
                    if abs(det) > 1:
                        return False
                    current[key | cmask] = det
        previous = current
    return True


def _gram_and_matrix(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of [G | A], G = A A^T the Gram matrix of the rows of A."""
    return [[sum(a * b for a, b in zip(ri, rj)) for rj in matrix] + list(ri) for ri in matrix]


def _gauss_jordan(
    rows: Iterable[Sequence[int]], width: int
) -> tuple[list[list[int]], list[int], int]:
    """Integer-preserving (Bareiss) Gauss-Jordan elimination over the first ``width`` columns.

    Returns (rows, pivots, d): the nonzero rows in pivot order, each with d on
    its own pivot column and 0 on the others, so rows / d is the reduced row
    echelon form.  |d| is the determinant of the pivot columns on the rows
    picked as pivots (all rows, if they are independent).  Every entry formed
    is a minor of the input, so each division is exact (Sylvester's identity);
    zero columns are skipped and a zero pivot costs one row swap.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    d = 1
    for col in range(width):
        k = len(pivots)
        if k == len(work):
            break
        swap = next((i for i in range(k, len(work)) if work[i][col]), None)
        if swap is None:
            continue
        work[k], work[swap] = work[swap], work[k]
        pivot_row = work[k]
        pivot = pivot_row[col]
        for i, row in enumerate(work):
            if i != k:
                f = row[col]
                work[i] = [(pivot * x - f * y) // d for x, y in zip(row, pivot_row)]
        d = pivot
        pivots.append(col)
    return work[:len(pivots)], pivots, d


# ---------------------------------------------------------------------------
# enumeration

def _require_cap(rep: RegularMatroidRep, cap: int):
    """Refuse past the element cap; past the default cap, walk a matrix's bases (the TU check)."""
    if rep.element_count > cap:
        raise CapExceededError(
            f"{rep.element_count} elements exceeds the enumeration cap {cap}"
        )
    if rep.element_count > DEFAULT_ELEMENT_CAP and rep.graph is None:
        rep._tableau_pass


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

_NOT_A_BASIS = "the set is not a basis of the matrix"
_UNIT = frozenset((-1, 0, 1))


def _basis_mask(basis: Basis) -> int:
    """The mask of basis; a negative element is refused (larger ones fail as non-bases)."""
    if min(basis.elements, default=0) < 0:
        raise InputError(_NOT_A_BASIS)
    return basis.mask


def _pivot(tableau, elements: Sequence[int], i: int, e: int) -> tuple[tuple, tuple]:
    """(elements, tableau) of the basis less elements[i] plus e, pivoted on entry (i, e),
    which must be +-1; rows stay by increasing element, those 0 at e as they are."""
    x = tableau[i][e]
    if abs(x) != 1:
        raise InputError("matrix is not totally unimodular")
    top = tuple(x * a for a in tableau[i])  # 1 / x = x
    rows = [(b, tuple(a - row[e] * c for a, c in zip(row, top)) if row[e] else row)
            for b, row in zip(elements, tableau) if b != elements[i]]
    # the elements differ, so sorting never compares two rows
    rows = sorted(rows + [(e, top)])
    return tuple(b for b, _ in rows), tuple(row for _, row in rows)


def _basis_tableau(rep: RegularMatroidRep, basis: int) -> tuple[tuple[int, ...], ...]:
    """Rows of A_b^{-1} A for the basis mask b, by increasing element; a non-basis is refused.

    Pivoted from the first tableau, one element of b at a time; an entry
    other than 0 or +-1 is refused.
    """
    if basis >> rep.element_count or basis.bit_count() != rep.rank:
        raise InputError(_NOT_A_BASIS)
    elements, tableau = rep._first_tableau
    for e in bits_of(basis & ~mask_of(elements)):
        # a row of an element outside b, nonzero at e; with none, b is dependent
        i = next((i for i, x in enumerate(elements) if not basis >> x & 1 and tableau[i][e]), None)
        if i is None:
            raise InputError(_NOT_A_BASIS)
        elements, tableau = _pivot(tableau, elements, i, e)
    if not _UNIT.issuperset(x for row in tableau for x in row):
        raise InputError("matrix is not totally unimodular")
    return tableau


def _circuit_entries(tableau, basis: Sequence[int], element: int, n: int) -> list[int]:
    """The fundamental circuit of element off the basis (listed in row order), +1 at element."""
    entries = [0] * n
    entries[element] = 1
    for b, row in zip(basis, tableau):
        entries[b] = -row[element]
    return entries


def fundamental_circuit(
    rep: RegularMatroidRep, basis: Basis, element: int, forward: bool = True
) -> SignedSupportVector:
    """The unique signed circuit inside basis + element, oriented at element."""
    tableau = _basis_tableau(rep, _basis_mask(basis))
    if not 0 <= element < rep.element_count:
        raise InputError("element outside the ground set")
    if element in basis.elements:
        raise InputError("fundamental circuits need an element outside the basis")
    entries = _circuit_entries(tableau, bits_of(basis.mask), element, rep.element_count)
    if not forward:
        entries = [-x for x in entries]
    return SignedSupportVector(tuple(entries), "kernel")


def fundamental_cocircuit(
    rep: RegularMatroidRep, basis: Basis, element: int, forward: bool = True
) -> SignedSupportVector:
    """The unique signed cocircuit avoiding basis - element, oriented at element."""
    tableau = _basis_tableau(rep, _basis_mask(basis))
    if element not in basis.elements:
        raise InputError("fundamental cocircuits need an element of the basis")
    entries = tableau[bits_of(basis.mask).index(element)]
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

    Scans the signed circuits, then the cocircuits, both ways round, and
    returns the first match; a graph rep and its matrix twin agree.
    """
    n = rep.element_count
    supp = partial.support
    if element not in supp:
        raise InputError("the pivot element must carry a direction")
    if cycle_only & cocycle_only or (supp | cycle_only | cocycle_only) != frozenset(range(n)) \
            or supp & (cycle_only | cocycle_only):
        raise InputError("the three edge classes must partition the ground set")
    fwd, bwd = partial.forward_mask, partial.backward_mask
    bit = 1 << element
    ed_mask = mask_of(cocycle_only)
    ec_mask = mask_of(cycle_only)
    for pool, forbidden in ((rep._circuits, ed_mask), (rep._cocircuits, ec_mask)):
        for vec in pool:
            pos, neg = vec.pos_mask, vec.neg_mask
            if not (pos | neg) & bit or (pos | neg) & forbidden:
                continue
            # vec first, then -vec with the masks swapped; only a match is negated
            if not (pos & bwd or neg & fwd):
                return vec
            if not (neg & bwd or pos & fwd):
                return -vec
    raise InvariantViolationError("no conforming circuit or cocircuit found")


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
    """Reversal classes as the components of the single-reversal move graph.

    The class oracle's alone (kept in core for the benchmark's tracer); the only
    moves are "reverse one directed circuit" and/or "reverse one directed
    cocircuit".  For each signed support, the orientations in which it is
    directed along its signs are one AND of per-element 2^n-bit sets; each
    such m is joined with m ^ support, the orientation in which it is directed
    the other way round.  One flat list serves as the union-find, whose roots
    are least members; one pass then groups each mask under its root.
    Nothing here reads the linear class keys or the matrix.  Returns sorted
    tuples of orientation masks, by least member.
    """
    pools = {
        "cycle": (rep._circuits,),
        "cocycle": (rep._cocircuits,),
        "cycle-cocycle": (rep._circuits, rep._cocircuits),
    }
    if kind not in pools:
        raise InputError(f"unknown reversal kind {kind!r}")
    n = rep.element_count
    total = 1 << n
    forward = orientations_with_bit(n)
    parent = list(range(total))
    for pool in pools[kind]:
        for vec in pool:
            directed = (1 << total) - 1
            for e in bits_of(vec.pos_mask):
                directed &= forward[e]
            for e in bits_of(vec.neg_mask):
                directed &= ~forward[e]
            support = vec.pos_mask | vec.neg_mask
            bits = format(directed, "b")[::-1]  # character m is bit m
            m = bits.find("1")
            while m >= 0:
                # path halving keeps every parent at or below its child
                a = m
                while (p := parent[a]) != a:
                    parent[a] = a = parent[p]
                b = m ^ support
                while (p := parent[b]) != b:
                    parent[b] = b = parent[p]
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
                m = bits.find("1", m + 1)
    # every parent lies at or below its child, so in increasing order one
    # step reaches the root, the least member of the class
    groups: dict[int, list[int]] = {}
    for m in range(total):
        parent[m] = root = parent[parent[m]]
        groups.setdefault(root, []).append(m)
    return tuple(tuple(members) for members in groups.values())


def _class_key(rep: RegularMatroidRep, mask: int) -> int:
    """R o mod d, the joint reversal class of orientation o (see ``_class_rows``),
    as the mixed-radix int that ``_class_keys`` gives mask o.

    Up to the element cap, two lookups per row in ``rep._class_halves`` give
    that row's sum.  Past it, where the key serves only ``same_class`` and
    ``compatible_decomposition`` and the tables would hold 2^(n/2) entries
    each, R o is summed over o's elements.
    """
    if rep.element_count > DEFAULT_ELEMENT_CAP:
        rows, moduli = rep._class_rows
        elements = bits_of(mask)
        sums = [(sum(row[j] for j in elements), d) for row, d in zip(rows, moduli)]
    else:
        sums = [(low[mask & low_mask] + high[mask >> h], d)
                for (low_mask, h, low, high), d in rep._class_halves]
    key = 0
    for x, d in sums:
        key = key * d + x % d
    return key


def _class_keys(rep: RegularMatroidRep) -> list[int]:
    """``_class_key`` of every orientation mask, folded from the same half tables."""
    keys = [0] * (1 << rep.element_count)
    for (_, _, low, high), d in rep._class_halves:
        # in mask order: the high half's sums outer, the low half's inner
        sums = [x + y for y in high for x in low]
        keys = [key * d + x % d for key, x in zip(keys, sums)]
    return keys


def _packed_sum(rep: RegularMatroidRep, mask: int) -> int:
    """bias + N o, packed: ``_subset_sums(columns, bias)[mask]`` for one mask.

    Two lookups in ``rep._projection_halves``, without the 2^n list.
    """
    low_mask, h, low, high = rep._projection_halves
    return low[mask & low_mask] + high[mask >> h]


def _packed_columns(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], int, int]:
    """The n columns of an integer matrix packed into ints: (columns, width, bias).

    Column k holds one signed field of ``width`` bits per row, field j being
    rows[j][k].  A field of a signed sum of distinct columns is at most its
    row's absolute sum, which ``width`` leaves room for, so after adding
    ``bias`` (2^(width-1) in every field) no field of such a sum borrows from
    the next: ``_subset_sums(columns, bias)[m]`` holds bias + M o field by field.
    """
    width = max((sum(map(abs, row)) for row in rows), default=0).bit_length() + 1
    columns = tuple(sum(row[k] << (width * j) for j, row in enumerate(rows)) for k in range(n))
    bias = sum(1 << (width * j + width - 1) for j in range(len(rows)))
    return columns, width, bias


def _half_sums(columns: Sequence[int], start: int = 0) -> tuple[int, int, list[int], list[int]]:
    """(low_mask, h, low, high): ``_subset_sums(columns, start)[m]`` is
    low[m & low_mask] + high[m >> h].

    low holds the subset sums of the low h = n // 2 columns plus start, high
    those of the other n - h, so 2^h + 2^(n - h) entries stand for 2^n.
    """
    h = len(columns) // 2
    return (1 << h) - 1, h, _subset_sums(columns[:h], start), _subset_sums(columns[h:])


def _subset_sums(columns: Sequence[int], start: int = 0) -> list[int]:
    """start plus the sum of columns[j] over the bits j of m, for every m < 2^len(columns).

    By doubling: the sums of the masks with top bit j are those of the masks
    below 2^j plus column j.
    """
    sums = [start]
    for column in columns:
        sums += [s + column for s in sums]
    return sums


def split_kernel_image(
    rep: RegularMatroidRep, d: Sequence[int]
) -> tuple[SignedSupportVector, SignedSupportVector]:
    """Orthogonal split d = c + c* with c in ker(A) and c* = N d / t in the row space.

    Raises NotSameClassError when the split is not integral, which is
    exactly the case where d is not a difference of same-class orientations.
    """
    d = _integers(d, "vector")
    if len(d) != rep.element_count:
        raise InputError("vector length disagrees with the ground set")
    rows, t = rep._projection
    nd = [sum(map(mul, row, d)) for row in rows]
    if any(x % t for x in nd):
        raise NotSameClassError("kernel/image split is not integral")
    cstar = tuple(x // t for x in nd)
    c = tuple(x - y for x, y in zip(d, cstar))
    return SignedSupportVector(c, "kernel"), SignedSupportVector(cstar, "image")
