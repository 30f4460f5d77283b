"""Discrete geometry certificates: half-open cells, tilings, and counting.

The unit cube [0,1]^E is identified with the continuous orientations.  A
bijection onto subsets induces half-open cells hoc(O, S): fixed at O off S,
half-open toward O on S.  These tile the cube exactly when the map has the
separation property, and coordinate-wise dilation turns cell counts into
multilinear counting polynomials that must match independent-set counts.

Both parts of the tiling certificate read one index per table, built once
and held in a single slot: for each element e, the 2^n-bit sets (bit m for
orientation m) of the orientations whose bit e is set and of those whose
image contains e, with their complements.

The exact part lists the unseparated orientation pairs from the index, one
pass over the orientations, at most once per table; the list is empty iff
the cells tile the cube.  A point's type (its fractional coordinates and its
0/1 values off them) is a face of the cube, and the cell of (O, S) holds the
faces at O whose directions lie in S, so the cells tile iff the images form
the outmap of a unique-sink orientation; Szabo and Welzl ("Unique sink
orientations of cubes", FOCS 2001) show these outmaps are exactly the
separated maps.

The sampled part locates points bit-parallel: the anchors whose cell holds a
point are the AND of n index sets, "image contains e" on the point's
fractional coordinates and "bit e equals the point's value" off them, and
their number is a popcount.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .bijection import BijectionTable
from .core import (
    DEFAULT_ELEMENT_CAP,
    Orientation,
    RegularMatroidRep,
    _element_sets,
    _integers,
    _orientation_mask,
    _require_cap,
    bits_of,
    mask_of,
    orientations_with_bit,
)
from .errors import CapExceededError, InputError, InvariantViolationError

SAMPLE_DENOMINATORS = (2, 3, 5, 7)
# (d, bit length of d + 1): randint(0, d) draws below d + 1
_DENOMINATOR_DRAWS = tuple((d, (d + 1).bit_length()) for d in SAMPLE_DENOMINATORS)
DEFAULT_RANK_CAP = 3
DEFAULT_BOX_CAP = 2_000_000


@dataclass(frozen=True)
class RationalPoint:
    """An exact point of the unit cube."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if any(x < 0 or x > 1 for x in self.coords):
            raise InputError("point coordinates must lie in [0, 1]")

    @classmethod
    def of(cls, values: Sequence[int | Fraction | str]) -> "RationalPoint":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def fractional_mask(self) -> int:
        return mask_of(j for j, x in enumerate(self.coords) if 0 < x < 1)

    @property
    def integral_one_mask(self) -> int:
        return mask_of(j for j, x in enumerate(self.coords) if x == 1)


@dataclass(frozen=True)
class HalfOpenCell:
    """hoc(O, S): anchored at O, half-open along the elements of S.

    Coordinate e is pinned to O(e) when e is outside S; inside S it ranges
    over (0, 1] when O(e) = 1 and [0, 1) when O(e) = 0.  The anchor is the
    only lattice point.
    """

    anchor: Orientation
    generating_set: frozenset[int]

    @property
    def dimension(self) -> int:
        return len(self.generating_set)


def cell_contains(cell: HalfOpenCell, point: RationalPoint) -> bool:
    if len(point.coords) != len(cell.anchor):
        raise InputError("point dimension disagrees with the cell's anchor")
    for e, x in enumerate(point.coords):
        anchored = cell.anchor.mask >> e & 1
        if e not in cell.generating_set:
            if x != (1 if anchored else 0):
                return False
        elif anchored:
            if not 0 < x <= 1:
                return False
        else:
            if not 0 <= x < 1:
                return False
    return True


def _draw_coordinates(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """n seeded coordinates k/d as pairs (k, d), d drawn from SAMPLE_DENOMINATORS.

    Each draw is ``Random._randbelow``'s rejection loop over ``getrandbits``
    (redraw a k-bit r while r >= bound, k the bound's bit length), so the
    pairs are exactly ``d = rng.choice(SAMPLE_DENOMINATORS)`` then
    ``rng.randint(0, d)``.
    """
    getrandbits = rng.getrandbits
    count = len(SAMPLE_DENOMINATORS)
    width = count.bit_length()
    coords = []
    for _ in range(n):
        i = getrandbits(width)
        while i >= count:
            i = getrandbits(width)
        d, bits = _DENOMINATOR_DRAWS[i]
        k = getrandbits(bits)
        while k > d:
            k = getrandbits(bits)
        coords.append((k, d))
    return coords


def random_rational_point(n: int, rng: random.Random) -> RationalPoint:
    """A seeded point of [0, 1]^n with coordinates k/d, d in SAMPLE_DENOMINATORS.

    Drawn through ``rng.getrandbits``, the same stream ``rng.choice`` and
    ``rng.randint`` would read.
    """
    return RationalPoint(tuple(Fraction(k, d) for k, d in _draw_coordinates(n, rng)))


def _image_mask(table: BijectionTable, mask: int, complement: bool) -> int:
    out = table.forward[mask]
    if complement:
        out ^= (1 << table.rep.element_count) - 1
    return out


class _CellIndex:
    """Per-element sets of one map's orientations, each a 2^n-bit set (bit m is mask m).

    ``bit[e][x]`` holds the orientations whose bit e is x, and ``image[e][x]``
    those whose image contains e (x = 1) or misses it (x = 0).  ``pairs`` is
    the unseparated-pair list, filled in on first use.
    """

    def __init__(self, images: Sequence[int], n: int):
        self.n = n
        self.images = images
        self.full = (1 << len(images)) - 1
        self.bit = [(self.full ^ s, s) for s in orientations_with_bit(n)]
        self.image = [(self.full ^ s, s) for s in _element_sets(images, n)]
        self.pairs: list[tuple[int, int]] | None = None


# The index of the last table seen, with that table and its forward dict: a
# single slot, keyed on identity, so a copied table with a replaced forward
# dict is indexed afresh.  Tables are not mutated once built.
_last_index: tuple = (None, None, None)


def _table_index(table: BijectionTable) -> _CellIndex:
    global _last_index
    held_table, held_forward, index = _last_index
    if held_table is not table or held_forward is not table.forward:
        n = table.rep.element_count
        index = _CellIndex([table.forward[m] for m in range(1 << n)], n)
        _last_index = (table, table.forward, index)
    return index


def _table_pairs(table: BijectionTable) -> list[tuple[int, int]]:
    """The table's unseparated pairs, listed at most once per table."""
    index = _table_index(table)
    if index.pairs is None:
        index.pairs = _index_pairs(index)
    return index.pairs


def _anchors_containing(
    table: BijectionTable, frac_mask: int, ones_mask: int, complement: bool
) -> int:
    """The anchors whose cell contains a point, as a 2^n-bit set.

    The point has fractional coordinates ``frac_mask`` and is 1 on
    ``ones_mask`` and 0 elsewhere.  A cell pins its anchor's coordinates off
    its generating set, and a half-open unit interval holds only its own
    anchor among 0 and 1, so the anchors are an AND of one index set per
    element: the image contains e (misses it, for the complement) when e is
    fractional, and the anchor's bit e equals the point's value otherwise.
    """
    index = _table_index(table)
    hits = index.full
    for e in range(index.n):
        if frac_mask >> e & 1:
            hits &= index.image[e][not complement]
        else:
            hits &= index.bit[e][ones_mask >> e & 1]
    return hits


def locate_point(
    rep: RegularMatroidRep, point: RationalPoint, table: BijectionTable,
    complement: bool = False,
) -> Orientation:
    """The unique orientation whose induced half-open cell contains the point.

    The candidate anchors are one AND of per-element orientation sets from
    the table's index (see ``_anchors_containing``); the single hit is then
    checked against ``cell_contains``.
    """
    n = rep.element_count
    if len(point.coords) != n:
        raise InputError("point dimension disagrees with the ground set")
    if table.rep.element_count != n:
        raise InputError("the table's ground set disagrees with the representation")
    hits = _anchors_containing(
        table, point.fractional_mask, point.integral_one_mask, complement
    )
    count = hits.bit_count()
    if count != 1:
        raise InvariantViolationError(f"point lies in {count} cells; the tiling is broken")
    mask = hits.bit_length() - 1
    anchor = Orientation.from_mask(n, mask)
    cell = HalfOpenCell(anchor, frozenset(bits_of(_image_mask(table, mask, complement))))
    if not cell_contains(cell, point):
        raise InvariantViolationError("candidate filter disagrees with the cell test")
    return anchor


@dataclass(frozen=True)
class TilingReport:
    seed: int
    sample_count: int
    complement: bool
    pair_violations: tuple[tuple[int, int], ...]
    point_violations: tuple[tuple[tuple[str, ...], int], ...]

    @property
    def passed(self) -> bool:
        return not self.pair_violations and not self.point_violations

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.sample_count,
            "complement": self.complement,
            "pair_violations": [list(p) for p in self.pair_violations],
            "point_violations": [
                {"point": list(pt), "cells": cnt} for pt, cnt in self.point_violations
            ],
            "passed": self.passed,
        }


# elements per group of the pair listing; a group's table has 4^width sets
_PAIR_GROUP = 4


def _index_pairs(index: _CellIndex) -> list[tuple[int, int]]:
    """Pairs a < b of the map that ``index`` indexes with no element where
    they disagree and exactly one image contains it.

    Bit-parallel over b, from the per-element sets of the index: b is
    separated from a at e when b's bit e is not a's and b's image differs
    from a's at e.  The elements go in groups of ``_PAIR_GROUP``, and each
    group's union of these sets is tabulated for every value of a's bits
    and its image's bits there, so one orientation costs a union per group.
    """
    groups = []
    for start in range(0, index.n, _PAIR_GROUP):
        width = min(_PAIR_GROUP, index.n - start)
        sets = []
        for key in range(1 << 2 * width):
            separated = 0
            for j in range(width):
                # a's bit e in the high half of the key, its image's in the low half
                x, y = key >> width + j & 1, key >> j & 1
                separated |= index.bit[start + j][1 - x] & index.image[start + j][1 - y]
            sets.append(separated)
        groups.append((start, width, (1 << width) - 1, sets))
    pairs = []
    for a, ia in enumerate(index.images):
        separated = 0
        for start, width, low, sets in groups:
            separated |= sets[(a >> start & low) << width | ia >> start & low]
        later = (index.full ^ separated) >> (a + 1)
        while later:
            low_bit = later & -later
            pairs.append((a, a + low_bit.bit_length()))
            later ^= low_bit
    return pairs


def verify_cube_tiling(
    rep: RegularMatroidRep, table: BijectionTable, sample_count: int, seed: int = 0,
    complement: bool = False,
) -> TilingReport:
    """Certify the half-open tiling of the cube induced by the table.

    Both parts read the table's index: for each element, the 2^n-bit sets of
    orientations with that bit set and of those whose image contains it,
    built once per table.
    Exact part: the orientation pairs that are not separated, which is empty
    iff the cells tile the cube (Szabo-Welzl, see the module docstring).
    Complementing both images leaves the disagreement of two images
    unchanged, so the pairs are the same for the complement; they are listed
    once per table and shared with ``separation_violations``.
    Sampled part: seeded random rational points must each lie in exactly one
    cell.  A point's cells are an AND of n index sets and their number a
    popcount (``_anchors_containing``); points are drawn as integer pairs
    and become Fractions only when reported.
    """
    (sample_count,) = _integers((sample_count,), "sample count")
    if sample_count < 0:
        raise InputError("the sample count must not be negative")
    n = rep.element_count
    if table.rep.element_count != n:
        raise InputError("the table's ground set disagrees with the representation")
    pair_violations = _table_pairs(table)
    rng = random.Random(seed)
    point_violations = []
    for _ in range(sample_count):
        coords = _draw_coordinates(n, rng)
        frac = ones = 0
        for e, (k, d) in enumerate(coords):
            if k == d:
                ones |= 1 << e
            elif k:
                frac |= 1 << e
        hits = _anchors_containing(table, frac, ones, complement).bit_count()
        if hits != 1:
            point_violations.append(
                (tuple(str(Fraction(k, d)) for k, d in coords), hits)
            )
    return TilingReport(
        seed=seed,
        sample_count=sample_count,
        complement=complement,
        pair_violations=tuple(pair_violations),
        point_violations=tuple(point_violations),
    )


# ---------------------------------------------------------------------------
# counting polynomials

def _subset_mask(subset: Iterable[int]) -> int:
    """The mask of a subset; a non-integer or negative element is refused, never truncated."""
    elements = _integers(subset, "subset")
    if min(elements, default=0) < 0:
        raise InputError("subset elements must not be negative")
    return mask_of(elements)


class MultilinearPolynomial:
    """Integer combination of squarefree monomials, keyed by subsets stored as masks."""

    def __init__(self, coefficients: Mapping[frozenset[int], int] | None = None):
        items = (coefficients or {}).items()
        values = _integers((c for _, c in items), "coefficient")
        self._coeffs: dict[int, int] = {
            _subset_mask(s): c for (s, _), c in zip(items, values) if c
        }

    @classmethod
    def _of_masks(cls, coeffs: Mapping[int, int]) -> "MultilinearPolynomial":
        poly = cls()
        poly._coeffs = {m: c for m, c in coeffs.items() if c}
        return poly

    @classmethod
    def from_subsets(cls, subsets: Iterable[Iterable[int]]) -> "MultilinearPolynomial":
        return cls._of_masks(Counter(map(_subset_mask, subsets)))

    @classmethod
    def full_cube(cls, n: int) -> "MultilinearPolynomial":
        """The expansion of prod_e (1 + q_e): every subset once."""
        return cls._of_masks(dict.fromkeys(range(1 << n), 1))

    def coefficient(self, subset: Iterable[int]) -> int:
        return self._coeffs.get(_subset_mask(subset), 0)

    def monomials(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(
            ((tuple(bits_of(m)), c) for m, c in self._coeffs.items()),
            key=lambda item: (len(item[0]), item[0]),
        )

    def evaluate(self, values: Sequence[int | Fraction]):
        total = 0
        for m, coeff in self._coeffs.items():
            total += coeff * reduce(lambda a, e: a * values[e], bits_of(m), 1)
        return total

    def is_zero(self) -> bool:
        return not self._coeffs

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        out = dict(self._coeffs)
        for m, coeff in other._coeffs.items():
            out[m] = out.get(m, 0) - coeff
        return MultilinearPolynomial._of_masks(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        return f"MultilinearPolynomial({len(self._coeffs)} monomials)"


def independent_set_polynomial(
    rep: RegularMatroidRep, cap: int = DEFAULT_ELEMENT_CAP
) -> MultilinearPolynomial:
    """Sum over independent column subsets of their squarefree monomial."""
    _require_cap(rep, cap)
    return MultilinearPolynomial._of_masks(Counter(rep._independent_masks))


def cell_count_polynomial(
    table: BijectionTable, orientations: Iterable[Orientation | int] | None = None,
    complement: bool = False,
) -> MultilinearPolynomial:
    """Sum of image monomials over orientations (all of them by default)."""
    masks: Iterable[int]
    if orientations is None:
        masks = table.rep.orientation_universe()
    else:
        n = table.rep.element_count
        masks = (_orientation_mask(o, n) for o in orientations)
    return MultilinearPolynomial._of_masks(
        Counter(_image_mask(table, m, complement) for m in masks)
    )


# ---------------------------------------------------------------------------
# dilated zonotope lattice counting

def dilated_zonotope_lattice_count(
    rep: RegularMatroidRep,
    dilation: Sequence[int],
    rank_cap: int = DEFAULT_RANK_CAP,
    box_cap: int = DEFAULT_BOX_CAP,
) -> int:
    """Lattice points of the coordinate-wise dilated zonotope of the columns.

    A is unimodular, so {c : A c = x, 0 <= c <= q} has integral vertices for
    integral x (Veinott and Dantzig, SIAM Review 1968), and the lattice points
    are the sums A k over integers 0 <= k <= q.  They are reached on one bitset
    over the bounding box, with strides w_0 = 1, w_(i+1) = w_i (hi_i - lo_i + 1):
    element e ORs in the set shifted by k (a_e . w), k = 1..q_e.  Past the
    default element cap the bases are walked first, to certify unimodularity.
    As the oracle for the counting polynomials, it never consults them.  ``rank_cap``
    stays for the benchmark's refusal counts, ``fourier_motzkin.project`` for its tracer.
    """
    q = _integers(dilation, "dilation")
    if len(q) != rep.element_count or any(x < 1 for x in q):
        raise InputError("dilation must assign a positive integer to every element")
    if rep.rank > rank_cap:
        raise CapExceededError(f"rank {rep.rank} exceeds the zonotope cap {rank_cap}")
    strides, origin, size = [], 0, 1
    for i in range(rep.rank):
        lo = sum(min(0, qe * col[i]) for qe, col in zip(q, rep.columns))
        hi = sum(max(0, qe * col[i]) for qe, col in zip(q, rep.columns))
        strides.append(size)
        origin -= lo * size
        size *= hi - lo + 1
    if size > box_cap:
        raise CapExceededError(f"bounding box has {size} points; cap is {box_cap}")
    _require_cap(rep, rep.element_count)
    reach = 1 << origin
    for qe, col in zip(q, rep.columns):
        step = sum(x * w for x, w in zip(col, strides))
        shifted = reach
        for _ in range(qe):
            shifted = shifted << step if step >= 0 else shifted >> -step
            reach |= shifted
    return reach.bit_count()
