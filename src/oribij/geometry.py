"""Discrete geometry certificates: half-open cells, tilings, and counting.

The unit cube [0,1]^E is identified with the continuous orientations.  A
bijection onto subsets induces half-open cells hoc(O, S): fixed at O off S,
half-open toward O on S.  These tile the cube exactly when the map has the
separation property, and coordinate-wise dilation turns cell counts into
multilinear counting polynomials that must match independent-set counts.

The exact tiling certificate lists the unseparated orientation pairs
bit-parallel, one pass over the orientations with a 2^n-bit word per
element; the list is empty iff the cells tile the cube.  A point's type (its
fractional coordinates and its 0/1 values off them) is a face of the cube,
and the cell of (O, S) holds the faces at O whose directions lie in S, so the
cells tile iff the images form the outmap of a unique-sink orientation;
Szabo and Welzl ("Unique sink orientations of cubes", FOCS 2001) show these
outmaps are exactly the separated maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Mapping, Sequence

from . import fourier_motzkin as fm
from . import ratlin
from .bijection import BijectionTable
from .core import (
    DEFAULT_ELEMENT_CAP,
    Orientation,
    RegularMatroidRep,
    _require_cap,
    bits_of,
    mask_of,
)
from .errors import CapExceededError, InputError, InvariantViolationError

SAMPLE_DENOMINATORS = (2, 3, 5, 7)
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
    for e, x in enumerate(point.coords):
        anchored = cell.anchor.signs[e]
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


def random_rational_point(n: int, rng: random.Random) -> RationalPoint:
    coords = []
    for _ in range(n):
        d = rng.choice(SAMPLE_DENOMINATORS)
        coords.append(Fraction(rng.randint(0, d), d))
    return RationalPoint(tuple(coords))


def _image_mask(table: BijectionTable, mask: int, complement: bool) -> int:
    out = table.forward[mask]
    if complement:
        out ^= (1 << table.rep.element_count) - 1
    return out


def _anchors_containing(
    table: BijectionTable, point: RationalPoint, complement: bool
) -> list[int]:
    """Anchor masks whose cell contains the point.

    Integral coordinates pin the anchor (a half-open unit interval contains
    only its own anchor among 0 and 1), so only the fractional coordinates
    are searched, and those must lie in the generating set.
    """
    frac = point.fractional_mask
    base = point.integral_one_mask
    hits = []
    sub = frac
    while True:
        mask = base | sub
        if (frac & ~_image_mask(table, mask, complement)) == 0:
            hits.append(mask)
        if sub == 0:
            break
        sub = (sub - 1) & frac
    return hits


def locate_point(
    rep: RegularMatroidRep, point: RationalPoint, table: BijectionTable,
    complement: bool = False,
) -> Orientation:
    """The unique orientation whose induced half-open cell contains the point."""
    if len(point.coords) != rep.element_count:
        raise InputError("point dimension disagrees with the ground set")
    hits = _anchors_containing(table, point, complement)
    if len(hits) != 1:
        raise InvariantViolationError(
            f"point lies in {len(hits)} cells; the tiling is broken"
        )
    anchor = Orientation.from_mask(rep.element_count, hits[0])
    cell = HalfOpenCell(anchor, frozenset(bits_of(_image_mask(table, hits[0], complement))))
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


def _unseparated_pairs(images: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Pairs a < b with no element where they disagree and exactly one image contains it.

    Bit-parallel over b: ``differs[e][x]`` is the set of orientations whose
    bit e is not x, as an integer with one bit per orientation, and
    ``image_differs[e][x]`` the same for the images.
    """
    total = len(images)
    full = (1 << total) - 1

    def columns(values: Sequence[int]) -> list[tuple[int, int]]:
        rows = [format(v, f"0{n}b") for v in reversed(values)]
        ones = [int("".join(col), 2) for col in zip(*rows)][::-1]
        return [(x, full ^ x) for x in ones]

    differs = columns(range(total))
    image_differs = columns(images)
    pairs = []
    for a, ia in enumerate(images):
        separated = 0
        for e in range(n):
            separated |= differs[e][a >> e & 1] & image_differs[e][ia >> e & 1]
        later = (full ^ separated) >> (a + 1)
        while later:
            low = later & -later
            pairs.append((a, a + low.bit_length()))
            later ^= low
    return pairs


def verify_cube_tiling(
    rep: RegularMatroidRep, table: BijectionTable, sample_count: int, seed: int = 0,
    complement: bool = False,
) -> TilingReport:
    """Certify the half-open tiling of the cube induced by the table.

    Exact part: the orientation pairs that are not separated, which is empty
    iff the cells tile the cube (Szabo-Welzl, see the module docstring).
    Complementing both images leaves the disagreement of two images
    unchanged, so the pairs are the same for the complement and are read off
    the forward images.
    Sampled part: seeded random rational points must each lie in exactly one
    cell, which exercises the search behind ``locate_point``.
    """
    if sample_count < 0:
        raise InputError("the sample count must not be negative")
    n = rep.element_count
    pair_violations = _unseparated_pairs([table.forward[m] for m in range(1 << n)], n)
    rng = random.Random(seed)
    point_violations = []
    for _ in range(sample_count):
        point = random_rational_point(n, rng)
        hits = _anchors_containing(table, point, complement)
        if len(hits) != 1:
            point_violations.append(
                (tuple(str(x) for x in point.coords), len(hits))
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

class MultilinearPolynomial:
    """Integer combination of squarefree monomials, keyed by element subsets."""

    def __init__(self, coefficients: Mapping[frozenset[int], int] | None = None):
        self._coeffs: dict[frozenset[int], int] = {}
        for subset, coeff in (coefficients or {}).items():
            if coeff:
                self._coeffs[frozenset(subset)] = int(coeff)

    @classmethod
    def from_subsets(cls, subsets: Iterable[Iterable[int]]) -> "MultilinearPolynomial":
        out: dict[frozenset[int], int] = {}
        for s in subsets:
            key = frozenset(s)
            out[key] = out.get(key, 0) + 1
        return cls(out)

    @classmethod
    def full_cube(cls, n: int) -> "MultilinearPolynomial":
        """The expansion of prod_e (1 + q_e): every subset once."""
        subsets = []
        for mask in range(1 << n):
            subsets.append(frozenset(bits_of(mask)))
        return cls.from_subsets(subsets)

    def coefficient(self, subset: Iterable[int]) -> int:
        return self._coeffs.get(frozenset(subset), 0)

    def monomials(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(
            ((tuple(sorted(s)), c) for s, c in self._coeffs.items()),
            key=lambda item: (len(item[0]), item[0]),
        )

    def evaluate(self, values: Sequence[int | Fraction]):
        total = 0
        for subset, coeff in self._coeffs.items():
            total += coeff * reduce(lambda a, e: a * values[e], subset, 1)
        return total

    def is_zero(self) -> bool:
        return not self._coeffs

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        out = dict(self._coeffs)
        for subset, coeff in other._coeffs.items():
            out[subset] = out.get(subset, 0) - coeff
        return MultilinearPolynomial(out)

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
    return MultilinearPolynomial.from_subsets(
        frozenset(bits_of(m)) for m in rep._independent_masks
    )


def cell_count_polynomial(
    table: BijectionTable, orientations: Iterable[Orientation | int] | None = None,
    complement: bool = False,
) -> MultilinearPolynomial:
    """Sum of image monomials over orientations (all of them by default)."""
    masks: Iterable[int]
    if orientations is None:
        masks = table.rep.orientation_universe()
    else:
        masks = (o if isinstance(o, int) else o.mask for o in orientations)
    return MultilinearPolynomial.from_subsets(
        frozenset(bits_of(_image_mask(table, m, complement))) for m in masks
    )


# ---------------------------------------------------------------------------
# dilated zonotope lattice counting

def _zonotope_inequalities(
    columns: Sequence[tuple[int, ...]], rank: int
) -> list[tuple[int, ...]]:
    """Halfspace rows over x for {sum c_e w_e : 0 <= c_e <= 1}.

    Derived by substituting the equalities into the box bounds and projecting
    the combination variables out by Fourier-Motzkin elimination; the result
    is an exact description, so membership testing is a pure integer check.
    """
    n = len(columns)
    width = n + rank
    eq_rows = []
    for i in range(rank):
        row = [Fraction(columns[e][i]) for e in range(n)]
        row += [Fraction(-1) if j == i else Fraction(0) for j in range(rank)]
        eq_rows.append(row)
    rref, pivots = ratlin.row_reduce(eq_rows, width)
    if any(p >= n for p in pivots):
        raise InvariantViolationError("dilated columns lost rank")

    def expr_for(e: int) -> list[Fraction]:
        if e in pivots:
            i = pivots.index(e)
            row = [-x for x in rref[i]]
            row[e] = Fraction(0)
            return row
        row = [Fraction(0)] * width
        row[e] = Fraction(1)
        return row

    rows: list[tuple[int, ...]] = []
    for e in range(n):
        expr = expr_for(e)
        lower = expr + [Fraction(0)]
        upper = [-x for x in expr] + [Fraction(1)]
        for frac_row in (lower, upper):
            denom = lcm(*(x.denominator for x in frac_row))
            rows.append(tuple(int(x * denom) for x in frac_row))
    return fm.project(rows, width, keep=list(range(n, width)))


def dilated_zonotope_lattice_count(
    rep: RegularMatroidRep,
    dilation: Sequence[int],
    rank_cap: int = DEFAULT_RANK_CAP,
    box_cap: int = DEFAULT_BOX_CAP,
) -> int:
    """Lattice points of the coordinate-wise dilated zonotope of the columns.

    Bounding-box enumeration against an exact halfspace description; this is
    the independent oracle for the counting polynomials, so it never consults
    them.
    """
    if rep.rank > rank_cap:
        raise CapExceededError(f"rank {rep.rank} exceeds the zonotope cap {rank_cap}")
    q = [int(x) for x in dilation]
    if len(q) != rep.element_count or any(x < 1 for x in q):
        raise InputError("dilation must assign a positive integer to every element")
    if rep.rank == 0:
        return 1
    columns = tuple(
        tuple(q[e] * x for x in col) for e, col in enumerate(rep.columns)
    )
    lows = [sum(min(0, col[i]) for col in columns) for i in range(rep.rank)]
    highs = [sum(max(0, col[i]) for col in columns) for i in range(rep.rank)]
    size = 1
    for lo, hi in zip(lows, highs):
        size *= hi - lo + 1
    if size > box_cap:
        raise CapExceededError(f"bounding box has {size} points; cap is {box_cap}")

    rows = _zonotope_inequalities(columns, rep.rank)
    n = rep.element_count
    count = 0
    point = lows[:]
    while True:
        ok = True
        for row in rows:
            total = row[-1]
            for i in range(rep.rank):
                coeff = row[n + i]
                if coeff:
                    total += coeff * point[i]
            if total < 0:
                ok = False
                break
        if ok:
            count += 1
        i = rep.rank - 1
        while i >= 0:
            point[i] += 1
            if point[i] <= highs[i]:
                break
            point[i] = lows[i]
            i -= 1
        if i < 0:
            break
    return count
