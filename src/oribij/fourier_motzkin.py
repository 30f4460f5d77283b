"""Exact Fourier-Motzkin elimination over integer inequality rows.

A row ``(a_0, ..., a_{k-1}, c)`` encodes ``sum(a_i * x_i) + c >= 0``.  All
arithmetic stays integral: combined rows are rescaled by gcd, so projections
are exact and there is no tolerance anywhere.  This is only meant for the
desk-scale systems of the package's one caller, the signature acyclicity
certificates (``maximize``); a hard row-count cap guards against blowup.
``project`` has no caller in the package: it is kept only because the
benchmark's tracer fetches it by name.

Eliminating a variable combines every row p with a positive coefficient
``a_p`` on it with every row q with a negative one ``-a_q``, into
``a_q * p + a_p * q``.  Each of those rows is packed once into one Python int
with signed fields of width ``w``, ``P = sum(x_i * 2**(w * i))``, so a pair
costs one integer multiply-add ``a_q * P + a_p * Q``; the products are shared
between pairs, one per row and distinct coefficient, which leaves one addition
per pair.  If ``M`` is the largest ``|entry|`` of the rows being combined, every
combined field obeys ``|a_q * x + a_p * y| <= 2 * M**2 < 2**(2 * bitlen(M) +
1)``, so ``w = 2 * bitlen(M) + 3`` keeps each field inside ``(-2**(w - 1),
2**(w - 1))``: the fields never carry into each other and a packed sum stands
for exactly one row.  Python ints have no fixed width, so nothing here assumes
64 bits.  The packed sums go into a set and each distinct one is unpacked
once.  The gcd normalisation and the trivial-row test are functions of the
raw row, so deduplicating before normalising leaves the output rows, and every
``Infeasible`` and ``CapExceededError``, as they were with one tuple per pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import CapExceededError, InvariantViolationError

ROW_LIMIT = 200_000


class Infeasible(Exception):
    """The inequality system has no solution."""


def _normalized(row: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*row)
    if g > 1:
        return tuple(x // g for x in row)
    return row


def _check_trivial(row: tuple[int, ...]) -> bool:
    """True if the row is vacuous; raises Infeasible on a contradiction."""
    if any(row[:-1]):
        return False
    if row[-1] < 0:
        raise Infeasible
    return True


def _pack(row: tuple[int, ...], w: int) -> int:
    """The row as one int, entry i in the signed field at bit w * i."""
    packed = 0
    for x in reversed(row):
        packed = (packed << w) + x
    return packed


def eliminate(rows: Sequence[tuple[int, ...]], var: int) -> list[tuple[int, ...]]:
    """Project the system onto the complement of one variable."""
    pos, neg, rest = [], [], []
    for row in rows:
        a = row[var]
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            rest.append(row)
    if len(pos) * len(neg) + len(rest) > ROW_LIMIT:
        raise CapExceededError("Fourier-Motzkin row limit exceeded")
    out = set(rest)
    if not (pos and neg):
        return sorted(out)
    both = pos + neg
    w = 2 * max(max(map(max, both)), -min(map(min, both))).bit_length() + 3
    half, mask, k = 1 << (w - 1), (1 << w) - 1, len(rows[0])
    # half in every field: a combined row plus bias has every field
    # nonnegative, so each one reads off with a shift and a mask
    bias = half * ((1 << w * k) - 1) // mask
    # the negative rows by a_q; each list is scaled by a_p once per distinct a_p
    by_coeff: dict[int, list[int]] = {}
    for q in neg:
        by_coeff.setdefault(-q[var], []).append(_pack(q, w))
    scaled: dict[int, list[tuple[int, list[int]]]] = {}
    biased: set[int] = set()
    for p in pos:
        ap = p[var]
        if ap not in scaled:
            scaled[ap] = [(aq, [ap * packed for packed in qs]) for aq, qs in by_coeff.items()]
        packed = _pack(p, w)
        for aq, terms in scaled[ap]:
            biased.update(map((aq * packed + bias).__add__, terms))
    shifts = range(0, w * k, w)
    for value in biased:
        row = _normalized(tuple([(value >> s & mask) - half for s in shifts]))
        if not _check_trivial(row):
            out.add(row)
    return sorted(out)


def _elimination_order(rows: Sequence[tuple[int, ...]], candidates: list[int]) -> int:
    """Pick the variable whose elimination grows the system least."""
    best, best_cost = candidates[0], None
    for v in candidates:
        p = sum(1 for row in rows if row[v] > 0)
        n = sum(1 for row in rows if row[v] < 0)
        cost = p * n - p - n
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def project(
    rows: Sequence[tuple[int, ...]], nvars: int, keep: Sequence[int]
) -> list[tuple[int, ...]]:
    """Eliminate every variable not in ``keep``; eliminated coefficients are 0.

    Raises Infeasible if the original system has no solution at all.
    """
    current = sorted({_normalized(tuple(r)) for r in rows if not _check_trivial(tuple(r))})
    remaining = [v for v in range(nvars) if v not in set(keep)]
    while remaining:
        v = _elimination_order(current, remaining)
        remaining.remove(v)
        current = eliminate(current, v)
    return current


def maximize(
    rows: Sequence[tuple[int, ...]], nvars: int, objective: int
) -> tuple[Fraction | None, list[Fraction] | None]:
    """Exact sup of one variable over the polyhedron, with an attaining point.

    Returns ``(sup, point)``; ``sup`` is None when unbounded above, in which
    case the point maximizes nothing in particular but is feasible.  Raises
    Infeasible when the system has no solution.
    """
    current = sorted({_normalized(tuple(r)) for r in rows if not _check_trivial(tuple(r))})
    steps: list[tuple[int, list[tuple[int, ...]]]] = []
    remaining = [v for v in range(nvars) if v != objective]
    while remaining:
        v = _elimination_order(current, remaining)
        remaining.remove(v)
        steps.append((v, current))
        current = eliminate(current, v)

    upper: Fraction | None = None
    lower: Fraction | None = None
    for row in current:
        a, c = row[objective], row[-1]
        if a == 0:
            continue
        bound = Fraction(-c, a)
        if a > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    if lower is not None and upper is not None and lower > upper:
        raise Infeasible

    # back-substitute with the point held as integer numerators over one
    # common denominator, so each row's rest is an integer dot product
    start = upper if upper is not None else lower if lower is not None else Fraction(0)
    denominator = start.denominator
    numerators = [0] * nvars
    numerators[objective] = start.numerator
    for var, rows_before in reversed(steps):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for row in rows_before:
            a = row[var]
            if a == 0:
                continue
            # numerators[var] is still 0, and map stops before the constant
            rest = row[-1] * denominator + sum(map(mul, row, numerators))
            bound = Fraction(-rest, a * denominator)
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            if lo > hi:
                raise InvariantViolationError("back-substitution interval is empty")
            value = (lo + hi) / 2
        elif lo is not None:
            value = lo
        elif hi is not None:
            value = hi
        else:
            continue
        scale = lcm(denominator, value.denominator) // denominator
        if scale > 1:
            numerators = [x * scale for x in numerators]
            denominator *= scale
        numerators[var] = value.numerator * (denominator // value.denominator)
    return upper, [Fraction(x, denominator) for x in numerators]
