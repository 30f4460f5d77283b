"""Exact linear algebra over the rationals for small dense matrices.

Rows are sequences of ints or Fractions; nothing here ever touches a float.
The matrices in this package are tiny (at most ~16 columns), so plain
Gaussian elimination with Fraction arithmetic is both exact and fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Row = Sequence[int | Fraction]


def row_reduce(rows: Iterable[Row], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = Fraction(1) / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[col]:
                f = row[col]
                work[i] = [a - f * b for a, b in zip(row, work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def matrix_rank(rows: Iterable[Row], width: int) -> int:
    return len(row_reduce(rows, width)[1])


def invert(matrix: Sequence[Row]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = row_reduce(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def determinant_int(matrix: Sequence[Sequence[int]]) -> int:
    """Integer determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def dot(u: Sequence[int | Fraction], v: Sequence[int | Fraction]):
    return sum(a * b for a, b in zip(u, v))
