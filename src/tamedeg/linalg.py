"""Exact linear algebra over the rationals: inversion and one-solution solve.

Both run one Gauss-Jordan elimination on integer rows.  Each row of int and
Fraction entries is scaled once by the lcm of its denominators; eliminating
a column replaces a row by ``p*row - f*pivot_row`` and divides it by its
content (the gcd of its entries).  Every row therefore stays the primitive
integer multiple of the row a Fraction elimination would hold, with the same
zero pattern and the same pivots, and its entries grow no faster than that
row's numerators and denominators (Bareiss 1968, Math. Comp. 22, bounds the
growth).  Fractions are built only when the answer is read off.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


class SingularMatrixError(ValueError):
    pass


def _gauss_jordan(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the first ``ncols`` columns, as
    primitive integer rows, and the pivot columns: row r holds the pivot
    of column ``pivots[r]``; rows past the rank are zero in all ``ncols``."""
    a = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (d // x.denominator) for x in row]
        g = gcd(*ints) or 1
        a.append([x // g for x in ints])
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[top], a[pivot] = a[pivot], a[top]
        prow = a[top]
        p = prow[col]
        for r, row in enumerate(a):
            f = row[col]
            if f and r != top:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row) or 1
                a[r] = [x // g for x in row]
        pivots.append(col)
    return a, pivots


def invert_matrix(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a, pivots = _gauss_jordan(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(a)]


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return [] if not any(rhs) else None
    n = len(rows[0])
    a, pivots = _gauss_jordan([[*row, v] for row, v in zip(rows, rhs, strict=True)], n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        x[c] = Fraction(row[n], row[c])
    return x
