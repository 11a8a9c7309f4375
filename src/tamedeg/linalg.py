"""Tiny exact linear algebra over Fraction: inversion and one-solution solve."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class SingularMatrixError(ValueError):
    pass


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def invert_matrix(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    a = _frac_rows(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def mat_vec(rows: Sequence[Sequence], vec: Sequence) -> list[Fraction]:
    return [sum((Fraction(x) * Fraction(v) for x, v in zip(row, vec)), Fraction(0))
            for row in rows]


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    a = _frac_rows(rows)
    b = [Fraction(v) for v in rhs]
    if not a:
        return [] if not any(b) else None
    m, n = len(a), len(a[0])
    pivots: list[tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(n):
        if row >= m:
            break
        pivot = next((r for r in range(row, m) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        b[row], b[pivot] = b[pivot], b[row]
        p = a[row][col]
        a[row] = [x / p for x in a[row]]
        b[row] /= p
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
                b[r] -= f * b[row]
        pivots.append((row, col))
        row += 1
    for r in range(row, m):
        if b[r]:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = b[r]
    return x
