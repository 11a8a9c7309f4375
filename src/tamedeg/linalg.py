"""Exact linear algebra over the rationals: inversion and one-solution solve.

Both run one Gauss-Jordan elimination, ``_gauss_jordan``, on sparse integer
rows: each row is a dict from column to nonzero int, so eliminating a pivot
touches only the rows that have an entry in its column and only their
nonzero entries.  A row with Fraction entries is scaled once by the lcm of
its denominators; a row of ints skips that.  Eliminating a column replaces a
row by ``p*row - f*pivot_row`` and divides it by its content (the gcd of its
entries), and a row is divided by its content before it is kept.  Every kept
row is therefore the primitive integer multiple of the row a Fraction
elimination would hold, and its entries grow no faster than that row's
numerators and denominators (Bareiss 1968, Math. Comp. 22, bounds the
growth).  Rows are brought to echelon form one at a time, then the pivot
columns are cleared from the last pivot back to the first.  The reduced row
echelon form is unique, so this order gives the same pivots and solutions as
any other.  Fractions are built only when the answer is read off.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from typing import Optional, Sequence


class SingularMatrixError(ValueError):
    pass


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """``p*row - f*prow`` made primitive, with p and f the two rows' entries
    in column ``col``, so the result is zero there."""
    p, f = prow[col], row[col]
    out = {c: p * x for c, x in row.items()}
    for c, y in prow.items():
        v = out.get(c, 0) - f * y
        if v:
            out[c] = v
        else:
            del out[c]
    return _primitive(out) if out else out


def _gauss_jordan(rows: Sequence[Sequence], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form over the first ``ncols`` columns, as sparse
    primitive integer rows (column -> nonzero int), and the pivot columns:
    row r holds the pivot of column ``pivots[r]``; the rows past the rank
    are the nonzero rows left, none of them with an entry in the first
    ``ncols`` columns.  Zero rows are dropped."""
    echelon: dict[int, dict[int, int]] = {}  # leading column -> row
    rest = []
    for dense in rows:
        row = {c: dense[c] for c in compress(count(), dense)}
        if not all(type(x) is int for x in row.values()):
            d = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (d // x.denominator) for c, x in row.items()}
        while row:
            col = min(row)
            if col >= ncols:
                rest.append(_primitive(row))
                break
            prow = echelon.get(col)
            if prow is None:
                echelon[col] = _primitive(row)
                break
            row = _eliminate(row, prow, col)
    pivots = sorted(echelon)
    # Clear each pivot column above its pivot, the last pivot first: the
    # rows below are already reduced, so eliminating one pivot column
    # brings in no other.
    for k in range(len(pivots) - 2, -1, -1):
        row = echelon[pivots[k]]
        for c in pivots[k + 1:]:
            if c in row:
                row = _eliminate(row, echelon[c], c)
        echelon[pivots[k]] = row
    return [echelon[c] for c in pivots] + rest, pivots


def invert_matrix(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a, pivots = _gauss_jordan(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(row.get(n + j, 0), row[i]) for j in range(n)]
            for i, row in enumerate(a)]


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return [] if not any(rhs) else None
    n = len(rows[0])
    a, pivots = _gauss_jordan([[*row, v] for row, v in zip(rows, rhs, strict=True)], n)
    if len(a) > len(pivots):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        x[c] = Fraction(row.get(n, 0), row[c])
    return x
