"""Exact linear algebra over the rationals: inversion and one-solution solve.

Both run one Gauss-Jordan elimination, ``_gauss_jordan``, on sparse integer
rows: each row is a dict from column to nonzero int, so eliminating a pivot
touches only the rows that have an entry in its column and only their
nonzero entries.  ``solve_linear`` takes its rows in that form, as the
reduction search builds them; ``invert_matrix`` takes dense rows of ints or
Fractions and scales each row, its identity block included, by the lcm of
its denominators.  Eliminating a column replaces a row by
``p*row - f*pivot_row`` and divides it by its content (the gcd of its
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
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


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


def _gauss_jordan(rows: Iterable[dict[int, int]], ncols: int
                  ) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form over the first ``ncols`` columns of sparse
    integer rows (column -> nonzero int; the rows are not modified), as
    sparse primitive integer rows, and the pivot columns: row r holds the
    pivot of column ``pivots[r]``; the rows past the rank are the nonzero
    rows left, none of them with an entry in the first ``ncols`` columns.
    Zero rows are dropped."""
    echelon: dict[int, dict[int, int]] = {}  # leading column -> row
    rest = []
    for row in rows:
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
    """Inverse of a square matrix of ints or Fractions; raises
    SingularMatrixError if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    sparse = []
    for i, row in enumerate(rows):
        # [A | I] row i: the identity entry is scaled with the row
        entries = {c: x for c, x in enumerate(row) if x}
        entries[n + i] = 1
        d = lcm(*(x.denominator for x in entries.values()))
        sparse.append({c: x.numerator * (d // x.denominator) for c, x in entries.items()})
    a, pivots = _gauss_jordan(sparse, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(row.get(n + j, 0), row[i]) for j in range(n)]
            for i, row in enumerate(a)]


def solve_linear(rows: Sequence[dict[int, int]], rhs: Sequence[int], ncols: int
                 ) -> Optional[list[Fraction]]:
    """One exact solution x of A x = b, or None if there is none.

    Row r of A is ``rows[r]``, a dict from column (0 to ``ncols - 1``) to
    nonzero int; a column no row mentions is 0 throughout.  ``rhs`` is b,
    dense ints, one per row (ValueError otherwise).  Free variables are set
    to 0, and the solution has ``ncols`` entries."""
    a, pivots = _gauss_jordan(
        ({**row, ncols: v} if v else row for row, v in zip(rows, rhs, strict=True)), ncols)
    if len(a) > len(pivots):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(a, pivots):
        x[c] = Fraction(row.get(ncols, 0), row[c])
    return x
