"""Differential tests of the integer Gauss-Jordan core in ``tamedeg.linalg``.

``solve_linear`` and ``invert_matrix`` eliminate on sparse primitive integer
rows.
They are checked against the ``Fraction`` Gauss-Jordan elimination they
replaced, kept below as the oracle: equal solution vectors (free variables
included), ``None`` on the same inconsistent systems and
``SingularMatrixError`` on the same singular matrices.  ``solve_linear``
takes sparse integer rows, so each dense system is given to it with every
row, right-hand side included, scaled by the lcm of its denominators
(``cleared``); scaling a row does not change the solution.
"""
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tamedeg import linalg  # noqa: E402
from tamedeg.linalg import (SingularMatrixError, _gauss_jordan,  # noqa: E402
                            invert_matrix, solve_linear)

# -- oracle: the Fraction Gauss-Jordan elimination, unchanged -------------


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def oracle_invert_matrix(rows: Sequence[Sequence]) -> list[list[Fraction]]:
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


def oracle_solve_linear(rows: Sequence[Sequence], rhs: Sequence, ncols: int
                        ) -> Optional[list[Fraction]]:
    """One exact solution of A x = b (free variables set to 0), or None;
    A is m x ``ncols``."""
    a = _frac_rows(rows)
    b = [Fraction(v) for v in rhs]
    m, n = len(a), ncols
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


# -- inputs ---------------------------------------------------------------

entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-10 ** 30, 10 ** 30),
    st.tuples(st.integers(-99, 99), st.integers(1, 20)).map(lambda pq: Fraction(*pq)),
    st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)).map(
        lambda pq: Fraction(*pq)),
)


@st.composite
def matrices(draw, m, n):
    """An m x n matrix of mixed int and Fraction entries, some rows and
    columns zeroed and some rows duplicated (with a sign or a factor)."""
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for r in draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else ():
        rows[r] = [0] * n
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ():
        for row in rows:
            row[c] = 0
    if m >= 2:
        for _ in range(draw(st.integers(0, 2))):
            src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            k = draw(st.sampled_from([1, -1, 3, Fraction(-2, 7)]))
            rows[dst] = [k * x for x in rows[src]]
    return rows


@st.composite
def systems(draw):
    """A x = b with m < n, m = n and m > n; b is either A x0 for some x0
    (consistent) or arbitrary (usually inconsistent when m > rank)."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = draw(matrices(m, n))
    if draw(st.booleans()):
        x0 = [draw(entries) for _ in range(n)]
        rhs = [sum((Fraction(a) * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    else:
        rhs = [draw(entries) for _ in range(m)]
    return rows, rhs, n


@st.composite
def square_matrices(draw):
    """Square matrices, invertible or singular; some are products B C with
    an inner dimension below n, so singular without a zero or equal row."""
    n = draw(st.integers(0, 6))
    if n and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, n - 1))
        b, c = draw(matrices(n, k)), draw(matrices(k, n))
        return [[sum((Fraction(x) * c[t][j] for t, x in enumerate(row)), Fraction(0))
                 for j in range(n)] for row in b]
    return draw(matrices(n, n))


nonzero = st.one_of(
    st.integers(1, 3), st.integers(1, 10 ** 12),
    st.tuples(st.integers(1, 99), st.integers(2, 20)).map(lambda pq: Fraction(*pq)),
).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def search_systems(draw):
    """Systems shaped like those of the reduction search: tall (up to 60 x
    25), about 5% of A nonzero, scaled duplicates of rows, b = A x0 or
    arbitrary, and in some draws many rows that are zero in A but not in b."""
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 25))
    rows = [[0] * n for _ in range(m)]
    for _ in range(max(1, m * n // 20)):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(nonzero)
    for _ in range(draw(st.integers(0, m // 3))):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([1, -1, 3, 10 ** 20, Fraction(-2, 7)]))
        rows[dst] = [k * x for x in rows[src]]
    if draw(st.booleans()):
        x0 = [draw(st.integers(-3, 3)) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = [draw(st.sampled_from([0, 0, 1, -5, 10 ** 12])) for _ in range(m)]
    if draw(st.booleans()):
        for r in draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m // 2 + 1)):
            rows[r] = [0] * n
            rhs[r] = draw(nonzero)
    return rows, rhs, n


@st.composite
def repeated_unit_systems(draw):
    """Systems shaped like the reduction search's: most rows have a single
    entry, in a few columns, so each such column recurs with other values;
    a few rows have several entries, and in some draws rows that are zero
    in A but not in b are mixed in; all in random order.  b = A x0 for an
    x0 with zeros (a single-entry row stays single-entry where x0 is 0), or
    arbitrary on the rows with several entries."""
    n = draw(st.integers(1, 10))
    units = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    rows = []
    for c in units:
        rows.append([0] * n)
        rows[-1][c] = draw(nonzero)
    for _ in range(draw(st.integers(0, 4))):
        rows.append([0] * n)
        for c in draw(st.sets(st.integers(0, n - 1), min_size=min(n, 2), max_size=4)):
            rows[-1][c] = draw(nonzero)
    if draw(st.booleans()):
        x0 = [draw(st.sampled_from([0, 0, 1, -2, Fraction(3, 5)])) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = [0] * len(units) + [draw(st.integers(-5, 5))
                                  for _ in range(len(rows) - len(units))]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            rows.append([0] * n)
            rhs.append(draw(nonzero))
    order = draw(st.permutations(range(len(rows))))
    return [rows[r] for r in order], [rhs[r] for r in order], n


def copied(rows):
    return [list(row) for row in rows]


def cleared(rows, rhs):
    """The dense system A x = b as ``solve_linear`` takes it: each row,
    right-hand side included, times the lcm of its denominators, as a sparse
    row (column -> nonzero int) and an int right-hand side."""
    sparse, ints = [], []
    for row, v in zip(rows, rhs, strict=True):
        d = lcm(*(Fraction(x).denominator for x in (*row, v)))
        sparse.append({c: int(x * d) for c, x in enumerate(row) if x})
        ints.append(int(v * d))
    return sparse, ints


# -- tests ----------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_linear_matches_oracle(system):
    rows, rhs, n = system
    sparse, ints = cleared(rows, rhs)
    before = [dict(row) for row in sparse], list(ints)
    expected = oracle_solve_linear(rows, rhs, n)
    got = solve_linear(sparse, ints, n)
    assert got == expected
    if got is not None:
        assert len(got) == n and all(type(v) is Fraction for v in got)
    assert ([dict(row) for row in sparse], list(ints)) == before


@settings(max_examples=500, deadline=None)
@given(st.one_of(search_systems(), repeated_unit_systems()))
def test_search_shaped_systems_match_oracle(system):
    rows, rhs, n = system
    sparse, ints = cleared(rows, rhs)
    before = [dict(row) for row in sparse], list(ints)
    assert solve_linear(sparse, ints, n) == oracle_solve_linear(rows, rhs, n)
    assert ([dict(row) for row in sparse], list(ints)) == before


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_invert_matrix_matches_oracle(rows):
    before = copied(rows)
    try:
        expected = oracle_invert_matrix(rows)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            invert_matrix(rows)
    else:
        got = invert_matrix(rows)
        assert got == expected
        assert all(type(v) is Fraction for row in got for v in row)
    assert copied(rows) == before


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(lambda m: st.integers(0, 7).flatmap(
    lambda n: st.tuples(st.just(n), matrices(m, n)))))
def test_reduced_rows_are_primitive(case):
    """Dividing every new row by its content keeps each row the primitive
    integer multiple of the Fraction elimination's row."""
    n, rows = case
    a, pivots = _gauss_jordan(cleared(rows, [0] * len(rows))[0], n)
    for row in a:
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
    for r, c in enumerate(pivots):
        assert a[r][c] and all(c not in a[s] for s in range(len(a)) if s != r)
    assert all(min(row) >= n for row in a[len(pivots):])


def test_fixed_cases():
    assert solve_linear([], [], 0) == []
    assert solve_linear([{}, {}], [0, 0], 0) == []
    assert solve_linear([{}], [1], 0) is None
    assert solve_linear([{}, {}], [0, 0], 2) == [0, 0]
    assert solve_linear([{}, {}], [0, 5], 2) is None
    # free variable x1 set to 0; x0 and x2 from the pivots
    assert solve_linear([{0: 2, 1: 4}, {2: 3}, {0: 2, 1: 4, 2: 3}], [6, 1, 7], 3) == [
        3, 0, Fraction(1, 3)]
    assert solve_linear([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2], 2) is None
    # [1/2, 1/3] x = 1, its row scaled by 6
    assert solve_linear([{0: 3, 1: 2}], [6], 2) == [2, 0]
    assert invert_matrix([]) == []
    assert invert_matrix([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert invert_matrix([[0, Fraction(1, 2)], [4, 0]]) == [[0, Fraction(1, 4)], [2, 0]]
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        invert_matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        invert_matrix([[0, 0], [0, 0]])


@pytest.mark.parametrize("rows", [[[1, 2]], [[1], [2]], [[1, 0], [0]], [[1, 0], [0, 1, 0]]])
def test_non_square_matrix(rows):
    with pytest.raises(ValueError, match="^matrix must be square$") as info:
        invert_matrix(rows)
    assert not isinstance(info.value, SingularMatrixError)


def test_rhs_length_must_match_rows():
    with pytest.raises(ValueError):
        solve_linear([{0: 1}, {1: 1}], [1], 2)
    with pytest.raises(ValueError):
        solve_linear([{0: 1}, {1: 1}], [1, 2, 3], 2)


def test_row_without_columns():
    # 0 = 3 among consistent rows: no solution
    assert solve_linear([{0: 1}, {}, {1: 2}], [2, 3, 4], 2) is None
    assert solve_linear([{}], [-1], 3) is None
    # 0 = 0 constrains nothing
    assert solve_linear([{0: 1}, {}], [2, 0], 2) == [2, 0]


def test_unmentioned_columns_are_free_and_zero():
    # columns 1 and 3 are in no row: free, set to 0, and the solution still
    # has an entry for the last column
    assert solve_linear([{0: 2, 2: 4}, {2: 3}], [10, 6], 4) == [1, 0, 2, 0]
    assert solve_linear([{1: 5}], [5], 6) == [0, 1, 0, 0, 0, 0]
    assert solve_linear([], [], 3) == [0, 0, 0]


def test_unit_row_under_a_wider_pivot():
    # column 0's pivot is x0 + x1, which does not span (1, 0): the later
    # row 2*x0 = 0 must still be eliminated, giving x1 = 3
    assert solve_linear([{0: 1, 1: 1}, {0: 2}], [3, 0], 2) == [0, 3]
    assert solve_linear([{0: 1, 1: 1}, {0: 2}, {0: -1}], [3, 0, 0], 2) == [0, 3]


def test_repeated_rows_without_columns():
    # 0 = 1 and 0 = 2: one of them is enough to see that nothing solves it
    assert solve_linear([{}, {}, {0: 1}], [1, 2, 3], 1) is None
    assert solve_linear([{0: 1}, {}, {}, {}], [2, 5, -5, 5], 2) is None


def test_repeated_unit_row_is_not_eliminated(monkeypatch):
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: calls.append(a) or eliminate(*a))
    assert solve_linear([{0: 2}, {1: 1}, {0: -3}, {1: 7}, {0: 5}], [0, 0, 0, 0, 0], 2) == [0, 0]
    assert calls == []
    # a one-entry row with a right-hand side has two entries: eliminated
    assert solve_linear([{0: 2}, {0: 3}], [4, 6], 1) == [2]
    assert len(calls) == 1
