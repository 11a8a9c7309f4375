"""Differential tests of the affine constructor ``maps.affine_factor``.

``affine`` and peel's affine ends build their inverses from integer rows:
one fraction-free elimination of [[A, v], [0, 1]] beside the identity.  The
reference below is the construction it replaced: the inverse matrix from
``test_linalg.oracle_invert_matrix``, the Fraction Gauss-Jordan elimination,
the inverse shift -A^-1 v summed in Fractions, and each component built by
``Polynomial``.  On random invertible 2 x 2 and 3 x 3 rational matrices and
shifts both must give equal maps and inverses (equal stored forms), and both
must refuse a singular matrix.
"""
import random
from fractions import Fraction

import pytest

from tamedeg.linalg import SingularMatrixError
from tamedeg.maps import Factor, PolyMap, affine, affine_factor, identity
from tamedeg.poly import Polynomial
from test_linalg import oracle_invert_matrix


def oracle_affine(matrix, vector=None) -> Factor:
    """x -> M x + v and its inverse, the inverse matrix in Fractions."""
    n = len(matrix)
    m_inv = oracle_invert_matrix(matrix)
    v = [Fraction(0)] * n if vector is None else [Fraction(x) for x in vector]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def rows_to_map(rows, shift):
        return PolyMap(tuple(Polynomial(n, [((0,) * n, c), *zip(units, row)])
                             for row, c in zip(rows, shift)))

    inv_shift = [-sum(x * y for x, y in zip(row, v)) for row in m_inv]
    return Factor(rows_to_map(matrix, v), rows_to_map(m_inv, inv_shift))


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def entry(rng):
    return rng.choice([0, 0, 1, -1, rng.randint(-9, 9),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 12))])


def shift(rng, n):
    return rng.choice([None, [0] * n, [entry(rng) for _ in range(n)]])


@pytest.mark.parametrize("n", [2, 3])
def test_affine_matches_oracle(n):
    rng = random.Random(n)
    seen = set()
    for _ in range(500):
        matrix = [[entry(rng) for _ in range(n)] for _ in range(n)]
        vector = shift(rng, n)
        d = det(matrix)
        if not d:
            with pytest.raises(SingularMatrixError):
                oracle_affine(matrix, vector)
            with pytest.raises(SingularMatrixError):
                affine(matrix, vector)
            seen.add("singular")
            continue
        expected = oracle_affine(matrix, vector)
        assert affine(matrix, vector) == expected, (matrix, vector)
        # the map itself, read from its numerators and denominators
        got = affine_factor(expected.map)
        assert got.map is expected.map
        assert got.inverse == expected.inverse, (matrix, vector)
        assert expected.map.compose(got.inverse) == identity(n)
        if d < 0:
            seen.add("negative determinant")
        if any(c.denominator != 1 for c in expected.map.components):
            seen.add("non-unit row denominator")
        if not any(vector or ()):
            seen.add("zero shift")
        if any(x == 0 for row in matrix for x in row):
            seen.add("zero entry")
    assert seen == {"singular", "negative determinant", "non-unit row denominator",
                    "zero shift", "zero entry"}


def test_singular_maps_refused():
    # a zero component, a constant one, and dependent linear parts
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    for components in [(x, y, Polynomial.zero(3)),
                       (x + 1, y, Polynomial.constant(3, Fraction(2, 3))),
                       (x + y, z, x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 2)) + 7)]:
        with pytest.raises(SingularMatrixError):
            affine_factor(PolyMap(components))


def test_rows_of_other_denominators():
    # each row over its own denominator, and a negative pivot
    m = PolyMap((Polynomial(2, {(1, 0): Fraction(-2, 3), (0, 1): Fraction(5, 7),
                                (0, 0): Fraction(1, 9)}),
                 Polynomial(2, {(0, 1): Fraction(-1, 4), (0, 0): Fraction(3, 2)})))
    got = affine_factor(m)
    expected = oracle_affine([[Fraction(-2, 3), Fraction(5, 7)], [0, Fraction(-1, 4)]],
                             [Fraction(1, 9), Fraction(3, 2)])
    assert got.map is m and m == expected.map
    assert got.inverse == expected.inverse
