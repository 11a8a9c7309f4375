import random
from fractions import Fraction

import pytest

from tamedeg.maps import (PolyMap, affine, compose_all, elementary, gallery,
                          gallery_names, identity, nagata_power)
from tamedeg.linalg import SingularMatrixError
from tamedeg.poly import DimensionMismatch, Polynomial, parse_poly


def p(text, n=3):
    return parse_poly(text, n=n)


class TestPolyMap:
    def test_compose_is_substitution(self):
        f = PolyMap((p("x + y^2"), p("y"), p("z")))
        g = PolyMap((p("x"), p("z"), p("y")))
        assert f.compose(g).components[0] == p("x + z^2")

    def test_compose_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            ms = []
            for _ in range(3):
                i = rng.randrange(3)
                other = [v for v in range(3) if v != i]
                exps = [0, 0, 0]
                exps[rng.choice(other)] = rng.randrange(1, 4)
                ms.append(elementary(3, i, Polynomial(
                    3, {tuple(exps): Fraction(rng.randrange(-3, 4) or 1)})).map)
            a, b, c = ms
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_mixed_dimensions(self):
        f, g = identity(2), identity(3)
        for chain in ([f, g], [g, f, f], [f, f, g]):
            with pytest.raises(DimensionMismatch, match="dimension mismatch in composition"):
                compose_all(chain)
        with pytest.raises(DimensionMismatch, match="dimension mismatch in composition"):
            f.compose(g)

    def test_identity_neutral(self):
        f = gallery("nagata")
        assert f.compose(identity(3)) == f
        assert identity(3).compose(f) == f

    def test_mdeg_and_deg(self):
        f = gallery("nagata")
        assert f.mdeg() == (5, 3, 1)
        assert max(f.mdeg()) == 5

    def test_mdeg_invariant_under_affine_precomposition(self):
        rng = random.Random(9)
        f = gallery("su_example")
        for _ in range(25):
            while True:
                rows = [[rng.randrange(-2, 3) for _ in range(3)]
                        for _ in range(3)]
                try:
                    lin = affine(rows, [rng.randrange(-2, 3) for _ in range(3)])
                    break
                except SingularMatrixError:
                    continue
            assert f.compose(lin.map).mdeg() == f.mdeg()

    def test_deg_of_composition_bounded(self):
        f, g = gallery("nagata"), gallery("su_example")
        assert max(f.compose(g).mdeg()) <= max(f.mdeg()) * max(g.mdeg())

    def test_jacobian_determinant_of_tame_map_is_constant(self):
        jac = gallery("su_example").jacobian_determinant()
        assert jac.is_constant() and not jac.is_zero()

    def test_jacobian_determinant_small_dimensions(self):
        # the empty matrix has determinant 1; a 1x1 matrix is its entry
        assert PolyMap(()).jacobian_determinant() == Polynomial.constant(0, 1)
        f = PolyMap((p("x^3 + 2*x", n=1),))
        assert f.jacobian_determinant() == p("3*x^2 + 2", n=1)

    def test_json_roundtrip(self):
        f = gallery("nagata")
        assert PolyMap.from_json(f.to_json()) == f

    @pytest.mark.parametrize("varnames", [
        ["x", "x"], ["1", "y"], ["x y", "z"], ["x", ""], ["x"], ["x", 1], "xy"])
    def test_from_json_rejects_bad_vars(self, varnames):
        with pytest.raises(ValueError, match="'vars' must be a list of n distinct"):
            PolyMap.from_json({"n": 2, "vars": varnames, "components": ["x", "x"]})

    def test_from_json_reads_declared_names(self):
        f = PolyMap.from_json({"n": 2, "vars": ["_a", "b2"], "components": ["b2", "_a"]})
        assert f == PolyMap((p("y", n=2), p("x", n=2)))


class TestFactorInverses:
    def check(self, factor):
        n = factor.map.n
        assert factor.map.compose(factor.inverse) == identity(n)
        assert factor.inverse.compose(factor.map) == identity(n)

    def test_elementary(self):
        self.check(elementary(3, 1, p("x^3 + z")))
        with pytest.raises(ValueError):
            elementary(3, 1, p("y"))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_elementary_is_x_i_plus_and_minus_f(self, n):
        # each component as the ring operations x_i + f and x_i - f make it:
        # the same terms in the same order over the same denominator
        for i in range(n):
            others = [Polynomial.variable(n, j) for j in range(n) if j != i]
            fs = [Polynomial.zero(n), Polynomial.constant(n, 3),
                  Polynomial.constant(n, Fraction(-2, 9))]
            if others:
                fs += [others[0] * Fraction(5, 6) + Fraction(1, 4),
                       others[-1] ** 3 - 2 * others[0] * others[-1] + 7]
            for f in fs:
                factor = elementary(n, i, f)
                for got, want in [(factor.map, identity(n).components[i] + f),
                                  (factor.inverse, identity(n).components[i] - f)]:
                    c = got.components[i]
                    assert (c, c.denominator, list(c.numerators)) == (
                        want, want.denominator, list(want.numerators))
                    assert got.components[:i] + got.components[i + 1:] == \
                        identity(n).components[:i] + identity(n).components[i + 1:]

    def test_identity_is_shared(self):
        assert identity(3) is identity(3)
        assert identity(3).components == tuple(Polynomial.variable(3, i) for i in range(3))

    def test_affine(self):
        self.check(affine([[1, 2], [1, 3]], [5, -1]))
        with pytest.raises(SingularMatrixError):
            affine([[1, 2], [2, 4]])
        assert affine([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).map == gallery("swap13")

    def test_compose_all_order(self):
        # compose_all([A, B]) applies B first: the list is written
        # in composition order A . B
        a = elementary(2, 0, parse_poly("y^2", n=2)).map
        b = elementary(2, 1, parse_poly("x^3", n=2)).map
        assert compose_all([a, b]) == a.compose(b)


class TestGallery:
    def test_names_stable(self):
        names = gallery_names()
        assert "nagata" in names and "su_example" in names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            gallery("nope")

    def test_frozen_text(self):
        t1 = gallery("su_t1")
        assert t1.components[1] == p("x^2 + y")
        assert t1.components[2] == p("x^3 + 2*x*y + z")

    def test_partial_and_full_composites(self):
        t1, t2 = gallery("su_t1"), gallery("su_t2")
        assert t2.compose(t1).mdeg() == (9, 6, 3)
        assert gallery("su_example").mdeg() == (9, 6, 8)

    def test_su_example_is_the_advertised_composite(self):
        expected = compose_all([gallery("su_l"), gallery("su_t3"),
                                gallery("su_t2"), gallery("su_t1")])
        assert gallery("su_example") == expected


class TestNagata:
    def test_base_map(self):
        n1 = gallery("nagata")
        f, g, h = n1.components
        assert g * g + h * f == p("y^2 + z*x")

    def test_power_mdegs(self):
        for m in range(1, 7):
            assert nagata_power(m).mdeg() == (4 * m - 3, 4 * m - 1, 4 * m + 1)

    def test_power_invariant_preserved(self):
        # the constructor itself asserts g^2 + h*f == y^2 + z*x at every step;
        # re-check the final map independently here
        f, g, h = nagata_power(4).components
        assert g * g + h * f == p("y^2 + z*x")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nagata_power(0)
