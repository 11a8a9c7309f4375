import random
from fractions import Fraction

import pytest

from tamedeg.bracket import (confined_to_first_two, is_power_proportional,
                             jac_minor, poisson_degree, reduced_pair_report,
                             su_lower_bound)
from tamedeg.maps import compose_all, elementary, linear_map
from tamedeg.poly import NEG_INF, Polynomial, parse_poly


def p(text, n=3):
    return parse_poly(text, n=n)


def random_poly(rng, n=3, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * n
        for _ in range(rng.randrange(0, max_deg + 1)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-4, 5) or 1)
    return Polynomial(n, terms)


class TestMinors:
    def test_antisymmetry_in_functions(self):
        f, g = p("x^2 + y*z"), p("z^3 - x")
        for i in range(3):
            for j in range(i + 1, 3):
                assert jac_minor(f, g, i, j) == jac_minor(g, f, i, j).scale(-1)

    def test_index_validation(self):
        f = p("x")
        with pytest.raises(IndexError):
            jac_minor(f, f, 1, 1)
        with pytest.raises(IndexError):
            jac_minor(f, f, 2, 1)

    def test_simple_values(self):
        assert jac_minor(p("x"), p("y"), 0, 1) == Polynomial.constant(3, 1)
        assert jac_minor(p("x"), p("x^2"), 0, 1).is_zero()


class TestPoissonDegree:
    def test_coordinates(self):
        assert poisson_degree(p("x"), p("y")) == 2

    def test_dependent_pair(self):
        f = p("x + y^2")
        assert poisson_degree(f, f * f) == NEG_INF
        assert poisson_degree(f, Polynomial.constant(3, 5)) == NEG_INF

    def test_subadditivity_and_equality_cases(self):
        rng = random.Random(11)
        checked_eq = checked_lt = 0
        for _ in range(200):
            f, g = random_poly(rng), random_poly(rng)
            if f.total_degree() < 1 or g.total_degree() < 1:
                continue
            d = poisson_degree(f, g)
            bound = f.total_degree() + g.total_degree()
            assert d <= bound
            # equality exactly when the leading forms are independent
            forms_indep = poisson_degree(
                f.leading_form(), g.leading_form()) != NEG_INF
            if forms_indep:
                assert d == bound
                checked_eq += 1
            else:
                assert d < bound
                checked_lt += 1
        assert checked_eq > 20 and checked_lt > 10

    def test_linear_change_invariance(self):
        rng = random.Random(5)
        for _ in range(200):
            f, g = random_poly(rng), random_poly(rng)
            while True:
                rows = [[rng.randrange(-2, 3) for _ in range(3)]
                        for _ in range(3)]
                det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                       - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                       + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
                if det != 0:
                    break
            lin = linear_map(rows).map.components
            fl, gl = f.substitute(list(lin)), g.substitute(list(lin))
            assert poisson_degree(fl, gl) == poisson_degree(f, g)


class TestPowerProportional:
    def test_exact_power(self):
        assert is_power_proportional(p("4*x^6"), p("2*x^2")) == (Fraction(1, 2), 3)
        assert is_power_proportional(p("6"), p("4")) == (Fraction(3, 2), 1)

    def test_not_a_power(self):
        assert is_power_proportional(p("x^2 + y^2"), p("x")) is None
        assert is_power_proportional(p("x^3"), p("x^2")) is None
        assert is_power_proportional(p("x"), p("4")) is None

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            is_power_proportional(p("x + 1"), p("x"))


class TestReducedPair:
    def test_star_reduced_example(self):
        report = reduced_pair_report(p("x + y^2"), p("y^3"))
        assert report.independent
        assert report.leading_forms_dependent
        assert not report.f_bar_in_g_bar
        assert not report.g_bar_in_f_bar
        assert report.is_star_reduced
        assert report.p == 2

    def test_power_multiple_not_star_reduced(self):
        report = reduced_pair_report(p("x"), p("y + x^2"))
        # leading forms x and x^2: one is a power of the other
        assert report.g_bar_in_f_bar
        assert not report.is_star_reduced

    def test_independent_forms_not_star_reduced(self):
        report = reduced_pair_report(p("x"), p("y"))
        assert not report.leading_forms_dependent
        assert not report.is_star_reduced

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            reduced_pair_report(p("3"), p("x"))


class TestLowerBound:
    def test_frozen_values(self):
        assert su_lower_bound(6, 8, 2, 1) == 8
        assert su_lower_bound(6, 9, 11, 2) == 14
        assert su_lower_bound(6, 8, 2, 0) == 0

    def test_full_block_scaling(self):
        # degy a multiple of p contributes whole blocks, no remainder term
        p_val = 6 // 2  # gcd(6, 8) = 2
        for blocks in range(1, 5):
            assert (su_lower_bound(6, 8, 2, p_val * blocks)
                    == blocks * su_lower_bound(6, 8, 2, p_val))

    def test_remainder_term(self):
        # below a full block the bound is just degy * deg_g
        for degy in range(0, 5):  # p = 5 for the pair (5, 7)
            assert su_lower_bound(5, 7, 4, degy) == degy * 7

    def test_requires_sorted_degrees(self):
        with pytest.raises(ValueError):
            su_lower_bound(8, 6, 2, 1)


class TestConfinement:
    def test_plane_pairs_with_unit_linear_parts(self):
        # pairs built inside C[x,y] (embedded in 3 variables) whose linear
        # parts are exactly x and y: the confinement implication must hold
        rng = random.Random(23)
        for _ in range(100):
            chain = []
            for step in range(rng.randrange(1, 4)):
                coord = step % 2
                other = 1 - coord
                deg = rng.randrange(2, 4)
                exps = [0, 0, 0]
                exps[other] = deg
                chain.append(elementary(
                    3, coord,
                    Polynomial(3, {tuple(exps): Fraction(rng.choice([1, -1, 2]))})))
            m = compose_all([c.map for c in chain])
            f, g = m.components[0], m.components[1]
            assert f.homogeneous_part(1) == p("x")
            assert g.homogeneous_part(1) == p("y")
            assert confined_to_first_two(f, g)

    def test_escaping_pair_detected(self):
        # bracket degree 2 but involving the third variable: implication fails
        assert not confined_to_first_two(p("z"), p("x"))

    def test_high_bracket_degree_is_vacuous(self):
        assert confined_to_first_two(p("x + z^2"), p("y"))
