import random
from fractions import Fraction

import pytest

from tamedeg import reductions
from tamedeg.linalg import solve_linear
from tamedeg.maps import PolyMap, compose_all, elementary, gallery
from tamedeg.poly import Polynomial, parse_poly
from tamedeg.reductions import (ReductionCandidate, bounded_reduction_search,
                                check_elementary_reduction, type3_shape)


def p(text):
    return parse_poly(text, n=3)


def planted_map(rng):
    """A 3-dimensional map whose first component hides g(F_2, F_3) on top of
    a lower-degree part: the search must strip it off."""
    e1 = elementary(3, 2, p("x^2 + y"))
    e2 = elementary(3, 1, p("x^2"))
    base = compose_all([e1.map, e2.map])
    s = rng.randrange(1, 3)
    t = rng.randrange(0, 3)
    c = Fraction(rng.choice([1, -1, 2]))
    g = Polynomial(2, {(s, t): c})
    comps = list(base.components)
    planted = comps[0] + g.substitute([comps[1], comps[2]])
    if planted.total_degree() <= comps[0].total_degree():
        return None
    return PolyMap((planted, comps[1], comps[2]))


class TestCheck:
    def test_exact_reduction_detected(self):
        f = gallery("su_t1")  # (x, x^2 + y, x^3 + 2*x*y + z)
        m = PolyMap((f.components[0] + f.components[1] ** 2,
                     f.components[1], f.components[2]))
        cand = ReductionCandidate(0, Polynomial(2, {(2, 0): Fraction(1)}))
        ok, achieved = check_elementary_reduction(m, cand)
        assert ok
        assert achieved == 1

    def test_non_reduction_reported(self):
        m = gallery("su_t1")
        cand = ReductionCandidate(2, Polynomial(2, {(5, 0): Fraction(1)}))
        ok, achieved = check_elementary_reduction(m, cand)
        assert not ok
        assert achieved == 5

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            check_elementary_reduction(
                PolyMap((parse_poly("x", n=2), parse_poly("y", n=2))),
                ReductionCandidate(0, Polynomial(2, {})))


class TestBoundedSearch:
    def test_absent_on_irreducible_example(self):
        f = gallery("su_example")
        for i in range(3):
            assert bounded_reduction_search(f, i, 4, 12) is None
        # a zero target, and a constant component beside the target
        for text in (("0", "y", "z"), ("x^2 + z", "3", "z")):
            assert bounded_reduction_search(
                PolyMap(tuple(map(p, text))), 0, 4, 12) is None

    def test_plant_and_recover(self):
        rng = random.Random(3)
        recovered = 0
        attempts = 0
        while recovered < 100 and attempts < 400:
            attempts += 1
            m = planted_map(rng)
            if m is None:
                continue
            cand = bounded_reduction_search(m, 0, 6, 20)
            assert cand is not None, m
            ok, _ = check_elementary_reduction(m, cand)
            assert ok
            recovered += 1
        assert recovered == 100

    def test_plant_and_recover_rational(self):
        # every component has its own denominator, so the columns of the
        # linear system and its right-hand side are numerators over
        # different denominators
        f2 = p("1/3*y + 2/3*x^2")
        f3 = p("2/5*z + 1/7*x^3 + y")
        g = Polynomial(2, {(2, 1): Fraction(3, 4), (1, 0): Fraction(-5, 6)})
        m = PolyMap((p("1/2*x") + g.substitute([f2, f3]), f2, f3))
        cand = bounded_reduction_search(m, 0, 4, 12)
        assert cand is not None
        assert check_elementary_reduction(m, cand) == (True, 2)

    def test_found_candidate_matches_plant(self):
        rng = random.Random(8)
        m = None
        while m is None:
            m = planted_map(rng)
        cand = bounded_reduction_search(m, 0, 6, 20)
        reduced = m.components[0] - cand.g.substitute(
            [m.components[1], m.components[2]])
        assert reduced.total_degree() < m.components[0].total_degree()

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            bounded_reduction_search(gallery("su_t1"), 0, -1, 12)
        with pytest.raises(IndexError):
            bounded_reduction_search(gallery("su_t1"), 3, 4, 12)

    def test_tight_bounds_miss_the_plant(self):
        # with a total-degree bound below the planted degree nothing is found
        rng = random.Random(8)
        m = None
        while m is None:
            m = planted_map(rng)
        top = int(m.components[0].total_degree())
        assert bounded_reduction_search(m, 0, 6, top - 3) is None


class TestTypeThreeShape:
    def test_matching_shapes(self):
        assert type3_shape(3, 4, 6)
        assert type3_shape(6, 8, 11)  # d1 = 3n/2 with 5n/2 < d3 <= 3n

    def test_non_matching(self):
        assert not type3_shape(5, 6, 9)
        assert not type3_shape(2, 3, 5)
        assert not type3_shape(1, 1, 1)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            type3_shape(4, 3, 6)


def test_powers_of_y_stop_at_degy_bound(monkeypatch):
    # Y = x^2 + y is the higher-degree non-target component; deg_bound 12
    # would allow Y^6, but no support uses a power of Y above degy_bound
    m = PolyMap((p("z"), p("x"), p("x^2 + y")))
    hi = m.components[2]
    powers_built = []
    original = Polynomial.__mul__

    def counted(self, other):
        if other is hi:
            powers_built.append(self)
        return original(self, other)
    monkeypatch.setattr(Polynomial, "__mul__", counted)
    bounded_reduction_search(m, 0, 1, 12)
    assert len(powers_built) == 1


def test_class_zero_builds_no_power_of_y(monkeypatch):
    # F_1 - X^3 = z with X = F_2 = x is solved in class t_max = 0, so no
    # power of Y = F_3 is built, and a product with exponent 0 on one side
    # is taken as it is, not multiplied by the constant 1.  X and Y have
    # equal degrees, so no pruning bound is computed and every product
    # recorded is the search's own.
    m = PolyMap((p("z + x^3"), p("x"), p("y")))
    hi = m.components[2]
    operands = []
    original = Polynomial.__mul__

    def recorded(self, other):
        operands.append((self, other))
        return original(self, other)
    monkeypatch.setattr(Polynomial, "__mul__", recorded)
    solves = []

    def counted_solve(rows, rhs):
        solves.append(len(rows[0]))
        return solve_linear(rows, rhs)
    monkeypatch.setattr(reductions, "solve_linear", counted_solve)
    cand = bounded_reduction_search(m, 0, 4, 12)
    assert cand.g == Polynomial(2, {(3, 0): 1})
    assert solves == [13]  # one class: X^0..X^12
    assert operands
    for a, b in operands:
        assert a.total_degree() > 0 and b.total_degree() > 0
        assert a is not hi and b is not hi
