import random
from fractions import Fraction

import pytest

from conftest import planted_map
from tamedeg import reductions
from tamedeg.linalg import solve_linear
from tamedeg.maps import PolyMap, gallery
from tamedeg.poly import Polynomial, parse_poly
from tamedeg.reductions import (ReductionCandidate, bounded_reduction_search,
                                check_elementary_reduction)


def p(text):
    return parse_poly(text, n=3)


def type3_shape(d1: int, d2: int, d3: int) -> bool:
    """The paper's necessary degree shape for a type-III reduction of a
    sorted triple: d2 = 2n and either (d3 = 3n with n < d1 <= 3n/2) or
    (5n/2 < d3 <= 3n with d1 = 3n/2)."""
    if not 1 <= d1 <= d2 <= d3:
        raise ValueError("need a positive sorted triple")
    if d2 % 2:
        return False
    n = d2 // 2
    if d3 == 3 * n and n < d1 and 2 * d1 <= 3 * n:
        return True
    if 2 * d3 > 5 * n and d3 <= 3 * n and 2 * d1 == 3 * n:
        return True
    return False


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
    # Y = x^2 + y is the higher-degree non-target component and X = x;
    # deg_bound 12 would allow Y^6, but no product uses a power of Y above
    # degy_bound.  X^s Y^t has t + 1 terms, so the largest product built
    # tells the largest power of Y.  Nothing solves the class, and the
    # leading form of Y is a power of X's, so no class is pruned.
    m = PolyMap((p("z"), p("x"), p("x^2 + y")))
    original = reductions._mul_packed
    for degy_bound in (1, 2, 3):
        sizes = []

        def counted(a, b):
            product = original(a, b)
            sizes.append(len(product))
            return product
        monkeypatch.setattr(reductions, "_mul_packed", counted)
        assert bounded_reduction_search(m, 0, degy_bound, 12) is None
        assert max(sizes) == degy_bound + 1


def test_class_zero_builds_no_power_of_y(monkeypatch):
    # F_1 - X^3 = z with X = F_2 = x is solved in class t_max = 0, so no
    # power of Y = F_3 is built, and a product with exponent 0 on one side
    # is taken as it is, not multiplied by the constant 1.  X and Y have
    # equal degrees, so no pruning bound is computed.  Every product is a
    # power of X: its operands are X itself or earlier products, and none
    # is the constant, whose only packed key is 0.
    m = PolyMap((p("z + x^3"), p("x"), p("y")))
    operands, products = [], []
    original = reductions._mul_packed

    def recorded(a, b):
        operands.extend((a, b))
        products.append(original(a, b))
        return products[-1]
    monkeypatch.setattr(reductions, "_mul_packed", recorded)
    solves = []

    def counted_solve(rows, rhs, ncols):
        solves.append(ncols)
        return solve_linear(rows, rhs, ncols)
    monkeypatch.setattr(reductions, "solve_linear", counted_solve)
    cand = bounded_reduction_search(m, 0, 4, 12)
    assert cand.g == Polynomial(2, {(3, 0): 1})
    assert solves == [13]  # one class: X^0..X^12
    assert len(products) == 11  # X^2..X^12
    assert all(max(a) > 0 for a in operands)
    built = {id(q) for q in products}
    assert len({id(a) for a in operands if id(a) not in built}) == 1
