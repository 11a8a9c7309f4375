import random
from fractions import Fraction

import pytest

from conftest import planted_map
from tamedeg import linalg, poly, reductions
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
    # F_1 - X^3 = z with X = F_2 = x - 2*y + 3 is solved in class t_max = 0,
    # so no power of Y = F_3 is built, and a product with exponent 0 on one
    # side is taken as it is, not multiplied by the constant 1.  X and Y have
    # equal degrees, so no pruning bound is computed.  Products are counted
    # in the search and in poly's power loop; X has three terms, so each of
    # its powers is a product.  Every product formed before the solve is a
    # power of X: its operands are X itself or earlier products, and none is
    # the constant, whose only packed key is 0.
    m = PolyMap((p("z + (x - 2*y + 3)^3"), p("x - 2*y + 3"), p("y")))
    operands, products = [], []
    original = reductions._mul_packed

    def recorded(a, b):
        operands.extend((a, b))
        products.append(original(a, b))
        return products[-1]
    monkeypatch.setattr(reductions, "_mul_packed", recorded)
    monkeypatch.setattr(poly, "_mul_packed", recorded)
    solves = []

    def counted_solve(rows, rhs, ncols):
        solves.append((ncols, len(products)))
        return solve_linear(rows, rhs, ncols)
    monkeypatch.setattr(reductions, "solve_linear", counted_solve)
    cand = bounded_reduction_search(m, 0, 4, 12)
    assert cand.g == Polynomial(2, {(3, 0): 1})
    assert solves == [(13, 11)]  # one class: X^0..X^12, after X^2..X^12
    operands, products = operands[:22], products[:11]
    assert all(max(a) > 0 for a in operands)
    built = {id(q) for q in products}
    assert len({id(a) for a in operands if id(a) not in built}) == 1


def test_found_search_eliminates_no_repeated_unit_row(monkeypatch):
    # X = y + x^2 and Y = z + 2*x^2 + y have proportional leading forms, so
    # 2*X^2*Y^2 is found in the class of Y-degree 0 as 8*X^4.  The powers of
    # X share no monomial of degree >= 8, so every row of that class has a
    # single product entry and each later one-entry row repeats a column:
    # the class is solved with no elimination.
    m = PolyMap((p("x + 2*(y + x^2)^2*(z + 2*x^2 + y)^2"), p("y + x^2"),
                 p("z + 2*x^2 + y")))
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: calls.append(a) or eliminate(*a))
    cand = bounded_reduction_search(m, 0, 8, 40)
    assert cand.g == Polynomial(2, {(4, 0): 8})
    assert cand.achieved_degree == 7
    assert calls == []


LINEAR = ("x + y + z", "x + 2*y + 3*z", "z + 5*x + 7*y")


def test_search_cells_bound_before_a_class_is_built(monkeypatch):
    # deg X = deg Y = 1 and 12,340 monomials of degree 1 to 40 in x, y, z.
    # Classes 0, 1, 2 set up 41 + 81 + 120 columns; class 3 would take the
    # total to 400 columns, over the bound, so it is refused before its
    # power of Y or its products are built.  Built before the refusal:
    # X^2..X^40 (39), Y^2 (1) and X^s Y^t for t = 1, s <= 39 and t = 2,
    # s <= 38 (77).
    products, solves = [], []
    original = reductions._mul_packed
    for module in (reductions, poly):  # the search's products and X's powers
        monkeypatch.setattr(module, "_mul_packed",
                            lambda a, b: products.append(1) or original(a, b))
    monkeypatch.setattr(reductions, "solve_linear",
                        lambda rows, rhs, ncols: solves.append(ncols) or solve_linear(
                            rows, rhs, ncols))
    m = PolyMap(tuple(p(c) for c in LINEAR))
    with pytest.raises(ValueError, match=r"^reduction search may exceed 4000000 cells "
                                         r"\(400 products x 12340 monomials\)$"):
        bounded_reduction_search(m, 2, 40, 40)
    assert solves == [41, 81, 120]
    assert len(products) == 117


def test_search_cells_estimate(monkeypatch):
    # degy_bound 2, deg_bound 4: classes of 5, 9 and 12 products, 26 in all,
    # and C(7, 3) - 1 = 34 monomials of degree 1 to 4; the bound is inclusive
    m = PolyMap(tuple(p(c) for c in LINEAR))
    monkeypatch.setattr(reductions, "MAX_SEARCH_CELLS", 26 * 34)
    assert bounded_reduction_search(m, 2, 2, 4) is None
    monkeypatch.setattr(reductions, "MAX_SEARCH_CELLS", 26 * 34 - 1)
    with pytest.raises(ValueError, match=r"\(26 products x 34 monomials\)$"):
        bounded_reduction_search(m, 2, 2, 4)


def test_search_solved_early_is_not_refused():
    # (x + y^2, y, z) is solved by X^2 in the class of Y-degree 0: 41
    # products x 12,337 monomials of degree 2 to 40.  The class of Y-degree
    # 8, which this search never sets up, would alone have 333 products,
    # 4,108,221 cells, over the bound.
    m = PolyMap((p("x + y^2"), p("y"), p("z")))
    cand = bounded_reduction_search(m, 0, 8, 40)
    assert cand.g == Polynomial(2, {(2, 0): 1})
    assert cand.achieved_degree == 1


def test_benchmark_searches_within_half_the_bound(monkeypatch):
    # the planted maps of every shape and su_example, at the bounds the
    # benchmark searches with, estimate at most half of MAX_SEARCH_CELLS
    monkeypatch.setattr(reductions, "MAX_SEARCH_CELLS", reductions.MAX_SEARCH_CELLS // 2)
    base = (p("x"), p("y + x^2"), p("z + 2*x^2 + y"))
    for s in (1, 2):
        for t in (0, 1, 2):
            g = Polynomial(2, {(s, t): 1})
            m = PolyMap((base[0] + g.substitute(list(base[1:])),) + base[1:])
            assert bounded_reduction_search(m, 0, 8, 40) is not None
    su = gallery("su_example")
    for i in range(3):
        assert bounded_reduction_search(su, i, 8, 40) is None
