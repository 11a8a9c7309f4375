"""Differential tests of ``bounded_reduction_search`` against the search it
replaced.

``reductions.bounded_reduction_search`` packs X, Y and F_i once, in one
graded layout (a field per variable and the total degree in a field above
them), builds every power and product with ``_mul_packed`` on packed dicts,
keeps a monomial by comparing its key with the packed degree of F_i, keys
the rows by the packed int and keeps each column over the unreduced
denominator den(X)^s den(Y)^t.  The reference below is the earlier search:
every power and product is a ``Polynomial`` built by ``Polynomial.__mul__``,
a monomial is kept when ``sum(exps)`` reaches deg F_i, the rows are keyed by
exponent tuples and each column is over the product's reduced denominator.

On every map both must return None, or candidates with the same ``g`` and
the same achieved degree.  The maps have rational coefficients in all three
components, planted monomials g(F_j, F_k) on top of F_i, every target index,
and total-degree bounds below deg Y and below deg F_i as well as above them.
"""
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from conftest import planted_map
from tamedeg import reductions
from tamedeg.bracket import reduced_pair_report, su_lower_bound
from tamedeg.linalg import solve_linear
from tamedeg.maps import PolyMap
from tamedeg.poly import NEG_INF, Polynomial
from tamedeg.reductions import (ReductionCandidate, bounded_reduction_search,
                                check_elementary_reduction)


# -- oracle: the search over Polynomial powers and tuple-keyed rows ---------

def oracle_search(f_map: PolyMap, i: int, degy_bound: int,
                  deg_bound: int) -> Optional[ReductionCandidate]:
    j, k = [t for t in range(3) if t != i]
    target = f_map.components[i]
    d_target = target.total_degree()
    if d_target == NEG_INF:
        return None
    lo, hi = f_map.components[j], f_map.components[k]
    transposed = False
    if lo.total_degree() > hi.total_degree():
        lo, hi = hi, lo
        transposed = True
    d_lo, d_hi = lo.total_degree(), hi.total_degree()
    if d_lo < 1 or d_hi < 1:
        return None

    prune = None
    if d_lo < d_hi:
        report = reduced_pair_report(lo, hi)
        if (report.independent and not report.f_bar_in_g_bar
                and not report.g_bar_in_f_bar):
            bracket = int(report.bracket_degree)
            prune = lambda t: su_lower_bound(int(d_lo), int(d_hi), bracket, t) > d_target

    pow_lo = [Polynomial.constant(3, 1), lo]
    while len(pow_lo) * d_lo <= deg_bound:
        pow_lo.append(pow_lo[-1] * lo)
    pow_hi = [pow_lo[0]]
    tops: dict[tuple[int, int], tuple[int, list]] = {}
    top = {exps: v for exps, v in target.numerators.items() if sum(exps) >= d_target}

    for t_max in range(min(degy_bound, deg_bound // d_hi) + 1):
        if prune is not None and prune(t_max):
            continue
        support = [(s, t)
                   for t in range(t_max + 1)
                   for s in range(len(pow_lo))
                   if s * d_lo + t * d_hi <= deg_bound]
        while len(pow_hi) <= t_max:
            pow_hi.append(pow_hi[-1] * hi)
        rows: dict[tuple, dict[int, int]] = {}
        for col, (s, t) in enumerate(support):
            if s * d_lo + t * d_hi < d_target:
                continue
            if (s, t) not in tops:
                p = (pow_hi[t] if not s else pow_lo[s] if not t
                     else pow_lo[s] * pow_hi[t])
                tops[s, t] = p.denominator, [
                    (exps, v) for exps, v in p.numerators.items() if sum(exps) >= d_target]
            for exps, v in tops[s, t][1]:
                rows.setdefault(exps, {})[col] = v
        for exps in top:
            rows.setdefault(exps, {})
        solution = solve_linear(list(rows.values()), [top.get(exps, 0) for exps in rows],
                                len(support))
        if solution is None:
            continue
        terms = {}
        for (s, t), c in zip(support, solution):
            if c:
                exps = (t, s) if transposed else (s, t)
                terms[exps] = c * tops[s, t][0] / target.denominator
        g = Polynomial(2, terms)
        ok, achieved = check_elementary_reduction(f_map, ReductionCandidate(i, g))
        if ok:
            return ReductionCandidate(i, g, achieved)
    return None


# -- seeded maps --------------------------------------------------------------

def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 7]))


def random_component(rng: random.Random, deg: int) -> Polynomial:
    """A sparse polynomial in 3 variables of exact degree ``deg`` with up to
    four rational terms."""
    terms = {}
    for d in [deg] + [rng.randrange(0, deg + 1) for _ in range(rng.randrange(0, 4))]:
        a = rng.randrange(0, d + 1)
        b = rng.randrange(0, d - a + 1)
        terms[a, b, d - a - b] = rational(rng)
    return Polynomial(3, terms)


def seeded_case(rng: random.Random):
    """(map, target index, degy_bound, deg_bound).  F_i is a lower part plus,
    most of the time, a planted g(F_j, F_k) of one to three monomials."""
    i = rng.randrange(3)
    j, k = [t for t in range(3) if t != i]
    comps = [None] * 3
    comps[j] = random_component(rng, rng.randrange(1, 4))
    comps[k] = random_component(rng, rng.randrange(1, 4))
    target = random_component(rng, rng.randrange(1, 4))
    if rng.random() < 0.8:
        g = Polynomial(2, {(rng.randrange(0, 3), rng.randrange(0, 3)): rational(rng)
                           for _ in range(rng.randrange(1, 4))})
        target = target + g.substitute([comps[j], comps[k]])
    comps[i] = target
    m = PolyMap(tuple(comps))
    d_target = max(int(target.total_degree()), 1)
    d_hi = int(max(comps[j].total_degree(), comps[k].total_degree()))
    deg_bound = rng.choice([max(d_hi - 1, 1), max(d_target - 1, 1), d_target,
                            d_target + rng.randrange(1, 5), rng.randrange(1, 13)])
    return m, i, rng.randrange(0, 5), deg_bound


def assert_agree(m, i, degy_bound, deg_bound):
    got = bounded_reduction_search(m, i, degy_bound, deg_bound)
    want = oracle_search(m, i, degy_bound, deg_bound)
    assert got == want, (m, i, degy_bound, deg_bound)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_seeded_maps_agree(seed):
    rng = random.Random(1000 + seed)
    found = 0
    targets = set()
    below = {"deg Y": 0, "deg F_i": 0}
    for _ in range(100):
        m, i, degy_bound, deg_bound = seeded_case(rng)
        found += assert_agree(m, i, degy_bound, deg_bound) is not None
        targets.add(i)
        d_hi = max(m.components[t].total_degree() for t in range(3) if t != i)
        below["deg Y"] += deg_bound < d_hi
        below["deg F_i"] += deg_bound < m.components[i].total_degree()
    # not vacuous: reductions are found, on every target index, and the
    # bounds fall below both degrees
    assert found >= 20
    assert targets == {0, 1, 2}
    assert all(below.values()), below


def test_planted_maps_agree():
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        m = planted_map(rng)
        if m is None:
            continue
        top = int(m.components[0].total_degree())
        for degy_bound, deg_bound in ((6, 20), (2, top), (1, top - 1)):
            found += assert_agree(m, 0, degy_bound, deg_bound) is not None
    assert found >= 20


def test_rational_columns_agree():
    # every component has its own denominator, and X's numerators share a
    # factor with Y's denominator, so den(X)^s den(Y)^t is not reduced
    f2 = Polynomial(3, {(2, 0, 0): Fraction(2, 3), (0, 1, 0): Fraction(1, 3)})
    f3 = Polynomial(3, {(0, 0, 1): Fraction(2, 5), (3, 0, 0): Fraction(1, 7),
                        (0, 1, 0): Fraction(4)})
    g = Polynomial(2, {(2, 1): Fraction(3, 4), (1, 0): Fraction(-5, 6)})
    for i in range(3):
        comps = [f2, f3]
        comps.insert(i, Polynomial(3, {(1, 0, 0): Fraction(1, 2)})
                     + g.substitute(comps))
        m = PolyMap(tuple(comps))
        cand = assert_agree(m, i, 4, 12)
        assert cand is not None


def test_sweep_skips_classes_by_degree(monkeypatch):
    # the search skips a class of Y-degree below p = deg X / gcd(deg X,
    # deg Y) whose products have no degree equal to deg F_i, before solving
    # it; the oracle solves every class.  On the seeded sweep above the
    # search solves no class the oracle does not, and skips some it solves,
    # so the agreement there covers the skip.
    solves, original = Counter(), solve_linear

    def counting(name):
        def counted(rows, rhs, ncols):
            solves[name] += 1
            return original(rows, rhs, ncols)
        return counted
    monkeypatch.setattr(reductions, "solve_linear", counting("search"))
    monkeypatch.setitem(globals(), "solve_linear", counting("oracle"))
    skipped = 0
    for seed in range(4):
        rng = random.Random(1000 + seed)
        for _ in range(100):
            solves.clear()
            assert_agree(*seeded_case(rng))
            assert solves["search"] <= solves["oracle"]
            skipped += solves["oracle"] - solves["search"]
    assert skipped >= 1, skipped
