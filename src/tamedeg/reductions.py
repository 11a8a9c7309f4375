"""Elementary-reduction candidate checking and a bounded candidate search.

The search is honest about its scope: it looks for g(F_j, F_k) cancelling the
top of F_i only within the given Y-degree and total-degree bounds, pruning
Y-degree classes whose composition-degree lower bound already exceeds
deg F_i, or whose composition degree is forced and differs from deg F_i.
"Absent" means "not found within bounds", nothing stronger.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Optional

# poisson_degree is not called here; bench/spans.py times it at this name
from .bracket import poisson_degree, reduced_pair_report, su_lower_bound  # noqa: F401
from .linalg import solve_linear
from .maps import PolyMap
from .poly import NEG_INF, Polynomial, _layout, _mul_packed, _pack, _power_row

# The largest composition-degree bound the CLI searches up to.  One Y-degree
# class has a row per monomial of degree from deg F_i up to the bound and a
# column per product within it, so the search's time and memory grow
# without limit in the bound.
MAX_DEG_BOUND = 40

# The most cells a search may set up, summed over the Y-degree classes it
# solves: each class's columns times the monomials of degree from deg F_i up
# to the bound, which bounds that class's rows.  Within MAX_DEG_BOUND a
# search of linear components that set up every class would reach
# 293,951,140 cells (it took 87 s of CPU on a shared 2-CPU machine); no
# search of the benchmark sets up more than 259,077.
MAX_SEARCH_CELLS = 4_000_000


@dataclass(frozen=True)
class ReductionCandidate:
    """g is a 2-variable polynomial; its variables map to the two non-target
    components (F_j, F_k) with j < k."""
    target_index: int  # 0-based
    g: Polynomial
    achieved_degree: object = None  # deg(F_i - g(F_j, F_k)) once checked


def check_elementary_reduction(f_map: PolyMap, cand: ReductionCandidate
                               ) -> tuple[bool, object]:
    """Exact degree of F_i - g(F_j, F_k); True iff strictly below deg F_i."""
    if f_map.n != 3:
        raise ValueError("expects a 3-dimensional map")
    i = cand.target_index
    if not 0 <= i < 3:
        raise IndexError("target index out of range")
    j, k = [t for t in range(3) if t != i]
    reduced = f_map.components[i] - cand.g.substitute(
        [f_map.components[j], f_map.components[k]])
    achieved = reduced.total_degree()
    return achieved < f_map.components[i].total_degree(), achieved


def bounded_reduction_search(f_map: PolyMap, i: int, degy_bound: int,
                             deg_bound: int) -> Optional[ReductionCandidate]:
    """Search for a reducing g with deg_Y g <= degy_bound and composition
    degree at most deg_bound; None when nothing is found within bounds.  A
    found candidate carries the degree its reduction achieves.  ValueError,
    before a class builds its powers of Y and products, when that class
    would take the cells set up by the search past MAX_SEARCH_CELLS.

    Y is the higher-degree non-target component.  A reduction must cancel
    the top, so deg g(F_j, F_k) must equal deg F_i exactly.  A class of fixed
    Y-degree is skipped when the reduced-pair lower bound for that degree
    already exceeds deg F_i, or when its Y-degree is below p = deg X /
    gcd(deg X, deg Y) and none of its products X^s Y^t has degree deg F_i:
    below p no two products share a degree, so the top one g uses survives
    (the q = 0 case of the Shestakov-Umirbaev bound).  A class skipped by
    degree still counts its cells against MAX_SEARCH_CELLS.
    """
    if f_map.n != 3:
        raise ValueError("expects a 3-dimensional map")
    if degy_bound < 0 or deg_bound <= 0:
        raise ValueError("bounds must be positive")
    if not 0 <= i < 3:
        raise IndexError("target index out of range")
    j, k = [t for t in range(3) if t != i]
    target = f_map.components[i]
    d_target = target.total_degree()
    if d_target == NEG_INF:
        return None
    lo, hi = f_map.components[j], f_map.components[k]
    transposed = False  # g's support built as (lo-exponent, hi-exponent)
    if lo.total_degree() > hi.total_degree():
        lo, hi = hi, lo
        transposed = True
    d_lo, d_hi = lo.total_degree(), hi.total_degree()
    if d_lo < 1 or d_hi < 1:
        return None
    monomials = comb(deg_bound + f_map.n, f_map.n) - comb(d_target - 1 + f_map.n, f_map.n)
    period = d_lo // gcd(d_lo, d_hi)  # X^s Y^t with t < period have distinct degrees
    columns = 0  # summed over the classes set up so far

    prune = None
    if d_lo < d_hi:
        report = reduced_pair_report(lo, hi)
        if report.independent and not report.g_bar_in_f_bar:
            bracket = int(report.bracket_degree)
            prune = lambda t: su_lower_bound(int(d_lo), int(d_hi), bracket, t) > d_target

    # One graded layout for the whole search: a field per variable and the
    # total degree in a field above them.  No power or product built below
    # has degree above deg_bound, and none packed has degree above deg F_i
    # or deg Y, so fields that wide never carry, and a key is >= floor
    # exactly when its monomial has degree >= deg F_i.
    shifts, _ = _layout(f_map.n + 1, max(deg_bound, d_target, d_hi).bit_length())
    floor = d_target << shifts[-1]

    def packed(p: Polynomial) -> dict[int, int]:
        return _pack({exps + (sum(exps),): v for exps, v in p.numerators.items()}, shifts)

    # Powers of X = lo are built in full by ``_power_row``, the one power loop
    # (no product for at most two terms), when the first class not skipped is
    # built.  Powers of Y = hi, and the products X^s Y^t, are built when a
    # class that is not skipped first reads them; a class solved at t_max = 0
    # builds no power of Y.  No product has a constant factor: a product with
    # exponent 0 on one side is the other side's power itself.  Of each
    # product only its monomials of degree >= deg F_i are kept for the later
    # classes.
    one, x, y = {0: 1}, packed(lo), packed(hi)
    pow_lo = None
    pow_hi = [one, y]
    tops: dict[tuple[int, int], list[tuple[int, int]]] = {}
    top = {key: v for key, v in packed(target).items() if key >= floor}

    for t_max in range(min(degy_bound, deg_bound // d_hi) + 1):
        if prune is not None and prune(t_max):
            continue
        support = [(s, t)
                   for t in range(t_max + 1)
                   for s in range(deg_bound // d_lo + 1)
                   if s * d_lo + t * d_hi <= deg_bound]
        columns += len(support)
        if columns * monomials > MAX_SEARCH_CELLS:
            raise ValueError(f"reduction search may exceed {MAX_SEARCH_CELLS} cells "
                             f"({columns} products x {monomials} monomials)")
        if t_max < period and d_target not in (s * d_lo + t * d_hi for s, t in support):
            continue
        if pow_lo is None:
            pow_lo = [one, *_power_row(x, range(1, max(1, deg_bound // d_lo) + 1)).values()]
        while len(pow_hi) <= t_max:
            pow_hi.append(_mul_packed(pow_hi[-1], y))
        # Kill every monomial of degree >= deg F_i in F_i - sum c_m X^s Y^t:
        # one sparse row per such monomial, keyed by its packed key.  Column
        # m holds the numerators of product m and the right-hand side those
        # of F_i, so the system's solution is c_m scaled by
        # den(F_i) / (den(X)^s den(Y)^t); scaling columns keeps the pivots.
        # A product of degree s*d_lo + t*d_hi below deg F_i has no entry in
        # any row: its c_m is free and 0.
        rows: dict[int, dict[int, int]] = {}
        for col, (s, t) in enumerate(support):
            if s * d_lo + t * d_hi < d_target:
                continue
            if (s, t) not in tops:
                p = (pow_hi[t] if not s else pow_lo[s] if not t
                     else _mul_packed(pow_lo[s], pow_hi[t]))
                tops[s, t] = [(key, v) for key, v in p.items() if key >= floor]
            for key, v in tops[s, t]:
                rows.setdefault(key, {})[col] = v
        for key in top:
            rows.setdefault(key, {})
        solution = solve_linear(list(rows.values()), [top.get(key, 0) for key in rows],
                                len(support))
        if solution is None:
            continue
        terms = {}
        for (s, t), c in zip(support, solution):
            if c:
                exps = (t, s) if transposed else (s, t)
                terms[exps] = (c * lo.denominator ** s * hi.denominator ** t
                               / target.denominator)
        g = Polynomial(2, terms)
        ok, achieved = check_elementary_reduction(f_map, ReductionCandidate(i, g))
        if ok:
            return ReductionCandidate(i, g, achieved)
    return None
