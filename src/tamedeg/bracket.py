"""Poisson-bracket degree, Jacobian minors, and degree lower bounds.

For f, g in n variables, deg[f,g] is 2 plus the maximal total degree of the
2x2 Jacobian minors of (f,g); it is NEG_INF exactly when f and g are
algebraically dependent, and deg f + deg g exactly when their leading forms
are independent: the minors' parts of degree deg f + deg g - 2 are the
forms' minors.  The star-reduced predicate, the composition degree lower
bound and ``cancel_top``, the one test of whether a form is a multiple of
another (plane peeling uses it too), live here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .poly import NEG_INF, Polynomial


def jac_minor(f: Polynomial, g: Polynomial, i: int, j: int) -> Polynomial:
    """df/dx_i * dg/dx_j - df/dx_j * dg/dx_i, 0-based i < j."""
    if f.n != g.n:
        raise ValueError("variable counts differ")
    if not (0 <= i < j < f.n):
        raise IndexError(f"need 0 <= i < j < n, got i={i}, j={j}, n={f.n}")
    return (f.partial_derivative(i) * g.partial_derivative(j)
            - f.partial_derivative(j) * g.partial_derivative(i))


def poisson_degree(f: Polynomial, g: Polynomial):
    """deg[f,g]: 2 + max over i<j of deg(jac_minor); NEG_INF if all vanish."""
    if f.n != g.n:
        raise ValueError("variable counts differ")
    best = NEG_INF
    for i in range(f.n):
        for j in range(i + 1, f.n):
            d = jac_minor(f, g, i, j).total_degree()
            if d > best:
                best = d
    return NEG_INF if best == NEG_INF else best + 2


def cancel_top(p: Polynomial, q: Polynomial) -> tuple:
    """(c, p - c*q) with c read at a top monomial of q: the degree of p drops
    exactly when lead(p) = c * lead(q)."""
    e = max(q.numerators, key=sum)
    c = p.coefficient(e) / q.coefficient(e)
    return c, p - q.scale(c)


def is_power_proportional(hbar: Polynomial, fbar: Polynomial
                          ) -> Optional[tuple[Fraction, int]]:
    """(c, k) with hbar = c * fbar^k exactly, or None.

    Both inputs must be homogeneous and nonzero; for homogeneous forms this
    is exactly the membership test hbar in C[fbar].
    """
    if hbar.is_zero() or fbar.is_zero():
        raise ValueError("inputs must be nonzero")
    if not hbar.is_homogeneous() or not fbar.is_homogeneous():
        raise ValueError("inputs must be homogeneous")
    dh = int(hbar.total_degree())
    df = int(fbar.total_degree())
    if df == 0:
        if dh != 0:
            return None
        return (hbar.constant_term() / fbar.constant_term(), 1)
    if dh % df:
        return None
    k = dh // df
    c, rest = cancel_top(hbar, fbar ** k)
    return None if rest else (c, k)


@dataclass(frozen=True)
class ReducedPairReport:
    independent: bool
    leading_forms_dependent: bool
    f_bar_in_g_bar: bool
    g_bar_in_f_bar: bool
    is_star_reduced: bool
    p: Optional[int]
    bracket_degree: Union[int, float]  # deg [f, g]; NEG_INF when dependent


def reduced_pair_report(f: Polynomial, g: Polynomial) -> ReducedPairReport:
    """Check the star-reduced conditions for a nonconstant pair.

    (i) f,g algebraically independent; (ii) leading forms dependent;
    (iii) neither leading form is a power multiple of the other.  When all
    hold and deg f != deg g, p = (smaller degree) / gcd of the degrees.
    """
    if f.total_degree() < 1 or g.total_degree() < 1:
        raise ValueError("inputs must be nonconstant")
    bracket_degree = poisson_degree(f, g)
    independent = bracket_degree != NEG_INF
    dependent_forms = bracket_degree < f.total_degree() + g.total_degree()
    fbar, gbar = f.leading_form(), g.leading_form()
    f_in_g = is_power_proportional(fbar, gbar) is not None
    g_in_f = is_power_proportional(gbar, fbar) is not None
    star = independent and dependent_forms and not f_in_g and not g_in_f
    p = None
    if star:
        df, dg = int(f.total_degree()), int(g.total_degree())
        if df != dg:
            p = min(df, dg) // gcd(df, dg)
    return ReducedPairReport(independent, dependent_forms, f_in_g, g_in_f, star, p,
                             bracket_degree)


def su_lower_bound(deg_f: int, deg_g: int, bracket_deg: int, degy_g: int) -> int:
    """Lower bound for deg G(f,g) when (f,g) meet the reduced-pair hypotheses.

    With p = deg_f / gcd(deg_f, deg_g) and degy_g = p*q + r (0 <= r < p),
    the bound is q(p*deg_g - deg_g - deg_f + bracket_deg) + r*deg_g.
    """
    if deg_f >= deg_g:
        raise ValueError("requires deg_f < deg_g")
    if degy_g < 0:
        raise ValueError("degy_g must be nonnegative")
    p = deg_f // gcd(deg_f, deg_g)
    q, r = divmod(degy_g, p)
    return q * (p * deg_g - deg_g - deg_f + bracket_deg) + r * deg_g

