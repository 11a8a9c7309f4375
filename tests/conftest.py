"""Shared helpers for randomized corpora.

All randomness is seeded per test; nothing here touches global state.
"""
import random
from fractions import Fraction

from tamedeg.maps import PolyMap, affine, compose_all, elementary
from tamedeg.poly import Polynomial, parse_poly


def sparse_univariate(rng: random.Random, deg: int, var: int) -> Polynomial:
    """A 2-variable polynomial in the single variable ``var`` with exact
    degree ``deg`` and one or two terms."""
    exps = [0, 0]
    exps[var] = deg
    terms = {tuple(exps): Fraction(rng.choice([1, -1, 2, 3]))}
    if deg > 2 and rng.random() < 0.6:
        low = [0, 0]
        low[var] = rng.randrange(2, deg)
        terms[tuple(low)] = Fraction(rng.choice([1, -1, 2]))
    return Polynomial(2, terms)


def random_affine2(rng: random.Random):
    """An invertible affine plane map with small integer entries."""
    while True:
        rows = [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
            return affine(rows, [rng.randrange(-2, 3), rng.randrange(-2, 3)])


def random_plane_chain(rng: random.Random, max_degree_product: int = 32
                       ) -> tuple[PolyMap, int, list[int]]:
    """A seeded tame plane automorphism built from an explicit normalized
    chain: (composed map, length, sorted factor degrees).

    Lengths are 1..4 and factor degrees 2..5; candidates whose degree product
    exceeds ``max_degree_product`` are resampled so that exact arithmetic on
    the composition stays fast (the product bounds deg of the composition).
    """
    while True:
        length = rng.randrange(1, 5)
        degs = [rng.randrange(2, 6) for _ in range(length)]
        product = 1
        for d in degs:
            product *= d
        if product <= max_degree_product:
            break
    factors = []
    for i in range(1, length + 1):
        # alternate orientations so the chain is already normalized and its
        # length cannot collapse
        var = 1 if i % 2 == 1 else 0
        coord = 0 if i % 2 == 1 else 1
        factors.append(elementary(2, coord, sparse_univariate(rng, degs[i - 1], var)))
    l1, l2 = random_affine2(rng), random_affine2(rng)
    chain = [l2.map] + [f.map for f in reversed(factors)] + [l1.map]
    return compose_all(chain), length, sorted(degs)


def planted_map(rng: random.Random):
    """A 3-dimensional map whose first component hides g(F_2, F_3) on top of
    a lower-degree part: the search must strip it off.  None when the plant
    does not raise the degree."""
    e1 = elementary(3, 2, parse_poly("x^2 + y", n=3))
    e2 = elementary(3, 1, parse_poly("x^2", n=3))
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
