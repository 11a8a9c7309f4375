"""Construction of explicit tame automorphisms realizing a target multidegree.

Each builder returns a Witness: a chain of certified generators (elementary /
affine factors with exact inverses) whose left-to-right composition has
exactly the requested multidegree.  Builders measure the chain's multidegree
with ``maps.chain_mdeg`` before returning, which reads it off leading forms
and composes the chain only where leading forms cancel (every chain of the
cancellation recipes, none of the sum rule's); a mismatch is an
implementation bug and raises.
"""
from __future__ import annotations

import graphlib
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .linalg import SingularMatrixError
from .maps import Factor, PolyMap, affine_factor, chain_mdeg, elementary
from .poly import Polynomial


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessRecipe:
    """A deterministic, JSON-able description of how to build a witness."""
    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass
class Witness:
    target: tuple[int, ...]
    recipe: WitnessRecipe
    factors: list[Factor]
    verified_mdeg: tuple[int, ...]
    cancellation_degree: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "target": list(self.target),
            "recipe": self.recipe.to_json(),
            "factors": [f.map.to_json() for f in self.factors],
        }


def _finish(target, recipe, factors, cancellation_degree=None) -> Witness:
    """The Witness of ``factors``, its mdeg measured by ``chain_mdeg``: read
    off leading forms, and recomposed only where they cancel."""
    mdeg = chain_mdeg([f.map for f in factors])
    if mdeg != tuple(target):
        raise ConstructionError(
            f"witness verification failed: built mdeg {mdeg}, "
            f"target {tuple(target)} (recipe {recipe})")
    return Witness(tuple(target), recipe, list(factors), mdeg, cancellation_degree)


# ---------------------------------------------------------------------------
# sum rule: d_i = sum_{j<i} k_j d_j
# ---------------------------------------------------------------------------

def build_sum_rule(degrees: Sequence[int], index: int, coeffs: Sequence[int]) -> Witness:
    """Witness for sorted degrees d with d_i = sum_{j<i} coeffs[j]*d_j, i = index.

    Index i is 0-based; coeffs has length i with nonnegative entries.  The
    chain is: for each k != i an elementary map adding x_i^{d_k} to x_k, then
    an elementary map adding prod_{j<i} x_j^{coeffs[j]} to x_i.
    """
    d, i = tuple(degrees), index
    n = len(d)
    if not 0 <= i < n:
        raise ConstructionError("index out of range")
    if len(coeffs) != i or any(c < 0 for c in coeffs):
        raise ConstructionError("need one nonnegative coefficient per earlier degree")
    if any(dk < 1 for dk in d):
        raise ConstructionError("degrees must be positive")
    if sum(c * dj for c, dj in zip(coeffs, d)) != d[i]:
        raise ConstructionError(f"{d[i]} != sum of coeffs * earlier degrees")
    head = elementary(n, i, Polynomial._make(n, {tuple(coeffs) + (0,) * (n - i): 1}))
    tail = [elementary(n, k, Polynomial._make(n, {(0,) * i + (d[k],) + (0,) * (n - i - 1): 1}))
            for k in range(n) if k != i]
    recipe = WitnessRecipe("sum_rule",
                           {"degrees": list(d), "index": i, "coeffs": list(coeffs)})
    return _finish(d, recipe, [head] + tail)


def find_sum_rule(degrees: Sequence[int],
                  dec: Optional[tuple[int, int]]) -> Optional[WitnessRecipe]:
    """A sum-rule recipe for a sorted degree triple, if one exists.  ``dec``
    is the decomposition of d3 in <d1, d2>, or None when d3 is not in it."""
    d = tuple(degrees)
    if d[1] % d[0] == 0:
        return WitnessRecipe("sum_rule",
                             {"degrees": list(d), "index": 1,
                              "coeffs": [d[1] // d[0]]})
    if dec is not None:
        return WitnessRecipe("sum_rule",
                             {"degrees": list(d), "index": 2,
                              "coeffs": [dec[0], dec[1]]})
    return None


# ---------------------------------------------------------------------------
# cancellation chains: the (4,6,*) family and the lcm tail
# ---------------------------------------------------------------------------

def _cancellation_chain(target, recipe, a: int, mid: Polynomial, h: Polynomial,
                        q: int) -> Witness:
    """The chain G . F with F = (x + z^a, y + mid, z), G = (u, v, w + h u^q).

    Its third component is z + h(F1, F2) F1^q, and _finish checks that its
    degree is target[2] exactly; degrees add in a polynomial ring, so the
    leading forms of h(F1, F2) cancel down to degree target[2] - a*q.
    """
    n = 3
    e1 = elementary(n, 0, Polynomial.monomial(n, (0, 0, a)))
    e2 = elementary(n, 1, mid)
    u = Polynomial.variable(n, 0)
    g = elementary(n, 2, h * u ** q)
    return _finish(target, recipe, [g, e1, e2], target[2] - a * q)


def build_469_family(k: int, variant: int) -> Witness:
    """Witness with mdeg (4, 6, variant + 4k), variant in {9, 7}, k >= 0.

    F = (x + z^4, y + z^6, z) -- the 7-variant corrects the middle component
    to y + 3/2 x z^2 + z^6 -- followed by G = (u, v, w + (v^2 - u^3) u^k).
    The cancellation degree is the variant.
    """
    if k < 0 or variant not in (9, 7):
        raise ConstructionError("k >= 0 and variant in {9, 7} required")
    n = 3
    mid = Polynomial.monomial(n, (0, 0, 6))
    if variant == 7:
        mid = mid + Polynomial.monomial(n, (1, 0, 2), Fraction(3, 2))
    u = Polynomial.variable(n, 0)
    v = Polynomial.variable(n, 1)
    recipe = WitnessRecipe("four_six", {"k": k, "variant": variant})
    return _cancellation_chain((4, 6, variant + 4 * k), recipe, 4, mid,
                               v ** 2 - u ** 3, k)


def build_4k2(k: int, d3: int) -> Witness:
    """Witness with mdeg (4, 4k+2, d3) for k >= 3 and d3 >= 5k+1.

    This is the lcm tail at (a, b) = (4, 4k+2), which starts at 5k+1, under
    its own recipe kind.
    """
    if k < 3 or d3 < 5 * k + 1:
        raise ConstructionError("requires k >= 3 and d3 >= 5k+1")
    return replace(build_tab_tail(4, 4 * k + 2, d3),
                   recipe=WitnessRecipe("four_k2", {"k": k, "d3": d3}))


def build_tab_tail(a: int, b: int, d3: int) -> Witness:
    """Witness with mdeg (a, b, d3) for 1 < a < b and d3 in the covered tail
    d3 >= tab_tail_start(a, b).

    With at = a/g, bt = b/g (g = gcd), coefficients a_0..a_{floor(b/a)} are
    chosen so that (x+z^a)^{bt} - (y + z^p + sum a_l x^l z^{b-l a})^{at} drops
    to degree p + b(at-1); the last factor adds (u^{bt} - v^{at}) u^q, so the
    cancellation degree is d3 - a*q.
    """
    if not 1 < a < b:
        raise ConstructionError("requires 1 < a < b")
    low = tab_tail_start(a, b)
    if d3 < low:
        raise ConstructionError(f"d3={d3} below covered tail (starts at {low})")
    g = gcd(a, b)
    at, bt = a // g, b // g
    # low = lcm(a, b) - r with a <= r <= b - 1, so 1 <= p <= b - 1 and q >= 0
    m = low + (d3 - low) % a
    q = (d3 - m) // a
    p = m - b * (at - 1)
    # a_s of (1 + X)^(bt/at), so that P^at = (1 + X)^bt up to X^floor(b/a)
    coeffs = [Fraction(1)]
    for s in range(1, b // a + 1):
        coeffs.append(coeffs[-1] * (Fraction(bt, at) - s + 1) / s)
    n = 3
    mid = Polynomial.monomial(n, (0, 0, p))
    for l, al in enumerate(coeffs):
        mid = mid + Polynomial.monomial(n, (l, 0, b - l * a), al)
    u = Polynomial.variable(n, 0)
    v = Polynomial.variable(n, 1)
    recipe = WitnessRecipe("tab_tail", {"a": a, "b": b, "d3": d3})
    return _cancellation_chain((a, b, d3), recipe, a, mid, u ** bt - v ** at, q)


def tab_tail_start(a: int, b: int) -> int:
    """First d3 covered by build_tab_tail for the pair (a, b)."""
    r = min(b - 1, (a - 1) * (b // a + 1))
    return lcm(a, b) - r


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

# a recipe's params are its builder's keyword arguments
_BUILDERS = {"sum_rule": build_sum_rule, "four_six": build_469_family,
             "four_k2": build_4k2, "tab_tail": build_tab_tail}


def build(recipe: WitnessRecipe) -> Witness:
    builder = _BUILDERS.get(recipe.kind)
    if builder is None:
        raise ConstructionError(f"unknown recipe kind {recipe.kind!r}")
    return builder(**recipe.params)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _is_generator(m: PolyMap) -> bool:
    """Whether m is triangular or affine with an invertible linear part.

    Triangular: each component i is a*x_i + f_i with a != 0 and f_i free of
    x_i, and the variables can be ordered so that every f_i involves only
    variables placed before x_i.  Such a map is a diagonal linear map
    followed by elementary ones, so elementary factors, triangular and de
    Jonquieres maps (and the identity) all pass.  Only the stored form of
    each component is read.  An affine map passes when
    ``maps.affine_factor`` inverts it.
    """
    n = m.n
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    uses = {}  # i: the variables f_i involves, for each component not x_i
    for i, c in enumerate(m.components):
        own = units[i]
        if c.numerators != {own: c.denominator}:
            if not c.numerators.get(own) or any(e[i] for e in c.numerators if e != own):
                break
            uses[i] = c.variables() - {i}
    else:
        if len(uses) < 2:  # a cycle needs two f_i
            return True
        try:
            graphlib.TopologicalSorter(uses).prepare()  # a cycle among the f_i raises
            return True
        except graphlib.CycleError:
            pass
    if any(sum(e) > 1 for c in m.components for e in c.numerators):
        return False
    try:
        affine_factor(m)
    except SingularMatrixError:
        return False
    return True


def verify_witness_json(data: dict) -> bool:
    """Check that every persisted factor is a tame generator (triangular, or
    affine with an invertible linear part), then re-measure the chain's
    multidegree with ``chain_mdeg``.  That reads it off leading forms and
    recomposes the chain only on a cancellation; a cancelling chain is
    recomposed with no bound on the work.

    Raises ValueError when ``data`` does not have the witness JSON shape.
    """
    if not isinstance(data, dict):
        raise ValueError("witness JSON must be an object")
    target, factors = data.get("target"), data.get("factors")
    if not isinstance(target, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in target):
        raise ValueError("witness JSON needs 'target', a list of integers")
    if not isinstance(factors, list):
        raise ValueError("witness JSON needs 'factors', a list of map objects")
    target = tuple(target)
    factors = [PolyMap.from_json(f) for f in factors]
    if not factors or not all(map(_is_generator, factors)):
        return False
    return chain_mdeg(factors) == target
