"""Polynomial endomorphisms of affine n-space.

PolyMap is an ordered tuple of n polynomials in n variables.  The two
generator constructors, elementary and affine, return a Factor carrying the
map together with its exact inverse; every tame map is a composite of them.
Every affine Factor, ``affine``'s and peel's ends, comes from the one
constructor ``affine_factor``, which inverts on integer rows.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg, poly
from .poly import (NAME_RE, DimensionMismatch, Polynomial, default_varnames, format_poly,
                   parse_poly)


@dataclass(frozen=True)
class PolyMap:
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        n = len(comps)
        for c in comps:
            if c.n != n:
                raise DimensionMismatch(
                    f"component has {c.n} variables, expected {n}")

    @property
    def n(self) -> int:
        return len(self.components)

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other: (self . other)(x) = self(other(x))."""
        return compose_all([self, other])

    def mdeg(self) -> tuple:
        return tuple(c.total_degree() for c in self.components)

    def deg(self):
        return max(self.mdeg())

    def jacobian_determinant(self) -> Polynomial:
        def det(rows):  # cofactor expansion along the first row
            if len(rows) < 2:
                return rows[0][0] if rows else Polynomial.constant(self.n, 1)
            out = Polynomial.zero(self.n)
            for j, entry in enumerate(rows[0]):
                if not entry.is_zero():
                    term = entry * det([row[:j] + row[j + 1:] for row in rows[1:]])
                    out = out - term if j % 2 else out + term
            return out

        return det([[c.partial_derivative(j) for j in range(self.n)]
                    for c in self.components])

    def to_json(self, varnames: Sequence[str] | None = None) -> dict:
        if varnames is None:
            varnames = default_varnames(self.n)
        return {
            "n": self.n,
            "vars": list(varnames),
            "components": [format_poly(c, varnames) for c in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyMap":
        """Parse the map JSON shape; anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("map JSON must be an object")
        n, comps, varnames = data.get("n"), data.get("components"), data.get("vars")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("map JSON needs an integer 'n'")
        if not isinstance(comps, list) or not all(isinstance(c, str) for c in comps):
            raise ValueError("map JSON needs 'components', a list of strings")
        if varnames is not None and not (
                isinstance(varnames, list)
                and all(isinstance(v, str) and NAME_RE.fullmatch(v) for v in varnames)
                and len(set(varnames)) == n):
            raise ValueError("map JSON 'vars' must be a list of n distinct variable names")
        varnames = varnames or default_varnames(n)
        comps = [parse_poly(s, varnames) for s in comps]
        if len(comps) != n:
            raise ValueError("component count differs from declared n")
        return cls(tuple(comps))

    def __str__(self):
        names = default_varnames(self.n)
        return "(" + ", ".join(format_poly(c, names) for c in self.components) + ")"


@functools.cache  # a frozen map of immutable polynomials, safe to share
def identity(n: int) -> PolyMap:
    return PolyMap(tuple(Polynomial.variable(n, i) for i in range(n)))


def compose_all(maps: Sequence[PolyMap]) -> PolyMap:
    """Left-to-right composition: maps[0] . maps[1] . ... . maps[-1], the
    chain of ``poly._compose`` (one packed layout for the whole chain);
    a component that no step changes is the rightmost map's own."""
    if not maps:
        raise ValueError("need at least one map")
    n = maps[-1].n
    if any(m.n != n for m in maps):
        raise DimensionMismatch("dimension mismatch in composition")
    return PolyMap(tuple(poly._compose([m.components for m in maps])))


# ---------------------------------------------------------------------------
# certified generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """A generator with a precomputed exact inverse."""
    map: PolyMap
    inverse: PolyMap


def elementary(n: int, i: int, f: Polynomial) -> Factor:
    """x_i -> x_i + f(other variables), 0-based i; f must not involve x_i."""
    if f.n != n:
        raise DimensionMismatch("f has wrong variable count")
    if not 0 <= i < n:
        raise IndexError("coordinate index out of range")
    if f.involves(i):
        raise ValueError(f"f may not involve variable {i}")
    # x_i +- f over f's denominator: x_i is no key of f and f is in lowest
    # terms, so each is one _make, its terms in the order x_i + f merges them
    comps = identity(n).components
    (own,) = comps[i].numerators
    den = f.denominator
    plus = Polynomial._make(n, {own: den, **f.numerators}, den)
    minus = Polynomial._make(n, {own: den, **{e: -v for e, v in f.numerators.items()}}, den)
    return Factor(PolyMap(comps[:i] + (plus,) + comps[i + 1:]),
                  PolyMap(comps[:i] + (minus,) + comps[i + 1:]))


def affine(matrix: Sequence[Sequence], vector: Sequence | None = None) -> Factor:
    """x -> M x + v with invertible M; raises SingularMatrixError otherwise."""
    n = len(matrix)
    v = [0] * n if vector is None else [Fraction(x) for x in vector]
    if len(v) != n or any(len(r) != n for r in matrix):
        raise ValueError("matrix must be square and the vector as long as its rows")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return affine_factor(PolyMap(tuple(Polynomial(n, [((0,) * n, c), *zip(units, row)])
                                       for row, c in zip(matrix, v))))


def affine_factor(m: PolyMap) -> Factor:
    """The map ``m``, of degree at most 1, with its inverse; raises
    SingularMatrixError when its linear part A is singular.  Component i
    over its denominator d_i is the integer row d_i * (A_i, v_i | e_i) of
    [[A, v], [0, 1]] beside the identity; one ``linalg._gauss_jordan`` leaves
    inverse row i an integer row over its pivot, one ``_make`` each."""
    n = m.n
    rows = [{**{(e.index(1) if any(e) else n): v for e, v in c.numerators.items()},
             n + 1 + i: c.denominator} for i, c in enumerate(m.components)]
    reduced, pivots = linalg._gauss_jordan([*rows, {n: 1, 2 * n + 1: 1}], n + 1)
    if len(pivots) <= n:
        raise linalg.SingularMatrixError("matrix is singular")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(0,) * n]
    signs = [1 if row[i] > 0 else -1 for i, row in enumerate(reduced[:n])]  # denominators > 0
    return Factor(m, PolyMap(tuple(
        Polynomial._make(n, {units[c - n - 1]: s * v for c, v in row.items() if c > n}, s * row[i])
        for i, (row, s) in enumerate(zip(reduced, signs)))))


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

# Each entry is a canonical text form, so loading the gallery exercises the
# parser and the algebra at the same time.
_GALLERY_TEXT: dict[str, list[str]] = {
    "nagata": [
        "-x^2*z^3 - 2*x*y^2*z^2 - y^4*z + 2*x*y*z + 2*y^3 + x",
        "-x*z^2 - y^2*z + y",
        "z",
    ],
    "swap13": ["z", "y", "x"],
    "su_t1": ["x", "x^2 + y", "x^3 + 2*x*y + z"],
    "su_t2": ["z^3 + 6*y*z + 6*x", "z^2 + 4*y", "z"],
    "su_t3": ["x", "y", "-y^3 + x^2 + z"],
    "su_l": ["x + z", "y", "z"],
}

_GALLERY_COMPOSITES = {
    # left-to-right composition order
    "su_example": ["su_l", "su_t3", "su_t2", "su_t1"],
}


def gallery_names() -> list[str]:
    return sorted(_GALLERY_TEXT) + sorted(_GALLERY_COMPOSITES)


def gallery(name: str) -> PolyMap:
    if name in _GALLERY_TEXT:
        comps = tuple(parse_poly(s, ("x", "y", "z")) for s in _GALLERY_TEXT[name])
        return PolyMap(comps)
    if name in _GALLERY_COMPOSITES:
        return compose_all([gallery(part) for part in _GALLERY_COMPOSITES[name]])
    raise KeyError(f"unknown gallery map {name!r}")


def nagata_power(m: int) -> PolyMap:
    """(T . N)^m for the Nagata map N and the swap T=(z,y,x), m >= 1.

    Asserts the exact invariant g^2 + h*f = y^2 + z*x after every step.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 3
    x, y, z = (Polynomial.variable(n, i) for i in range(n))
    key = y * y + z * x
    f, g, h = x, y, z
    for _ in range(m):
        # substituting (f,g,h) into T.N = (z, y - z(y^2+zx), x + 2y(y^2+zx) - z(y^2+zx)^2)
        k = g * g + h * f
        f, g, h = h, g - h * k, f + 2 * g * k - h * (k * k)
        if g * g + h * f != key:
            raise AssertionError("nagata power invariant violated")
    return PolyMap((f, g, h))
