"""Polynomial endomorphisms of affine n-space.

PolyMap is an ordered tuple of n polynomials in n variables.  Constructors
for the standard generator types (elementary, triangular, de Jonquieres,
affine) return a Factor carrying the map together with its exact inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
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
        if self.n != other.n:
            raise DimensionMismatch("dimension mismatch in composition")
        return PolyMap(tuple(c.substitute(other.components) for c in self.components))

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


def identity(n: int) -> PolyMap:
    return PolyMap(tuple(Polynomial.variable(n, i) for i in range(n)))


def compose_all(maps: Sequence[PolyMap]) -> PolyMap:
    """Left-to-right composition: maps[0] . maps[1] . ... . maps[-1]."""
    if not maps:
        raise ValueError("need at least one map")
    result = maps[-1]
    for m in reversed(maps[:-1]):
        result = m.compose(result)
    return result


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
    comps = list(identity(n).components)
    inv = list(comps)
    comps[i] = comps[i] + f
    inv[i] = inv[i] - f
    return Factor(PolyMap(tuple(comps)), PolyMap(tuple(inv)))


def _shifted(order: Sequence[int], scalars: Sequence[Fraction],
             shifts: Sequence[Polynomial]) -> Factor:
    """x_v -> a*x_v + f for v, a, f read along ``order``, each f in the
    variables before v in the order; the inverse by back-substitution."""
    n = len(order)
    comps = list(identity(n).components)
    inv = list(comps)
    for k, (v, a, f) in enumerate(zip(order, scalars, shifts)):
        if f.n != n:
            raise DimensionMismatch("f has wrong variable count")
        if not f.variables() <= set(order[:k]):
            raise ValueError(f"the shift of variable {v} involves forbidden variables")
        comps[v] = comps[v].scale(a) + f
        inv[v] = (Polynomial.variable(n, v) - f.substitute(inv)).scale(1 / a)
    return Factor(PolyMap(tuple(comps)), PolyMap(tuple(inv)))


def triangular(fs: Sequence[Polynomial], perm: Sequence[int] | None = None) -> Factor:
    """Triangular map: in the order given by perm, the first variable is fixed
    and each later one is shifted by a polynomial in the strictly earlier ones.

    fs has length n-1; fs[k] may only involve the first k+1 variables of the
    order.  perm defaults to the natural order 0..n-1.
    """
    n = len(fs) + 1
    order = list(range(n)) if perm is None else list(perm)
    if sorted(order) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return _shifted(order, [Fraction(1)] * n, [Polynomial.zero(n), *fs])


def de_jonquieres(scalars: Sequence, fs: Sequence[Polynomial]) -> Factor:
    """x_i -> a_i x_i + f_i(x_{i+1},...,x_n), with f_n constant, a_i != 0."""
    n = len(scalars)
    if len(fs) != n:
        raise ValueError("need one f per coordinate")
    a = [Fraction(s) for s in scalars]
    if any(not s for s in a):
        raise ValueError("scalars must be nonzero")
    return _shifted(range(n - 1, -1, -1), a[::-1], fs[::-1])


def affine(matrix: Sequence[Sequence], vector: Sequence | None = None) -> Factor:
    """x -> M x + v with invertible M; raises SingularMatrixError otherwise."""
    n = len(matrix)
    m_inv = linalg.invert_matrix(matrix)
    v = [Fraction(0)] * n if vector is None else [Fraction(x) for x in vector]
    if len(v) != n:
        raise ValueError("vector length differs from matrix size")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def rows_to_map(rows, shift):
        return PolyMap(tuple(Polynomial(n, [((0,) * n, c), *zip(units, row)])
                             for row, c in zip(rows, shift)))

    inv_shift = [-sum(x * y for x, y in zip(row, v)) for row in m_inv]
    return Factor(rows_to_map(matrix, v), rows_to_map(m_inv, inv_shift))


def linear_map(matrix: Sequence[Sequence]) -> Factor:
    return affine(matrix)


def permutation(n: int, perm: Sequence[int]) -> Factor:
    """Map sending x_{perm[i]} to position i: components (x_perm[0], ...)."""
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    return affine([[int(perm[i] == j) for j in range(n)] for i in range(n)])


def swap(n: int, i: int, j: int) -> Factor:
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return permutation(n, perm)


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
