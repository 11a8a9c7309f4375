"""Plane-automorphism analysis: decomposition, length, inverse, predictions.

Every polynomial automorphism of the plane factors as L2 . T_l . ... . T_1 . L1
with L1, L2 affine and T_i non-affine triangular maps of alternating
orientation (odd i: (x + f(y), y); even i: (x, y + f(x))), each deg f_i > 1.
``peel`` recovers this normalized decomposition by leading-form subtraction,
lowering the component of higher degree in place at each step, so that every
map it peels off has Jacobian determinant 1; failure certifies that the input
is not an automorphism.  A ``Decomposition`` is frozen and keeps its factors
in a tuple: a factor is replaced only in a new one (``dataclasses.replace``),
whose image is of its own factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import poly
# is_power_proportional is not called here; bench/spans.py times it at this name
from .bracket import cancel_top, is_power_proportional  # noqa: F401
from .linalg import SingularMatrixError
from .maps import Factor, PolyMap, affine, affine_factor, compose_all, elementary, identity
from .poly import Polynomial


class NotKellerError(ValueError):
    """Jacobian determinant is not a nonzero constant."""


class PeelStuckError(ValueError):
    """A peeling step cannot proceed: the map is not an automorphism.

    ``remainder`` is the map left where peeling stopped; its Jacobian
    determinant equals the input's.
    """

    def __init__(self, message: str, remainder: PolyMap):
        super().__init__(message)
        self.remainder = remainder


class InconsistentLengthError(ValueError):
    """The (bidegree, length) combination violates the structure theorems."""


# The point check of peel and inverse_map.  Reducing mod P is a ring
# homomorphism on the rationals whose denominators P does not divide, so
# equal maps agree at every point mod P and the check never fails on a
# correct answer.  Different maps of degree d agree at a random point with
# probability at most d / P (Schwartz-Zippel).  POINT is fixed (the first 32
# hex digits of pi's fraction, reduced mod P) so that output stays
# deterministic; a bug has no reason to hide its error at that point.
P = 2 ** 61 - 1
POINT = (0x243F6A8885A308D3 % P, 0x13198A2E03707344 % P)


def _at(m: PolyMap, pt: tuple[int, int]) -> tuple[int, int]:
    """The plane map m at pt mod P, read from each component's numerators
    and denominator with one power table per variable; ValueError when P
    divides a denominator."""
    tables = ([1], [1])
    for c in m.components:
        for row, v, col in zip(tables, pt, zip(*c.numerators)):
            for _ in range(max(col) + 1 - len(row)):
                row.append(row[-1] * v % P)
    xs, ys = tables
    return tuple(sum(v * xs[i] * ys[j] for (i, j), v in c.numerators.items())
                 * pow(c.denominator, -1, P) % P for c in m.components)


@dataclass(frozen=True)
class Decomposition:
    l1: Factor
    factors: tuple[Factor, ...]  # T_1 .. T_l, indexed from the affine L1 side
    l2: Factor
    factor_degrees: list[int]  # deg f_i for T_1 .. T_l

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def chain(self) -> list[Factor]:
        """L1, T_1, ..., T_l, L2: the factors in the order they apply."""
        return [self.l1, *self.factors, self.l2]

    def compose(self) -> PolyMap:
        return compose_all([f.map for f in reversed(self.chain)])

    @cached_property
    def image(self) -> tuple[int, int]:
        """L2 . T_l . ... . T_1 . L1 at POINT mod P, one factor at a time, kept
        for peel's and inverse_map's checks; ValueError if P divides a denominator."""
        pt = POINT
        for f in self.chain:
            pt = _at(f.map, pt)
        return pt

    def inverse_map(self) -> PolyMap:
        """The inverse L1^-1 . T_1^-1 . ... . T_l^-1 . L2^-1, checked at a point.

        Each factor's inverse is exact by construction: an elementary map
        (x + f(y), y) is undone by (x - f(y), y), and an affine one by the
        inverse matrix.  The composed inverse G is then checked by one
        evaluation mod P: G(D(POINT)) must equal POINT, where D(POINT) is
        ``image``, which peel's own check has already computed.  That covers
        every factor inverse and the composition itself at the cost of one
        pass over G's terms; the evaluation shares no code with the product
        kernel, so a kernel bug cannot hide in it.  It is an alarm for bugs,
        not a proof.  When P divides a denominator, each factor is checked
        exactly against its inverse instead.
        """
        inv = compose_all([f.inverse for f in self.chain])
        try:
            same = _at(inv, self.image) == POINT
        except ValueError:  # P divides a denominator
            ident = identity(2)
            same = all(compose_all([f.map, f.inverse]) == ident for f in self.chain)
        if not same:
            raise AssertionError("inverse verification failed (internal bug)")
        return inv


def peel(f_map: PolyMap) -> Decomposition:
    """Normalized decomposition of a plane automorphism.

    Raises NotKellerError when the Jacobian determinant is not a nonzero
    constant, and PeelStuckError when a leading-form step fails -- either way
    the input is certifiably not an automorphism.  A stuck step stops on its
    own subtraction; on a map whose Jacobian is not a nonzero constant, after
    at most the powers the dense rule of ``_peel_chain`` allows.  The Jacobian is computed only once peeling has
    failed, or before a large power list, and of the remainder where it
    stopped: every map peeled off has Jacobian determinant 1, so by the
    chain rule the remainder's equals F's.

    A successful decomposition equals F by construction: every strip step
    and the head fix subtract c * q exactly (``bracket.cancel_top``), so each
    peeled map composed with the remainder gives back the map before it, and
    the swap conjugating the strips cancels (S . S = id).  So the answer is
    exact without recomposing it.  As an alarm for bugs in that bookkeeping
    or in the kernel, F and the decomposition are evaluated at POINT mod P,
    the decomposition one factor at a time, and must agree; the evaluation
    does not use the product kernel.  When P divides a denominator, the
    decomposition is recomposed and compared with F exactly instead.
    """
    if f_map.n != 2:
        raise ValueError("peel expects a 2-dimensional map")
    try:
        dec = _peel_chain(f_map)
    except PeelStuckError as exc:
        _require_keller(exc.remainder)
        raise
    try:
        same = _at(f_map, POINT) == dec.image
    except ValueError:  # P divides a denominator
        same = dec.compose() == f_map
    if not same:
        raise AssertionError("decomposition does not recompose (internal bug)")
    return dec


def _require_keller(g: PolyMap) -> None:
    """Raise NotKellerError unless J(g) is a nonzero constant."""
    jac = g.jacobian_determinant()
    if jac.is_zero() or not jac.is_constant():
        raise NotKellerError(
            f"Jacobian determinant is {jac}, not a nonzero constant") from None


# A strip step takes J(g) first when the dense term count of the powers it is
# about to build exceeds this many times the terms of the current map g.
POWER_TERMS_FACTOR = 64


def _peel_chain(f_map: PolyMap) -> Decomposition:
    """The decomposition that leading-form peeling finds, not yet checked.

    Each step lowers the component (p, q) of higher degree in place: p by a
    strip (x + f(y), y) built from q's leading form, q by a strip
    (x, y + f(x)) built from p's.  Equal degrees, which can only occur before
    the first strip, take the head fix (x + c*y, y) instead, c read at a top
    monomial of q: the degree drops exactly when lead(p) = c * lead(q).  A
    strip leaves the lowered component below the other one, so strips
    alternate and the sum of the degrees falls at every step.
    F = A . U_1 . ... . U_l . (p, q) with A the head fix; if the innermost
    strip U_l is (x, y + f(x)), every strip is conjugated by the swap S so
    that T_1 is (x + f(y), y), and then L1 = S . (p, q) and L2 = A . S.

    A strip step at degree dr = k * deg(low) subtracts c * low^k, c read at a
    top monomial of low^k; as lead(low^k) = lead(low)^k, the degree drops
    exactly when lead(rem) = c * lead(low)^k, and a stuck step stops on that
    subtraction.  k falls within a strip, so its first step builds low^2,
    ..., low^k at once with ``poly._powers``.  Before they are built, their
    dense term count is compared with POWER_TERMS_FACTOR times g's; above
    it, J(g) = J(F) is checked first.  So a stuck step of a map whose
    Jacobian is not a nonzero constant builds at most the powers that rule
    allows, and (x^2 + x + y, y^2000) and (x^2 + x + y, x^2000) build none.
    """
    g = f_map
    p, q = g.components
    dp, dq = p.total_degree(), q.total_degree()
    c = 0  # the head fix (x + c*y, y); the identity when c = 0
    strips: list[tuple[int, dict]] = []  # (component lowered, {k: c_k})
    while max(dp, dq) > 1:
        if min(dp, dq) < 1:
            raise PeelStuckError("constant or zero component while peeling", g)
        if dp == dq:
            c, p = cancel_top(p, q)
            if (dp := p.total_degree()) == dq:
                raise PeelStuckError(
                    f"equal-degree leading forms not proportional at degree {dq}", g)
            g = PolyMap((p, q))
            continue
        i = int(dp < dq)  # the component to lower
        rem, low = (q, p) if i else (p, q)
        dr, dl = (dq, dp) if i else (dp, dq)
        coeffs, powers = {}, None  # powers[j] = low ** (j + 1)
        while dr > dl or (dr == dl and dl > 1):
            if dr % dl:
                raise PeelStuckError(
                    f"degree {dr} not divisible by {dl} while peeling", g)
            k = dr // dl
            if powers is None:  # the first step: k is the strip's largest
                dense = sum((j * dl + 1) * (j * dl + 2) // 2 for j in range(2, k + 1))
                if dense > POWER_TERMS_FACTOR * (len(p.numerators) + len(q.numerators)):
                    _require_keller(g)
                powers = [low, *poly._powers(low, range(2, k + 1))]
            coeffs[k], rem = cancel_top(rem, powers[k - 1])
            if (d := rem.total_degree()) == dr:
                raise PeelStuckError(
                    f"leading form at degree {dr} is not proportional to a "
                    f"power of the lower component's form", g)
            dr = d
        strips.append((i, coeffs))
        p, q = (p, rem) if i else (rem, q)
        dp, dq = (dp, dr) if i else (dr, dq)
        g = PolyMap((p, q))

    flip = bool(strips) and strips[-1][0] == 1
    try:
        l1 = affine_factor(PolyMap(g.components[::-1]) if flip else g)
    except SingularMatrixError:
        raise PeelStuckError("singular affine end", g) from None
    factors = []
    for i, coeffs in reversed(strips):
        i ^= flip  # the coordinate the conjugated strip shifts
        f = Polynomial(2, {((k, 0) if i else (0, k)): ck for k, ck in coeffs.items()})
        factors.append(elementary(2, i, f))
    l2 = affine([[c, 1], [1, 0]] if flip else [[1, c], [0, 1]])
    return Decomposition(l1, factors, l2, [max(coeffs) for _, coeffs in reversed(strips)])


def omega(k: int) -> int:
    """Number of prime factors counted with multiplicity."""
    if k < 1:
        raise ValueError("k must be positive")
    count = 0
    d = 2
    while d * d <= k:
        while k % d == 0:
            count += 1
            k //= d
        d += 1
    if k > 1:
        count += 1
    return count


def length_bound(d1: int, d2: int) -> int:
    """Upper bound for the length of a map with sorted bidegree (d1, d2)."""
    if not 1 <= d1 <= d2:
        raise ValueError("need 1 <= d1 <= d2")
    return min(omega(d2), omega(d1) + 1)


def inverse_mdeg_prediction(d1: int, d2: int, length_l: int) -> set[tuple[int, int]]:
    """The exact predicted set of possible mdeg F^{-1} values.

    Input is a sorted bidegree d1 <= d2 together with the length of F;
    inconsistent combinations raise InconsistentLengthError naming the
    violated constraint.
    """
    if not 1 <= d1 <= d2:
        raise ValueError("need 1 <= d1 <= d2")
    if length_l < 0:
        raise ValueError("length must be nonnegative")
    if length_l == 0:
        if (d1, d2) != (1, 1):
            raise InconsistentLengthError("length 0 forces an affine map, "
                                          "bidegree (1,1)")
        return {(1, 1)}
    if length_l == 1:
        if d1 == 1 and d2 > 1:
            d = d2
        elif d1 == d2 > 1:
            d = d1
        else:
            raise InconsistentLengthError(
                "length 1 forces bidegree (1,d) or (d,d) with d > 1")
        return {(1, d), (d, 1), (d, d)}
    if d1 == d2:
        d = d1
        if omega(d) < length_l:
            raise InconsistentLengthError(
                f"bidegree ({d},{d}) needs at least {length_l} prime factors "
                f"in d for length {length_l}")
        a_set = {a for a in range(2, d) if d % a == 0
                 and omega(d // a) >= length_l - 1}
        out = {(d, d)}
        for a in a_set:
            out.add((d, d // a))
            out.add((d // a, d))
        return out
    if d1 == 1 or d2 % d1 != 0:
        raise InconsistentLengthError(
            f"length {length_l} >= 2 with distinct degrees requires "
            "1 < d1 and d1 | d2")
    if length_l == 2:
        return {(d2, d2 // d1), (d2 // d1, d2), (d2, d2)}
    if omega(d1) < length_l - 1:
        raise InconsistentLengthError(
            f"length {length_l} requires d1 to have at least {length_l - 1} "
            "prime factors")
    a_set = {a for a in range(2, d1) if d1 % a == 0
             and omega(d1 // a) >= length_l - 2}
    out = {(d2, d2)}
    for a in a_set:
        out.add((d2, d2 // a))
        out.add((d2 // a, d2))
    return out
