"""Plane-automorphism analysis: decomposition, length, inverse, predictions.

Every polynomial automorphism of the plane factors as L2 . T_l . ... . T_1 . L1
with L1, L2 affine and T_i non-affine triangular maps of alternating
orientation (odd i: (x + f(y), y); even i: (x, y + f(x))), each deg f_i > 1.
``peel`` recovers this normalized decomposition by leading-form subtraction,
lowering the component of higher degree in place at each step, so that every
map it peels off has Jacobian determinant 1; failure certifies that the input
is not an automorphism.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bracket import is_power_proportional
from .linalg import SingularMatrixError
from .maps import Factor, PolyMap, affine, compose_all, elementary, identity
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


@dataclass
class Decomposition:
    l1: Factor
    factors: list[Factor]  # T_1 .. T_l, indexed from the affine L1 side
    l2: Factor
    factor_degrees: list[int]  # deg f_i for T_1 .. T_l

    @property
    def length(self) -> int:
        return len(self.factors)

    def compose(self) -> PolyMap:
        chain = [self.l2.map] + [f.map for f in reversed(self.factors)] + [self.l1.map]
        return compose_all(chain)

    def inverse_map(self) -> PolyMap:
        """Exact inverse via factor inverses.

        ``peel`` already certifies that the decomposition recomposes to the
        input; checking each factor's inverse individually (cheap, low degree)
        then certifies the whole inverse by telescoping, without ever forming
        the huge composition F . F^{-1}.
        """
        ident = identity(2)
        for factor in [self.l1, *self.factors, self.l2]:
            if factor.map.compose(factor.inverse) != ident:
                raise AssertionError("factor inverse verification failed "
                                     "(internal bug)")
        chain = [self.l1.inverse] + [f.inverse for f in self.factors] + [self.l2.inverse]
        return compose_all(chain)


def _as_affine_factor(m: PolyMap) -> Factor:
    n = m.n
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    rows = [[c.coefficient(e) for e in units] for c in m.components]
    vec = [c.constant_term() for c in m.components]
    return affine(rows, vec)


def peel(f_map: PolyMap) -> Decomposition:
    """Normalized decomposition of a plane automorphism.

    Raises NotKellerError when the Jacobian determinant is not a nonzero
    constant, and PeelStuckError when a leading-form step fails -- either way
    the input is certifiably not an automorphism.  The Jacobian is computed
    only once peeling has failed, or before a large power list, and of the
    remainder where it stopped: every map peeled off has Jacobian
    determinant 1, so by the chain rule the remainder's equals F's.  A successful peel ends with the exact check that
    the decomposition recomposes to the input, which implies a constant one.
    """
    if f_map.n != 2:
        raise ValueError("peel expects a 2-dimensional map")
    try:
        dec = _peel_chain(f_map)
    except PeelStuckError as exc:
        _require_keller(exc.remainder)
        raise
    if dec.compose() != f_map:
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
    exactly when lead(rem) = c * lead(low)^k.  The first step of a strip,
    which builds low^2, ..., low^k, tests the leading forms before it, so a
    stuck step such as (x^2 + x + y, y^2000) builds no powers.  If their
    dense term count exceeds POWER_TERMS_FACTOR times g's, J(g) = J(F) is
    checked first, so (x^2 + x + y, x^2000) builds none either.
    """
    g = f_map
    c = 0  # the head fix (x + c*y, y); the identity when c = 0
    strips: list[tuple[int, dict]] = []  # (component lowered, {k: c_k})
    while g.deg() > 1:
        p, q = g.components
        dp, dq = p.total_degree(), q.total_degree()
        if min(dp, dq) < 1:
            raise PeelStuckError("constant or zero component while peeling", g)
        if dp == dq:
            e = max(q.numerators, key=sum)
            c = p.coefficient(e) / q.coefficient(e)
            head = p - q.scale(c)
            if head.total_degree() == dp:
                raise PeelStuckError(
                    f"equal-degree leading forms not proportional at degree {dp}", g)
            g = PolyMap((head, q))
            continue
        i = int(dp < dq)  # the component to lower
        rem, low = (q, p) if i else (p, q)
        dl = int(low.total_degree())
        coeffs, powers = {}, [low]  # powers[j] = low ** (j + 1), built as read
        while rem.total_degree() > dl or (rem.total_degree() == dl and dl > 1):
            dr = int(rem.total_degree())
            if dr % dl:
                raise PeelStuckError(
                    f"degree {dr} not divisible by {dl} while peeling", g)
            k = dr // dl
            if len(powers) >= k or is_power_proportional(
                    rem.leading_form(), low.leading_form()):
                dense = sum((j * dl + 1) * (j * dl + 2) // 2
                            for j in range(len(powers) + 1, k + 1))
                if dense > POWER_TERMS_FACTOR * (len(p.numerators) + len(q.numerators)):
                    _require_keller(g)
                while len(powers) < k:
                    powers.append(powers[-1] * low)
                top = powers[k - 1]
                e = max(top.numerators, key=sum)  # of degree dr
                coeffs[k] = ck = rem.coefficient(e) / top.coefficient(e)
                rem = rem - top.scale(ck)
            if rem.total_degree() == dr:
                raise PeelStuckError(
                    f"leading form at degree {dr} is not proportional to a "
                    f"power of the lower component's form", g)
        strips.append((i, coeffs))
        g = PolyMap((p, rem) if i else (rem, q))

    flip = bool(strips) and strips[-1][0] == 1
    try:
        l1 = _as_affine_factor(PolyMap(g.components[::-1]) if flip else g)
    except SingularMatrixError:
        raise PeelStuckError("singular affine end", g) from None
    factors = []
    for i, coeffs in reversed(strips):
        i ^= flip  # the coordinate the conjugated strip shifts
        f = Polynomial(2, {((k, 0) if i else (0, k)): ck for k, ck in coeffs.items()})
        factors.append(elementary(2, i, f))
    l2 = affine([[c, 1], [1, 0]] if flip else [[1, c], [0, 1]])
    return Decomposition(l1, factors, l2, [max(coeffs) for _, coeffs in reversed(strips)])


def length_of(f_map: PolyMap) -> int:
    return peel(f_map).length


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
