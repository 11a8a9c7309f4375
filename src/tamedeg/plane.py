"""Plane-automorphism analysis: decomposition, length, inverse, predictions.

Every polynomial automorphism of the plane factors as L2 . T_l . ... . T_1 . L1
with L1, L2 affine and T_i non-affine triangular maps of alternating
orientation (odd i: (x + f(y), y); even i: (x, y + f(x))), each deg f_i > 1.
``peel`` recovers this normalized decomposition by repeated leading-form
subtraction; failure certifies that the input is not an automorphism.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bracket import is_power_proportional
from .linalg import SingularMatrixError
from .maps import Factor, PolyMap, affine, compose_all, elementary, identity, swap
from .poly import Polynomial


class NotKellerError(ValueError):
    """Jacobian determinant is not a nonzero constant."""


class PeelStuckError(ValueError):
    """A peeling step cannot proceed: the map is not an automorphism."""


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


def _tri_factor(f_of_x: Polynomial, form: int) -> Factor:
    """form 1: (x, y + f(x)); form 2: (x + f(y), y).  f given in variable x."""
    if form == 1:
        return elementary(2, 1, f_of_x)
    flipped = Polynomial._make(2, {(e[1], e[0]): v for e, v in f_of_x.numerators.items()},
                               f_of_x.denominator)
    return elementary(2, 0, flipped)


def _is_affine(m: PolyMap) -> bool:
    return all(c.total_degree() <= 1 for c in m.components)


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
    only once peeling has failed: a successful peel ends with the exact check
    that the decomposition recomposes to the input, which implies it.
    """
    if f_map.n != 2:
        raise ValueError("peel expects a 2-dimensional map")
    try:
        dec = _peel_chain(f_map)
    except (PeelStuckError, SingularMatrixError):
        # a singular affine end, e.g. (x, x), raises SingularMatrixError
        jac = f_map.jacobian_determinant()
        if jac.is_zero() or not jac.is_constant():
            raise NotKellerError(
                f"Jacobian determinant is {jac}, not a nonzero constant") from None
        raise
    if dec.compose() != f_map:
        raise AssertionError("decomposition does not recompose (internal bug)")
    return dec


def _peel_chain(f_map: PolyMap) -> Decomposition:
    """The decomposition that leading-form peeling finds, not yet checked."""
    swp = swap(2, 0, 1)
    raw_head: list = []  # leading affine pieces ('aff' or 'swap')
    raw_tris: list[Polynomial] = []  # f_i in variable x, all of form (x, y+f(x))
    g = f_map
    guard = int(max(g.deg(), 1)) ** 2 + 10
    steps = 0
    while not _is_affine(g):
        steps += 1
        if steps > guard:
            raise AssertionError("peeling failed to terminate (internal bug)")
        p, q = g.components
        dp, dq = p.total_degree(), q.total_degree()
        if min(dp, dq) < 1:
            raise PeelStuckError("constant or zero component while peeling")
        if dp == dq:
            # equal top degrees: leading forms must be proportional
            prop = is_power_proportional(p.leading_form(), q.leading_form())
            if prop is None or prop[1] != 1:
                raise PeelStuckError(
                    f"equal-degree leading forms not proportional at degree {dp}")
            c = prop[0]
            fix = affine([[1, c], [0, 1]])
            raw_head.append(("aff", fix))
            g = fix.inverse.compose(g)
            continue
        if dp > dq:
            raw_head.append(("swap", swp))
            g = swp.map.compose(g)  # swap is self-inverse
            continue
        # dp < dq: strip (x, y + f(x)) with f built from leading forms
        if raw_tris and raw_head and raw_head[-1][0] != "swap":
            raise AssertionError("unexpected chain shape (internal bug)")
        rem = q
        f_acc = Polynomial.zero(2)
        while rem.total_degree() > dp or (rem.total_degree() == dp and dp > 1):
            dr = int(rem.total_degree())
            if dr % int(dp):
                raise PeelStuckError(
                    f"degree {dr} not divisible by {int(dp)} while peeling")
            prop = is_power_proportional(rem.leading_form(), p.leading_form())
            if prop is None:
                raise PeelStuckError(
                    f"leading form at degree {dr} is not proportional to a "
                    f"power of the lower component's form")
            c, k = prop
            f_acc = f_acc + Polynomial.monomial(2, (k, 0), c)
            rem = rem - (p ** k).scale(c)
        if f_acc.total_degree() <= 1:
            raise PeelStuckError("peeled factor degenerated to affine "
                                 "(not an automorphism)")
        raw_tris.append(f_acc)
        g = PolyMap((p, rem))

    l1_raw = _as_affine_factor(g)
    head_maps = [item[1] for item in raw_head]
    l = len(raw_tris)
    if l == 0:
        head = compose_all([f.map for f in head_maps] + [l1_raw.map]) \
            if head_maps else l1_raw.map
        aff = _as_affine_factor(head)
        ident = _as_affine_factor(identity(2))
        return Decomposition(aff, [], ident, [])
    else:
        # raw chain: A? (T S)*(l-1) T L1 with every T of form (x, y+f(x)).
        # Re-indexing from the right and conjugating every odd-indexed T by the
        # swap (S T S has form (x+f(y), y)) cancels all interior swaps:
        #   T_i = flip(raw T_{l-i+1}) for odd i, unchanged for even i;
        #   L1' = S . L1;  L2' = A . S when l is odd, else A.
        factors = []
        for i in range(1, l + 1):
            f_of_x = raw_tris[l - i]
            form = 2 if i % 2 == 1 else 1
            factors.append(_tri_factor(f_of_x, form))
        # A = composition of everything before the first T (swaps and fixes)
        seen_tri_boundary = len(raw_head) - (l - 1)  # interior swaps: l-1 of them
        a_items = raw_head[:seen_tri_boundary]
        a_map = compose_all([it[1].map for it in a_items]) if a_items else identity(2)
        l2_map = a_map.compose(swp.map) if l % 2 == 1 else a_map
        l1_map = swp.map.compose(l1_raw.map)
        return Decomposition(_as_affine_factor(l1_map), factors,
                             _as_affine_factor(l2_map),
                             [int(f.total_degree()) for f in raw_tris[::-1]])


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
