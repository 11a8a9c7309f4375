"""Differential tests of ``plane.peel`` against the swap-based peel it replaced.

``plane._peel_chain`` lowers the component of higher degree in place.  The
reference below is the earlier version: it swapped the components whenever
the first had the higher degree, recorded the swaps and head fixes in a
tagged list, re-indexed the raw chain of (x, y + f(x)) strips at the end,
and its ``peel`` took the Jacobian determinant of the input on failure.  Two
edits adapt it to the present classes: a flipped strip is built with the
public ``Polynomial`` constructor, and ``PeelStuckError`` gets the remainder
argument it now requires.

On seeded maps both must give equal ``l1``, ``factors``, ``l2`` and
``factor_degrees``, or raise the same exception type with the same message.
The failure messages print the Jacobian determinant, so equal messages also
check that the Jacobian of the stuck remainder equals the input's.
"""
import random
from fractions import Fraction

import pytest

from conftest import random_affine2, random_plane_chain, sparse_univariate
from tamedeg.bracket import is_power_proportional
from tamedeg.linalg import SingularMatrixError
from tamedeg.maps import Factor, PolyMap, affine, compose_all, elementary, identity
from tamedeg.plane import Decomposition, NotKellerError, PeelStuckError, peel
from tamedeg.poly import Polynomial, parse_poly

# -- oracle: the swap-based peel ------------------------------------------


def _tri_factor(f_of_x: Polynomial, form: int) -> Factor:
    """form 1: (x, y + f(x)); form 2: (x + f(y), y).  f given in variable x."""
    if form == 1:
        return elementary(2, 1, f_of_x)
    flipped = Polynomial(2, {(e[1], e[0]): v for e, v in f_of_x.terms.items()})
    return elementary(2, 0, flipped)


def _is_affine(m: PolyMap) -> bool:
    return all(c.total_degree() <= 1 for c in m.components)


def _as_affine_factor(m: PolyMap) -> Factor:
    n = m.n
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    rows = [[c.coefficient(e) for e in units] for c in m.components]
    vec = [c.constant_term() for c in m.components]
    return affine(rows, vec)


def oracle_peel(f_map: PolyMap) -> Decomposition:
    if f_map.n != 2:
        raise ValueError("peel expects a 2-dimensional map")
    try:
        dec = oracle_peel_chain(f_map)
    except (PeelStuckError, SingularMatrixError):
        jac = f_map.jacobian_determinant()
        if jac.is_zero() or not jac.is_constant():
            raise NotKellerError(
                f"Jacobian determinant is {jac}, not a nonzero constant") from None
        raise
    if dec.compose() != f_map:
        raise AssertionError("decomposition does not recompose (internal bug)")
    return dec


def oracle_peel_chain(f_map: PolyMap) -> Decomposition:
    swp = affine([[0, 1], [1, 0]])
    raw_head: list = []  # leading affine pieces ('aff' or 'swap')
    raw_tris: list[Polynomial] = []  # f_i in variable x, all of form (x, y+f(x))
    g = f_map
    guard = int(max(*g.mdeg(), 1)) ** 2 + 10
    steps = 0
    while not _is_affine(g):
        steps += 1
        if steps > guard:
            raise AssertionError("peeling failed to terminate (internal bug)")
        p, q = g.components
        dp, dq = p.total_degree(), q.total_degree()
        if min(dp, dq) < 1:
            raise PeelStuckError("constant or zero component while peeling", g)
        if dp == dq:
            prop = is_power_proportional(p.leading_form(), q.leading_form())
            if prop is None or prop[1] != 1:
                raise PeelStuckError(
                    f"equal-degree leading forms not proportional at degree {dp}", g)
            c = prop[0]
            fix = affine([[1, c], [0, 1]])
            raw_head.append(("aff", fix))
            g = fix.inverse.compose(g)
            continue
        if dp > dq:
            raw_head.append(("swap", swp))
            g = swp.map.compose(g)
            continue
        if raw_tris and raw_head and raw_head[-1][0] != "swap":
            raise AssertionError("unexpected chain shape (internal bug)")
        rem = q
        f_acc = Polynomial.zero(2)
        while rem.total_degree() > dp or (rem.total_degree() == dp and dp > 1):
            dr = int(rem.total_degree())
            if dr % int(dp):
                raise PeelStuckError(
                    f"degree {dr} not divisible by {int(dp)} while peeling", g)
            prop = is_power_proportional(rem.leading_form(), p.leading_form())
            if prop is None:
                raise PeelStuckError(
                    f"leading form at degree {dr} is not proportional to a "
                    f"power of the lower component's form", g)
            c, k = prop
            f_acc = f_acc + Polynomial.monomial(2, (k, 0), c)
            rem = rem - (p ** k).scale(c)
        if f_acc.total_degree() <= 1:
            raise PeelStuckError("peeled factor degenerated to affine "
                                 "(not an automorphism)", g)
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
        factors = []
        for i in range(1, l + 1):
            f_of_x = raw_tris[l - i]
            form = 2 if i % 2 == 1 else 1
            factors.append(_tri_factor(f_of_x, form))
        seen_tri_boundary = len(raw_head) - (l - 1)
        a_items = raw_head[:seen_tri_boundary]
        a_map = compose_all([it[1].map for it in a_items]) if a_items else identity(2)
        l2_map = a_map.compose(swp.map) if l % 2 == 1 else a_map
        l1_map = swp.map.compose(l1_raw.map)
        return Decomposition(_as_affine_factor(l1_map), factors,
                             _as_affine_factor(l2_map),
                             [int(f.total_degree()) for f in raw_tris[::-1]])


# -- corpora ----------------------------------------------------------------


def outcome(peel_fn, f_map):
    """The decomposition's parts, or the exception's type and message.  A
    decomposition must recompose to f_map exactly: peel itself only checks
    it at a point."""
    try:
        dec = peel_fn(f_map)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    assert dec.compose() == f_map
    return dec.l1, dec.factors, dec.l2, dec.factor_degrees


def assert_same(f_map):
    expected = outcome(oracle_peel, f_map)
    assert outcome(peel, f_map) == expected
    return expected


def p2(text):
    return parse_poly(text, n=2)


def normalized_inner(rng, degs):
    """T_l . ... . T_1 . L1 with T_1 = (x + f(y), y), turned so that its
    first component has the lower degree."""
    fs = []
    for i, d in enumerate(degs, start=1):
        var, coord = (1, 0) if i % 2 else (0, 1)
        fs.append(elementary(2, coord, sparse_univariate(rng, d, var)))
    inner = compose_all([f.map for f in reversed(fs)] + [random_affine2(rng).map])
    p, q = inner.components
    return PolyMap((q, p)) if p.total_degree() > q.total_degree() else inner


def perturbed(rng, f_map):
    comps = list(f_map.components)
    j = rng.randrange(2)
    exps = (rng.randrange(4), rng.randrange(4))
    comps[j] = comps[j] + Polynomial.monomial(2, exps, rng.choice([1, -1, Fraction(1, 2)]))
    return PolyMap(tuple(comps))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recipe_chains_match_oracle(seed):
    """The tests' chain recipe: lengths 1..4 under general affine ends, so
    the first step meets equal, higher or lower first components."""
    rng = random.Random(seed)
    lengths = set()
    for _ in range(25):
        f, length, _ = random_plane_chain(rng, max_degree_product=24)
        dec = assert_same(f)
        assert len(dec[1]) == length
        lengths.add(length)
    assert {1, 2} <= lengths and lengths & {3, 4}


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_first_component_higher_and_lower(length):
    """No head fix: the chain turned each way, under no end and under a swap."""
    rng = random.Random(10 + length)
    degs = [2, 3, 2, 2][:length]
    for _ in range(3):
        inner = normalized_inner(rng, degs)
        turned = affine([[0, 1], [1, 0]]).map.compose(inner)
        for f in (inner, turned):
            assert len(assert_same(f)[1]) == length


def test_affine_maps_have_length_zero():
    rng = random.Random(5)
    for _ in range(20):
        dec = assert_same(random_affine2(rng).map)
        assert dec[1] == () and dec[3] == []


@pytest.mark.parametrize("length", [1, 2, 3])
def test_equal_degree_heads(length):
    """(x + c*y, y) and a general invertible A on a chain whose first
    component has the lower degree: both components start at one degree."""
    rng = random.Random(20 + length)
    degs = [3, 2, 2][:length]
    for k in range(6):
        inner = normalized_inner(rng, degs)
        if k % 2:
            rows = [[1, rng.choice([1, -2, Fraction(1, 3)])], [0, 1]]
        else:  # no zero entry, so both components take the higher degree
            rows = [[0, 0], [0, 0]]
            while rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
                rows = [[rng.choice([-2, -1, 1, 2]) for _ in range(2)] for _ in range(2)]
        head = affine(rows, [rng.randrange(-2, 3), rng.randrange(-2, 3)])
        f = head.map.compose(inner)
        assert len(set(f.mdeg())) == 1
        assert len(assert_same(f)[1]) == length


@pytest.mark.parametrize("seed", [31, 32])
def test_failures_match_oracle(seed):
    """Perturbed chains: the same exception type and message."""
    rng = random.Random(seed)
    kinds = set()
    for _ in range(20):
        f, _, _ = random_plane_chain(rng, max_degree_product=16)
        kinds.add(assert_same(perturbed(rng, f))[0])
    assert NotKellerError in kinds


@pytest.mark.parametrize("p, q", [
    ("x", "1"), ("0", "x"), ("x^2", "1"), ("x", "x"), ("x + y", "2*x + 2*y"),
    ("x^2", "y"), ("x^2 + y", "x^2 + 2*y"), ("x + y^2", "y + x"),
    ("x^2 + y^3", "y + (x^2 + y^3)^2"), ("x + y^3", "x + y^3 + 1"),
    ("x^3 + y", "x^2"), ("x + y", "x + y + x^2"), ("x", "y + x^3"),
])
def test_edge_maps_match_oracle(p, q):
    assert_same(PolyMap((p2(p), p2(q))))
