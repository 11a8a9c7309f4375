"""Differential tests of the product kernel and the map operations on it.

A ``Polynomial`` holds integer numerators over one denominator.
``substitute`` packs each exponent tuple into one int key, powers only the
arguments whose variable occurs and sums scaled products of those powers
into one dict; ``a * b`` is the same routine on z0*z1 with arguments (a, b);
``**`` builds its power in one packed layout, with no substitution chain.
Packed keys add without carries, so the product kernel sums into a list
indexed by the key when the largest product key is below the number of
term pairs (the list is then no longer than the pairs), and into a dict
otherwise.  Both sides of that rule, and every other ring operation, are
checked against ``Fraction`` oracles on exponent tuples: every coefficient
read through ``terms`` must be a nonzero, normalised ``Fraction``, and the
stored form must be in lowest terms.  Every exponent packed must fit the
field width of its layout.
``PolyMap.compose`` and ``PolyMap.jacobian_determinant`` are checked
against sympy, and ``compose_all``, which runs a whole chain in one packed
layout, against a step-by-step fold of ``substitute``.
"""
import contextlib
import itertools
from fractions import Fraction
from math import gcd, prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tamedeg import poly  # noqa: E402
from tamedeg.maps import PolyMap, compose_all, elementary  # noqa: E402
from tamedeg.plane import peel  # noqa: E402
from tamedeg.poly import Polynomial, _layout, _pack, parse_poly  # noqa: E402

coefficients = st.one_of(
    st.integers(-5, 5),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=50).filter(lambda c: abs(c) < 10 ** 6),
    st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)).map(
        lambda pq: Fraction(*pq)),
)


@st.composite
def polynomials(draw, n, max_terms=6):
    """Sparse operands with exponents past 2^21, or dense ones with small
    exponents; coefficients of all kinds mixed in one operand."""
    if draw(st.booleans()):
        exps = st.tuples(*[st.sampled_from([0, 1, 2, 2 ** 20, 2 ** 21 + 3, 2 ** 22])
                           for _ in range(n)])
    else:
        exps = st.tuples(*[st.integers(0, 3) for _ in range(n)])
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return Polynomial(n, terms)


def oracle_mul(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def oracle_substitute(f, args):
    m = args[0].n
    out = {}
    for exps, c in f.terms.items():
        prod = {(0,) * m: c}
        for a, e in zip(args, exps):
            for _ in range(e):
                prod = oracle_mul(Polynomial(m, prod), a)
        for e, v in prod.items():
            out[e] = out.get(e, Fraction(0)) + v
    return {e: c for e, c in out.items() if c}


def assert_clean(p, expected):
    assert p.terms == expected
    for c in p.terms.values():
        assert type(c) is Fraction
        assert c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(polynomials(n), polynomials(n))))
def test_mul_matches_oracle(pair):
    a, b = pair
    assert_clean(a * b, oracle_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(polynomials(n, 4), polynomials(n, 4))))
def test_cancelling_products(pair):
    # (f + g)(f - g) = f^2 - g^2: the cross terms cancel; f*(f - f) has a
    # zero operand
    f, g = pair
    for a, b in [(f + g, f - g), (f, f - f)]:
        assert_clean(a * b, oracle_mul(a, b))


def monomial_exponents(n):
    """Exponent tuples of total degree at most 4, so that the expanded
    substitution stays small for the oracle."""
    return st.tuples(*[st.sampled_from([0, 0, 0, 1, 2])] * n).filter(lambda e: sum(e) <= 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.dictionaries(monomial_exponents(n), coefficients, max_size=5),
        st.lists(polynomials(m, 3), min_size=n, max_size=n)))))
def test_substitute_matches_oracle(data):
    terms, args = data
    f = Polynomial(len(args), terms)
    assert_clean(f.substitute(args), oracle_substitute(f, args))


@pytest.mark.parametrize("c", [1, Fraction(-7, 3), 10 ** 30 + Fraction(1, 10 ** 30)])
def test_substitute_cancels_to_zero(c):
    # c*(x - y^2) vanishes at (s^2, s), for s = t and for s = t + 1/3
    f = Polynomial(2, {(1, 0): c, (0, 2): -c})
    t = Polynomial.variable(1, 0)
    for s in (t, t + Fraction(1, 3)):
        assert_clean(f.substitute([s * s, s]), {})
    args = [t * t, t + Fraction(1, 3)]
    assert_clean(f.substitute(args), oracle_substitute(f, args))


# ---------------------------------------------------------------------------
# both sides of the list/dict rule of the product kernel
# ---------------------------------------------------------------------------

def sums_into_list(a, b):
    """Whether ``a * b`` sums into a list: its largest packed product key
    is below the number of term pairs.  ``*`` runs through ``_compose``,
    whose fields are as wide as deg a + deg b."""
    width = (a.total_degree() + b.total_degree()).bit_length()
    shifts, _ = _layout(a.n, width)
    ka, kb = _pack(a.numerators, shifts), _pack(b.numerators, shifts)
    return max(ka) + max(kb) + 1 <= len(ka) * len(kb)


def dense_coefficient(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "multiword":
        return rng.randint(-10 ** 40, 10 ** 40)
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))


@st.composite
def dense_bivariate(draw):
    """Operands in two variables with most monomials of total degree at
    most d present, d in 5..30, and integer, multi-word or rational
    coefficients."""
    d = draw(st.integers(5, 30))
    kind = draw(st.sampled_from(["int", "multiword", "rational"]))
    rng = draw(st.randoms(use_true_random=False))
    density = rng.choice([0.5, 0.8, 1.0])
    return Polynomial(2, {(i, j): dense_coefficient(rng, kind)
                          for i in range(d + 1) for j in range(d + 1 - i)
                          if rng.random() < density})


@settings(max_examples=25, deadline=None)
@given(dense_bivariate(), dense_bivariate())
def test_dense_bivariate_products(a, b):
    assert_clean(a * b, oracle_mul(a, b))
    # the cross terms of (a + b)(a - b) cancel to zero inside the list
    assert_clean((a + b) * (a - b), oracle_mul(a + b, a - b))


@settings(max_examples=15, deadline=None)
@given(dense_bivariate(), dense_bivariate(),
       st.sampled_from([{(1, 1): 1}, {(2, 0): Fraction(-1, 2), (0, 1): 3},
                        {(1, 1): 2, (0, 2): -1, (1, 0): Fraction(5, 7)}]))
def test_dense_bivariate_substitution(a, b, terms):
    f = Polynomial(2, terms)
    assert_clean(f.substitute([a, b]), oracle_substitute(f, [a, b]))


sparse_wide = st.dictionaries(
    st.tuples(*[st.sampled_from([0, 1, 2 ** 21 + 3, 2 ** 22])] * 2), coefficients,
    min_size=1, max_size=6).map(lambda terms: Polynomial(2, terms))


@settings(max_examples=40, deadline=None)
@given(dense_bivariate(), sparse_wide)
def test_dense_times_sparse_past_two_to_the_21(a, sparse):
    # exponents past 2^21 widen every field, so the product sums into a dict
    assert_clean(a * sparse, oracle_mul(a, sparse))
    f = Polynomial(2, {(1, 1): 1, (0, 2): Fraction(-1, 3)})
    assert_clean(f.substitute([a, sparse]), oracle_substitute(f, [a, sparse]))


@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_cancellation_inside_the_list(k):
    # (1 - x)(1 + x + ... + x^k) = 1 - x^(k+1): every middle entry is zero
    x = Polynomial.variable(1, 0)
    geometric = sum((x ** i for i in range(k + 1)), Polynomial.zero(1))
    a = 1 - x
    assert sums_into_list(a, geometric)
    assert_clean(a * geometric, oracle_mul(a, geometric))
    assert (a * geometric).numerators == {(0,): 1, (k + 1,): -1}


def straddling_pairs():
    """Univariate and bivariate operand pairs whose largest product key lies
    just below, at and just above the number of term pairs."""
    pairs = []
    for p in range(1, 7):
        for q in range(1, 7):
            a = Polynomial(1, {(i,): 3 * i - 7 for i in range(p)}) + Polynomial.monomial(
                1, (p - 1,), 1 + p)
            for delta in (-1, 0, 1):
                # top = (p - 1) + M + 1 = p*q + delta
                m = p * q + delta - p
                if m < q - 1:
                    continue
                exps = sorted({0, m} | set(range(1, q - 1)))
                b = Polynomial(1, {(e,): Fraction(2 * e + 1, e + 2) for e in exps})
                pairs.append((a, b))
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for p in range(1, 6):
        for extra in range(0, 40, 3):
            a = sum((x ** i * y ** (p - 1 - i) for i in range(p)), Polynomial.zero(2))
            b = sum((x ** i for i in range(extra + 1)), y * 5 - 2)
            pairs.append((a, b))
            pairs.append((a + x ** (extra + 1), b * b))
    return pairs


def test_straddling_sweep():
    pairs = straddling_pairs()
    sides = [sums_into_list(a, b) for a, b in pairs]
    assert any(sides) and not all(sides)
    # univariate keys are the exponents: the top key minus the pairs
    assert {-1, 0, 1} <= {max(a.numerators)[0] + max(b.numerators)[0] + 1
                          - len(a.numerators) * len(b.numerators)
                          for a, b in pairs if a.n == 1}
    f = Polynomial(2, {(1, 1): Fraction(-2, 3), (1, 0): 1})
    for a, b in pairs:
        assert_clean(a * b, oracle_mul(a, b))
        assert_clean(f.substitute([a, b]), oracle_substitute(f, [a, b]))


# ---------------------------------------------------------------------------
# no variables, and exponents that fit their packed fields
# ---------------------------------------------------------------------------

def test_products_in_no_variables():
    three, five = Polynomial.constant(0, 3), Polynomial.constant(0, 5)
    assert three * five == Polynomial.constant(0, 15)
    assert (three * five).numerators == {(): 15}
    assert three * Polynomial.constant(0, Fraction(-1, 3)) == Polynomial.constant(0, -1)
    assert (three * Polynomial.constant(0, 0)).numerators == {}
    assert three ** 3 == Polynomial.constant(0, 27)


def test_substitute_into_no_variables():
    f = Polynomial(2, {(2, 1): 1, (0, 0): 3, (1, 0): Fraction(1, 2)})
    args = [Polynomial.constant(0, 2), Polynomial.constant(0, Fraction(1, 3))]
    assert f.substitute(args) == Polynomial.constant(0, Fraction(4, 3) + 3 + 1)
    assert Polynomial.variable(2, 1).substitute(args) is args[1]
    assert Polynomial.zero(2).substitute(args) == Polynomial.zero(0)


@contextlib.contextmanager
def fields_checked():
    """Every exponent that ``_pack`` packs is below ``1 << width`` for the
    width of the last layout made, so no field carries into the next."""
    widths = []

    def layout(n, width):
        widths.append(width)
        return _layout(n, width)

    def pack(numerators, shifts):
        limit = 1 << widths[-1]
        assert all(e < limit for exps in numerators for e in exps), (
            dict(numerators), widths[-1])
        return _pack(numerators, shifts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_layout", layout)
        mp.setattr(poly, "_pack", pack)
        yield widths


def test_fields_fit_in_compose_and_inverse():
    f = elementary(2, 0, parse_poly("2*y^2", n=2))
    with fields_checked() as widths:
        assert f.map.compose(f.inverse) == PolyMap((Polynomial.variable(2, 0),
                                                    Polynomial.variable(2, 1)))
        g = PolyMap.from_json({"n": 2, "components": [
            "x + 3*y^2 - 1/2*y^5", "y + (x + 3*y^2 - 1/2*y^5)^3 - 2*(x + 3*y^2 - 1/2*y^5) + 1"]})
        dec = peel(g)
        assert g.compose(dec.inverse_map()) == PolyMap((Polynomial.variable(2, 0),
                                                        Polynomial.variable(2, 1)))
        # five factors: one layout for the chain, sized by its degree bound 7
        chain = [elementary(3, 0, parse_poly("y*z - 1/3", n=3)).map,
                 elementary(3, 1, parse_poly("x^2 + 2*z", n=3)).map,
                 elementary(3, 2, parse_poly("-x*y", n=3)).map,
                 elementary(3, 0, parse_poly("7*y^2", n=3)).map,
                 PolyMap.from_json({"n": 3, "components": ["2*x + 1/2", "y - z", "z"]})]
        del widths[:]
        composed = compose_all(chain)
        assert widths == [(7).bit_length()]
        assert composed == folded(chain)
        assert composed.mdeg() == (7, 4, 3)
    assert widths


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        polynomials(n), polynomials(n),
        st.dictionaries(monomial_exponents(n), coefficients, max_size=5),
        st.lists(polynomials(m, 3), min_size=n, max_size=n)))))
def test_fields_fit_in_kernel_cases(data):
    a, b, terms, args = data
    with fields_checked():
        assert_clean(a * b, oracle_mul(a, b))
        for k in range(5):
            assert_clean(a ** k, oracle_pow(a, k))
        f = Polynomial(len(args), terms)
        assert_clean(f.substitute(args), oracle_substitute(f, args))


# ---------------------------------------------------------------------------
# compose and jacobian_determinant against sympy
# ---------------------------------------------------------------------------

@st.composite
def small_polynomials(draw, n, max_degree):
    """Sparse operands (a few monomials with gaps) or dense ones (most
    monomials up to max_degree), with small exponents so that sympy can
    expand their compositions."""
    monomials = [e for e in itertools.product(range(max_degree + 1), repeat=n)
                 if sum(e) <= max_degree]
    if draw(st.booleans()):
        exps = draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True))
    else:
        exps = [e for e in monomials if draw(st.integers(0, 4))]
    return Polynomial(n, {e: draw(coefficients) for e in exps})


def small_maps(n, max_degree):
    return st.lists(small_polynomials(n, max_degree), min_size=n,
                    max_size=n).map(lambda comps: PolyMap(tuple(comps)))


def to_sympy(p, gens):
    zero = gens[0] * 0
    return sum((c * prod((g ** e for g, e in zip(gens, exps)), start=zero + 1)
                for exps, c in p.terms.items()), start=zero)


def from_sympy(expr, gens):
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in expr.expand().as_poly(*gens).as_dict().items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    small_maps(n, 3), small_maps(n, 2), small_maps(n, 3), st.booleans())))
def test_compose_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    f, g, d, diagonal = data
    n = f.n
    if diagonal:
        # every inner component equals the first, and f gains d - d.swap,
        # where swap exchanges the first two variables: those terms cancel
        g = PolyMap((g.components[0],) * n)
        swap = PolyMap(tuple(Polynomial.variable(n, i)
                             for i in ([1, 0, 2][:n] if n > 1 else [0])))
        f = PolyMap(tuple(c + e - s for c, e, s in
                          zip(f.components, d.components, d.compose(swap).components)))
    gens = sympy.symbols(f"t0:{n}")
    inner = dict(zip(gens, [to_sympy(c, gens) for c in g.components]))
    composed = f.compose(g)
    for got, comp in zip(composed.components, f.components):
        assert_clean(got, from_sympy(to_sympy(comp, gens).xreplace(inner), gens))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: small_maps(n, 3)))
def test_jacobian_determinant_matches_sympy(f):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"t0:{f.n}")
    matrix = sympy.Matrix([to_sympy(c, gens) for c in f.components]).jacobian(gens)
    assert_clean(f.jacobian_determinant(), from_sympy(matrix.det(), gens))


# ---------------------------------------------------------------------------
# compose_all against a fold of substitute
# ---------------------------------------------------------------------------

def folded(maps):
    """maps[0] . ... . maps[-1], one ``substitute`` per component and step."""
    result = maps[-1]
    for m in reversed(maps[:-1]):
        result = PolyMap(tuple(c.substitute(result.components) for c in m.components))
    return result


@st.composite
def chains(draw):
    """1-6 maps in n = 1..3 variables: sparse and dense maps whose degrees
    multiply to at most 12, or to at most 4 over an innermost map with
    exponents past 2^20, whose products are all sparse."""
    n, length, wide = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.booleans())
    maps, budget = [], 4 if wide else 12
    for _ in range(length - 1):
        d = draw(st.integers(1, min(3, budget)))
        budget //= d
        maps.append(draw(small_maps(n, d)))
    if wide:
        exps = st.tuples(*[st.sampled_from([0, 1, 2 ** 20 + 1])] * n)
        inner = st.dictionaries(exps, coefficients, max_size=3).map(
            lambda terms: Polynomial(n, terms))
    else:
        inner = small_polynomials(n, min(3, budget))
    return maps + [PolyMap(tuple(draw(st.lists(inner, min_size=n, max_size=n))))]


@settings(max_examples=150, deadline=None)
@given(chains())
def test_compose_all_matches_fold(maps):
    composed = compose_all(maps)
    for got, want in zip(composed.components, folded(maps).components):
        assert_canonical(got, dict(want.terms))


def test_compose_all_both_sides(monkeypatch):
    # dense factors sum into the list, sparse ones into the dict
    sides = set()
    mul_packed = poly._mul_packed

    def recorded(a, b):
        if a and b:
            sides.add(max(a) + max(b) + 1 <= len(a) * len(b))
        return mul_packed(a, b)

    dense = PolyMap.from_json({"n": 2, "components": [
        "x^3 + 2*x^2*y - 1/3*x*y^2 + y^3 + x^2 + x*y + y^2 + x + y + 1", "y + 5*x^2 + 3"]})
    sparse = PolyMap.from_json({"n": 2, "components": ["x + y^7", "-2/9*y"]})
    maps = [sparse, dense, elementary(2, 1, parse_poly("x^2 - 4", n=2)).map, dense]
    monkeypatch.setattr(poly, "_mul_packed", recorded)
    assert compose_all(maps) == folded(maps)
    assert sides == {True, False}


# ---------------------------------------------------------------------------
# the stored form: integer numerators over one denominator, in lowest terms
# ---------------------------------------------------------------------------

def assert_canonical(p, expected):
    """``p`` equals the Fraction oracle ``expected`` and is stored in the one
    canonical form: a positive denominator, no zero numerator, and no common
    factor of the denominator and all numerators."""
    assert_clean(p, expected)
    den, nums = p.denominator, p.numerators
    assert type(den) is int and den > 0
    assert all(type(v) is int and v != 0 for v in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert {e: Fraction(v, den) for e, v in nums.items()} == expected


def oracle_add(a, b, sign=1):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def oracle_pow(a, k):
    out = {(0,) * a.n: Fraction(1)}
    for _ in range(k):
        out = oracle_mul(Polynomial(a.n, out), a)
    return out


def oracle_derivative(a, i):
    out = {}
    for exps, c in a.terms.items():
        if exps[i]:
            out[exps[:i] + (exps[i] - 1,) + exps[i + 1:]] = c * exps[i]
    return out


scalars = st.one_of(coefficients, st.sampled_from([0, 1, -1, Fraction(1, 6), Fraction(-6)]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    polynomials(n, 4), polynomials(n, 4), scalars, st.integers(0, 3),
    st.integers(0, n - 1))))
def test_ring_operations_are_canonical(data):
    a, b, c, k, i = data
    assert_canonical(a, dict(a.terms))
    assert_canonical(a + b, oracle_add(a, b))
    assert_canonical(a - b, oracle_add(a, b, -1))
    assert_canonical(-a, {e: -v for e, v in a.terms.items()})
    assert_canonical(a.scale(c), {e: c * v for e, v in a.terms.items() if c})
    assert_canonical(a * b, oracle_mul(a, b))
    assert_canonical(a ** k, oracle_pow(a, k))
    assert_canonical(a.partial_derivative(i), oracle_derivative(a, i))
    for d in {sum(e) for e in a.terms} | {0}:
        assert_canonical(a.homogeneous_part(d),
                         {e: v for e, v in a.terms.items() if sum(e) == d})


def test_powers_do_not_compose():
    # ** and peel's strip powers are built by poly._powers, without the
    # chain routine's set-up
    def refuse(chain):
        raise AssertionError("a power went through _compose")

    t1 = elementary(2, 0, parse_poly("1/2*y^3", n=2)).map
    t2 = elementary(2, 1, parse_poly("x^3 - 2/7*x^2 + x", n=2)).map
    g = t2.compose(t1)  # the strip lowering (y + f(q)) by q = x + 1/2*y^3 has k = 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_compose", refuse)
        for n in range(4):
            top, zero = tuple(range(1, n + 1)), (0,) * n
            bases = [Polynomial.monomial(n, top, Fraction(-2, 3)),
                     Polynomial(n, {top: 2, zero: -1}),
                     Polynomial(n, {top: Fraction(1, 2), (2,) * n: Fraction(-4, 9),
                                    zero: Fraction(5, 6)})]
            for a, k in itertools.product(bases, range(1, 6)):
                assert_canonical(a ** k, oracle_pow(a, k))
        dec = peel(g)
    assert dec.factor_degrees == [3, 3]
    assert dec.compose() == g


def test_products_compose():
    # a * b is the image of z0*z1 under the chain routine; scalars take scale
    def refuse(chain):
        raise AssertionError("a product went through _compose")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_compose", refuse)
        for n in range(4):
            top, zero = tuple(range(1, n + 1)), (0,) * n
            operands = [Polynomial.monomial(n, top, Fraction(-2, 3)),
                        Polynomial(n, {top: 2, zero: -1}),
                        Polynomial(n, {top: Fraction(1, 2), (2,) * n: Fraction(-4, 9),
                                       zero: Fraction(5, 6)}),
                        Polynomial.zero(n)]
            for a, b in itertools.product(operands, repeat=2):
                with pytest.raises(AssertionError, match="went through _compose"):
                    a * b
            for a in operands:
                assert_canonical(a * 3, {e: 3 * c for e, c in a.terms.items()})
                assert_canonical(a * Fraction(1, 2), {e: c / 2 for e, c in a.terms.items()})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.dictionaries(monomial_exponents(n), coefficients, max_size=5),
        st.lists(polynomials(m, 3), min_size=n, max_size=n)))))
def test_substitute_is_canonical(data):
    terms, args = data
    f = Polynomial(len(args), terms)
    assert_canonical(f.substitute(args), oracle_substitute(f, args))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    polynomials(n, 4), polynomials(n, 4),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6).filter(bool))))
def test_content_cancels_to_one(data):
    # scaling by c and then by 1/c, or taking the content back out of a
    # product, leaves a common factor that the stored form must divide out;
    # f - f and a cancelling product are zero
    a, b, c = data
    up = a.scale(c)
    for p in (up.scale(1 / c), up * (1 / c), up * Polynomial.constant(a.n, 1 / c)):
        assert_canonical(p, dict(a.terms))
        assert p == a and hash(p) == hash(a)
    assert_canonical(up - up, {})
    assert_canonical((a + b) * (a - b) - (a * a - b * b), {})


x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


@pytest.mark.parametrize("built, direct", [
    (x.scale(Fraction(1, 2)) * 2, x),
    (x.scale(Fraction(1, 6)) + x.scale(Fraction(1, 6)) + x.scale(Fraction(1, 6)),
     Polynomial(2, {(1, 0): Fraction(1, 2)})),
    (Polynomial(2, {(1, 0): Fraction(2, 6), (0, 1): Fraction(4, 6)}) * 3, x + y * 2),
    ((x * Fraction(2, 3) + y * Fraction(4, 3)).partial_derivative(1),
     Polynomial.constant(2, Fraction(4, 3))),
    ((x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 3))).homogeneous_part(1)
     - y.scale(Fraction(1, 3)), x.scale(Fraction(1, 2))),
    ((x + y.scale(Fraction(1, 3))).substitute([y.scale(3), x]), y * 3 + x.scale(Fraction(1, 3))),
    (x - x, Polynomial.zero(2)),
])
def test_equal_by_different_paths(built, direct):
    assert built == direct and hash(built) == hash(direct)
    assert (built.denominator, built.numerators) == (direct.denominator, direct.numerators)


def test_terms_view_is_normalised_and_read_only():
    f = Polynomial(2, {(1, 0): Fraction(3, 6), (0, 1): 2, (0, 0): Fraction(-4, 6)})
    assert f.numerators == {(1, 0): 3, (0, 1): 12, (0, 0): -4} and f.denominator == 6
    assert dict(f.terms) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(2),
                             (0, 0): Fraction(-2, 3)}
    assert all(type(c) is Fraction for c in f.terms.values())
    assert f.terms is f.terms
    with pytest.raises(TypeError):
        f.terms[(1, 1)] = Fraction(1)
