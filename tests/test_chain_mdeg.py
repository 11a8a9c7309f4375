"""``maps.chain_mdeg`` against ``compose_all(...).mdeg()``.

``chain_mdeg`` reads a chain's multidegree off leading forms and composes
the chain only on a cancellation.  Two differentials guard it: every witness
that ``decide --witness`` builds for a sorted triple with d3 <= 60, and
random chains of elementary and affine factors with rational coefficients,
leading forms of several terms and cancellations built on purpose.
"""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamedeg import maps
from tamedeg.classify import Status, enumerate_classifications
from tamedeg.linalg import SingularMatrixError
from tamedeg.maps import PolyMap, affine, chain_mdeg, compose_all, elementary
from tamedeg.poly import NEG_INF, DimensionMismatch, Polynomial, parse_poly
from tamedeg.witness import build


def p3(text):
    return parse_poly(text, n=3)


def m3(*components):
    return PolyMap(tuple(map(p3, components)))


@pytest.fixture
def compositions(monkeypatch):
    """The chains ``maps.compose_all`` is called on from now on."""
    calls = []
    monkeypatch.setattr(maps, "compose_all", lambda chain: calls.append(chain) or compose_all(chain))
    return calls


def test_every_witness_up_to_60(compositions):
    # sum-rule chains never cancel; every cancellation recipe cancels in its
    # last factor, (u^bt - v^at) u^q, and is composed once
    kinds = Counter()
    for c in enumerate_classifications(60):
        if c.status is not Status.REALIZABLE:
            continue
        chain = [f.map for f in build(c.witness_recipe).factors]
        kind = c.witness_recipe.kind
        kinds[kind] += 1
        compositions.clear()
        assert chain_mdeg(chain) == compose_all(chain).mdeg() == c.sorted_mdeg, c
        assert len(compositions) == (kind != "sum_rule"), c
    assert kinds == {"sum_rule": 15508, "tab_tail": 1089, "four_k2": 110, "four_six": 27}


coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)])


@st.composite
def elementary_factors(draw, n, degree):
    """x_i -> x_i + f with f of degree ``degree`` in the other variables, a
    leading form of one to three terms and a few lower terms."""
    i = draw(st.integers(0, n - 1))
    monomials = [e for e in _monomials(n, degree) if not e[i]]
    lower = [e for d in range(degree) for e in _monomials(n, d) if not e[i]]
    top = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
    low = draw(st.lists(st.sampled_from(lower), max_size=2, unique=True))
    return elementary(n, i, Polynomial(n, {e: draw(coefficients) for e in top + low}))


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d + 1) for rest in _monomials(n - 1, d - k)]


@st.composite
def affine_factors(draw, n):
    entries = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    try:
        return affine(matrix, draw(st.lists(entries, min_size=n, max_size=n)))
    except SingularMatrixError:
        assume(False)


@st.composite
def chains(draw):
    """2-8 maps in 2 or 3 variables whose degrees multiply to at most 12.  A
    factor may be followed by its inverse, which cancels wherever the
    factor's shift is above the component it shifts."""
    n, length = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    chain, budget = [], 12
    for _ in range(length):
        if draw(st.booleans()):
            factor = draw(affine_factors(n))
        else:
            degree = draw(st.integers(1, min(3, budget)))
            budget //= degree
            factor = draw(elementary_factors(n, degree))
        chain.append(factor.map)
        if draw(st.integers(0, 2)) == 0 and max(factor.map.mdeg()) <= budget:
            budget //= max(factor.map.mdeg())
            chain.append(factor.inverse)
    if len(chain) == 1:
        chain.append(draw(affine_factors(n)).map)
    return chain


@settings(max_examples=300, deadline=None)
@given(chains())
def test_random_chains_match_compose_all(chain):
    assert chain_mdeg(chain) == compose_all(chain).mdeg()


def test_inverse_pair_cancels(compositions):
    f = elementary(3, 0, p3("y^2 - 1/2*y*z + z"))
    assert chain_mdeg([f.map, f.inverse]) == (1, 1, 1)
    assert len(compositions) == 1


def test_several_term_forms(compositions):
    # z + x^2 - y^2 reads (x + y)^2 - (x - y)^2 = 4*x*y at degree 2
    rotate = m3("x + y", "x - y", "z")
    assert chain_mdeg([elementary(3, 2, p3("x^2 - y^2")).map, rotate]) == (1, 1, 2)
    assert compositions == []
    # x - (y + z)^2 after x + (y + z)^2 cancels through a form of three terms
    f = elementary(3, 0, p3("(y + z)^2"))
    assert chain_mdeg([f.inverse, f.map]) == (1, 1, 1)
    assert len(compositions) == 1


def test_scaled_variable_scales_its_form(compositions):
    # 1/2*x is not x: its form is half the one below it, so x - 1/2*y^2
    # after it cancels to 1/2*x
    chain = [elementary(3, 0, p3("-1/2*y^2")).map, m3("1/2*x", "y", "z"),
             elementary(3, 0, p3("y^2")).map]
    assert chain_mdeg(chain) == (1, 1, 1)
    assert len(compositions) == 1


def test_zero_component_falls_back(compositions):
    zero = m3("x", "0", "z")
    assert chain_mdeg([m3("x", "y + x^2", "z"), zero]) == (1, 2, 1)
    assert chain_mdeg([zero, m3("x + y^2", "y", "z")]) == (2, NEG_INF, 1)
    assert len(compositions) == 2


def test_shear_chain_is_read_off_forms(compositions):
    # the 4-factor shear chain at e = 16 has degree 16^4 and is never formed
    s, t = m3("x + y^16", "y", "z"), m3("x", "y + x^16", "z")
    assert chain_mdeg([s, t, s, t]) == (16 ** 4, 16 ** 3, 1)
    assert compositions == []


def test_needs_one_dimension():
    with pytest.raises(ValueError):
        chain_mdeg([])
    with pytest.raises(DimensionMismatch):
        chain_mdeg([m3("x", "y", "z"), PolyMap((parse_poly("x", n=2), parse_poly("y", n=2)))])
