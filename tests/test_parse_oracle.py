"""Differential tests of the text parser.

Random expression trees are rendered to text and parsed; the oracle
evaluates the same tree with Polynomial ring operations, and the parser
that read one token per number, name and operator (``test_token_oracle``)
must give the same stored form.  Canonical text from ``format_poly`` must
parse back to the polynomial it came from.
"""
from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tamedeg.poly import Polynomial, default_varnames, format_poly, parse_poly  # noqa: E402
from test_token_oracle import assert_same  # noqa: E402

# Grammar levels a rendered text fits in, loosest first: an expr may carry
# a leading sign and binary + or -, a term is a product, a factor is a
# negation or a power, an atom needs no parentheses anywhere.
EXPR, TERM, FACTOR, ATOM = range(4)

literals = st.one_of(
    st.integers(0, 60).map(lambda k: ("num", str(k), Fraction(k))),
    st.tuples(st.integers(0, 30), st.integers(1, 9)).map(
        lambda pq: ("num", f"{pq[0]}/{pq[1]}", Fraction(*pq))),
)


def degree_bound(tree):
    op = tree[0]
    if op in ("num", "var"):
        return op == "var"
    if op in ("neg", "paren"):
        return degree_bound(tree[1])
    if op == "^":
        return degree_bound(tree[1]) * tree[2]
    a, b = degree_bound(tree[1]), degree_bound(tree[2])
    return a + b if op == "*" else max(a, b)


def trees(n):
    leaves = st.one_of(literals, st.integers(0, n - 1).map(lambda i: ("var", i)))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("paren"), sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
    ), max_leaves=10).filter(lambda t: degree_bound(t) <= 12)  # keeps the oracle fast


def evaluate(tree, n):
    op = tree[0]
    if op == "num":
        return Polynomial.constant(n, tree[2])
    if op == "var":
        return Polynomial.variable(n, tree[1])
    if op == "neg":
        return -evaluate(tree[1], n)
    if op == "paren":
        return evaluate(tree[1], n)
    if op == "^":
        return evaluate(tree[1], n) ** tree[2]
    a, b = evaluate(tree[1], n), evaluate(tree[2], n)
    return a + b if op == "+" else a - b if op == "-" else a * b


def render(tree, names, sep):
    """(text, level) for a tree; ``sep`` goes around binary operators."""
    def at_least(sub, level):
        text, got = render(sub, names, sep)
        return text if got >= level else f"({text})"

    op = tree[0]
    if op == "num":
        return tree[1], ATOM
    if op == "var":
        return names[tree[1]], ATOM
    if op == "paren":
        return f"({render(tree[1], names, sep)[0]})", ATOM
    if op == "neg":
        return "-" + at_least(tree[1], FACTOR), FACTOR
    if op == "^":
        return f"{at_least(tree[1], ATOM)}^{tree[2]}", FACTOR
    if op == "*":
        return f"{at_least(tree[1], TERM)}{sep}*{sep}{at_least(tree[2], TERM)}", TERM
    # the right operand of a binary + or - is a term: a - (b - c) needs them
    return f"{at_least(tree[1], EXPR)}{sep}{op}{sep}{at_least(tree[2], TERM)}", EXPR


@st.composite
def rendered_trees(draw):
    n = draw(st.integers(1, 4))
    tree = draw(trees(n))
    names = draw(st.sampled_from([default_varnames(n),
                                  tuple(f"x{i}" for i in range(1, n + 1))]))
    text, _ = render(tree, names, draw(st.sampled_from(["", " "])))
    if draw(st.booleans()):
        text = "+" + text
    return n, tree, text


@settings(max_examples=400, deadline=None)
@given(rendered_trees())
def test_parse_matches_ring_operations(case):
    n, tree, text = case
    parsed = parse_poly(text, n=n)
    assert parsed.terms == evaluate(tree, n).terms, text
    assert all(type(c) is Fraction for c in parsed.terms.values())
    assert_same(text, n=n)


coefficients = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9))


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):  # sparse: few terms, large exponents
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 40)] * n), coefficients, max_size=8))
    else:  # dense: every monomial up to a total degree
        degree = draw(st.integers(0, 6 if n <= 3 else 2))
        exps = [e for e in product(range(degree + 1), repeat=n) if sum(e) <= degree]
        coeffs = draw(st.lists(coefficients, min_size=len(exps), max_size=len(exps)))
        terms = dict(zip(exps, coeffs))
    return Polynomial(n, terms)


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.sampled_from(["default", "indexed", "alias"]))
def test_format_parse_roundtrip(f, names):
    n = f.n
    if names == "alias":
        varnames = tuple(f"v_{i}" for i in range(n))
        assert parse_poly(format_poly(f, varnames), varnames) == f
    elif names == "indexed":
        text = format_poly(f, tuple(f"x{i}" for i in range(1, n + 1)))
        assert parse_poly(text, n=n) == f
    else:
        assert parse_poly(format_poly(f), n=n) == f
