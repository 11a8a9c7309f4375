import copy
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedeg.poly import (MAX_EXPONENT, MAX_RING_WORK, NEG_INF, DimensionMismatch,
                          ParseError, Polynomial, _image_bound, format_poly, parse_poly)


_INT_DIGITS = sys.get_int_max_str_digits()


def p(text, n=3):
    return parse_poly(text, n=n)


def tops(f):
    return [max(column) for column in zip(*f.numerators)]


def size(f):
    """The term count of ``f`` and the bits of its largest coefficient."""
    return len(f.numerators), (max(v.bit_length() for v in f.numerators.values())
                               + f.denominator.bit_length())


def product_bound(a, b):
    """The bound that the parser checked each product against before
    ``_image_bound``, unchanged: the oracle for ``(1, 1), (a, b)``."""
    (ta, ba), (tb, bb) = size(a), size(b)
    terms = min(ta * tb, comb(a.n + a.total_degree() + b.total_degree(), a.n))
    return (max(map(sum, zip(tops(a), tops(b))), default=0), terms,
            ba + bb + min(ta, tb).bit_length())


def nonzero_polynomials(n):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n),
        st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                  st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=10 ** 4),
                  st.integers(-10 ** 20, 10 ** 20)).filter(bool),
        min_size=1, max_size=5).map(lambda terms: Polynomial(n, terms))


class TestArithmetic:
    def test_ring_identities(self):
        f = p("x^2 + 2*y*z - 3")
        g = p("x - z^3")
        h = p("y^2 + 1/2")
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f - f == Polynomial.zero(3)
        assert f * Polynomial.constant(3, 1) == f
        assert f * 0 == Polynomial.zero(3)

    def test_integer_and_fraction_scalars(self):
        f = p("x + y")
        assert 2 * f == f + f
        assert f * Fraction(1, 2) + f * Fraction(1, 2) == f

    def test_pow(self):
        f = p("x + y", n=2)
        assert f ** 0 == Polynomial.constant(2, 1)
        assert f ** 3 == f * f * f
        with pytest.raises(ValueError):
            f ** -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            p("x", n=2) + p("x", n=3)

    def test_square_binomial(self):
        # (y + z^6)^2 expands with the cross term intact
        f = p("y + z^6")
        assert f * f == p("z^12 + 2*y*z^6 + y^2")

    def test_high_degree_cancellation(self):
        # (y + z^6)^2 - (x + z^4)^3 drops from degree 12 to 9
        f = p("y + z^6") ** 2 - p("x + z^4") ** 3
        assert f.total_degree() == 9
        assert f.coefficient((1, 0, 8)) == -3

    def test_huge_exponent_square(self):
        # 2^20 + 2^20 = 2^21 must not carry into the next variable
        f = Polynomial.monomial(2, (2 ** 20, 0))
        assert f * f == Polynomial.monomial(2, (2 ** 21, 0))

    @pytest.mark.parametrize("coeff", [1, Fraction(1, 3)])
    def test_exponent_sums_past_two_to_the_21(self, coeff):
        # integer and rational paths, exponent sums up to 2^21 + 1 in x
        big = 2 ** 20
        a = Polynomial(2, {(big, 0): coeff, (0, 1): 1})
        b = Polynomial(2, {(big + 1, 0): 1, (1, 2): -2})
        assert a * b == Polynomial(2, {(2 * big + 1, 0): coeff,
                                       (big + 1, 2): -2 * coeff,
                                       (big + 1, 1): 1, (1, 3): -2})


class TestDegrees:
    def test_zero_degree_is_neg_inf(self):
        assert Polynomial.zero(3).total_degree() == NEG_INF
        assert NEG_INF < 0

    def test_constant_degree(self):
        assert Polynomial.constant(3, 5).total_degree() == 0

    def test_total_degree(self):
        assert p("x*y^2*z^3 + x^4").total_degree() == 6

    def test_degree_of_product(self):
        f, g = p("x^2 + y"), p("z^3 - 1")
        assert (f * g).total_degree() == 5


class TestStructure:
    def test_homogeneous_parts_reconstruct(self):
        f = p("x^3 + 2*x*y - z + 7")
        total = Polynomial.zero(3)
        for d in range(int(f.total_degree()) + 1):
            part = f.homogeneous_part(d)
            assert part.is_zero() or part.is_homogeneous()
            total = total + part
        assert total == f

    def test_leading_form(self):
        f = p("y + 3/2*x*z^2 + z^6")
        assert f.leading_form() == p("z^6")

    def test_partial_derivative(self):
        f = p("x + z^4") ** 3
        expected = (p("z^3") * 12) * p("x + z^4") ** 2
        assert f.partial_derivative(2) == expected

    def test_derivative_of_constant(self):
        assert Polynomial.constant(3, 4).partial_derivative(0).is_zero()

    def test_substitute(self):
        f = p("x^2 + y", n=2)
        g = f.substitute([p("z", n=3), p("x*y", n=3)])
        assert g == p("z^2 + x*y", n=3)

    def test_substitute_makes_no_constant_products(self, monkeypatch):
        # each monomial multiplies only argument powers, never a constant
        rng = random.Random(3)
        terms = {}
        while len(terms) < 20:
            exps = (rng.randrange(5), rng.randrange(5), rng.randrange(5))
            terms[exps] = Fraction(rng.randrange(-99, 100) or 1, rng.randrange(1, 9))
        f = Polynomial(3, terms)
        args = [p("x", n=2), p("y", n=2), p("x", n=2)]
        expected = Polynomial(2, {})
        for (i, j, k), c in terms.items():
            expected = expected + Polynomial.monomial(2, (i + k, j), c)
        constant_operands = []
        for name in ("__mul__", "__rmul__"):
            original = getattr(Polynomial, name)

            def counted(self, other, _original=original):
                if any(not isinstance(q, Polynomial) or q.is_constant()
                       for q in (self, other)):
                    constant_operands.append((self, other))
                return _original(self, other)
            monkeypatch.setattr(Polynomial, name, counted)
        assert f.substitute(args) == expected
        assert constant_operands == []

    def test_substitute_of_a_variable_is_its_argument(self):
        args = [p("x + y^2", n=2), p("1/2*y", n=2), p("3", n=2)]
        for i in range(3):
            assert Polynomial.variable(3, i).substitute(args) is args[i]
        # a polynomial in no variables is its own image
        c = Polynomial.constant(0, Fraction(5, 3))
        assert c.substitute([]) is c
        # a coefficient or a denominator other than 1 is no identity component
        assert p("2*y").substitute(args) == p("y", n=2)
        assert p("1/2*y").substitute(args) == p("1/4*y", n=2)

    def test_substitute_packs_only_occurring_variables(self, monkeypatch):
        from tamedeg import poly
        packed = []
        original = poly._pack

        def pack(numerators, shifts):
            packed.append(dict(numerators))
            return original(numerators, shifts)
        monkeypatch.setattr(poly, "_pack", pack)
        args = [p("x^7 - 2*y^9", n=2), p("x + y", n=2), p("y^30 + 1", n=2)]
        assert p("y^2 - 1").substitute(args) == p("x^2 + 2*x*y + y^2 - 1", n=2)
        assert packed == [args[1].numerators]

    def test_substitute_keeps_only_used_powers(self):
        # y^400 at y + z^3 needs only the 400th power; holding every power
        # up to it takes memory cubic in the exponent (about 19 MB here)
        f = Polynomial.monomial(3, (0, 400, 0))
        args = [p("x"), p("y + z^3"), p("z")]
        tracemalloc.start()
        try:
            g = f.substitute(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.terms) == 401
        assert peak < 2_000_000

    def test_variables(self):
        assert p("x*z + 1").variables() == {0, 2}
        assert p("y^2").involves(1)
        assert not p("y^2").involves(0)


class TestParsePrint:
    def test_aliases_and_indexed_names(self):
        assert parse_poly("x1 + x2^2", n=3) == p("x + y^2")

    def test_rational_literals(self):
        f = parse_poly("1/2*x + 3", n=1)
        assert f.coefficient((1,)) == Fraction(1, 2)

    def test_parentheses(self):
        assert p("(x + y)*(x - y)") == p("x^2 - y^2")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2x", n=1)
        with pytest.raises(ParseError):
            parse_poly("x y", n=2)

    def test_unknown_token(self):
        with pytest.raises(ParseError):
            parse_poly("x + $", n=1)

    @pytest.mark.parametrize("text, message, position", [
        ("x + $", "unexpected character '$'", 3),
        ("x +  ", "unexpected end of input", 5),
        ("2x", "implicit multiplication is not allowed", 1),
        ("x y", "implicit multiplication is not allowed", 2),
        ("x^y", "exponent must be a nonnegative integer", 2),
        ("x ^ -2", "exponent must be a nonnegative integer", 4),
        ("(x + y", "expected ')'", 6),
        ("x)", "trailing input ')'", 1),
        ("w + x", "unknown variable 'w'", 0),
        ("x*+y", "unexpected token '+'", 2),
        ("x + 1/0", "zero denominator in '1/0'", 4),
        ("2*(x - 3/0)^2", "zero denominator in '3/0'", 7),
        ("y^10001", "exponent larger than 10000", 2),
        ("x + (x*y)^4000000", "exponent larger than 10000", 10),
        # int() refuses longer digit strings
        ("x + 2/" + "7" * (_INT_DIGITS + 1), f"number literal longer than {_INT_DIGITS} digits", 4),
    ])
    def test_error_messages_and_positions(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_poly(text, n=2)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    @pytest.mark.parametrize("text, expected", [
        ("-y^2", "-y^2"),
        ("x*-y^2", "-x*y^2"),
        ("x + -y^2", "-y^2 + x"),
        ("x - -y^2", "y^2 + x"),
        ("x*-2^2", "-4*x"),
        ("--y^2", "y^2"),
        ("(-y)^2", "y^2"),
        ("x*-(x + y)^2", "-x^3 - 2*x^2*y - x*y^2"),
    ])
    def test_unary_minus_binds_looser_than_power(self, text, expected):
        assert format_poly(parse_poly(text, n=2)) == expected

    def test_nesting_limit(self):
        assert parse_poly("(" * 100 + "x" + ")" * 100, n=1) == p("x", n=1)
        assert parse_poly("-" * 100 + "x", n=1) == p("x", n=1)
        for text in ["(" * 101 + "x" + ")" * 101, "(" * 3000 + "x" + ")" * 3000,
                     "-" * 3000 + "x", "x*" + "-" * 60 + "(" * 41 + "x" + ")" * 41]:
            with pytest.raises(ParseError, match="nesting deeper than 100"):
                parse_poly(text, n=1)

    def test_exponent_limit(self):
        assert MAX_EXPONENT == 10_000
        assert parse_poly(f"x^{MAX_EXPONENT}", n=1) == Polynomial.monomial(1, (MAX_EXPONENT,))
        assert parse_poly(f"x^000{MAX_EXPONENT}", n=1) == Polynomial.monomial(1, (MAX_EXPONENT,))
        # longer than int() converts by default
        with pytest.raises(ParseError, match=r"^exponent larger than 10000 \(at position 2\)$"):
            parse_poly("x^" + "9" * 5000, n=1)
        assert parse_poly("x^" + "0" * 5000 + "7", n=1) == Polynomial.monomial(1, (7,))

    @pytest.mark.parametrize("text, position", [
        ("(y^10000)^30", 10),  # a power of a parenthesised factor
        ("(x*y^5000)^3", 11),
        ("y^10000*y", 8),  # exponents added inside a term
        ("x + y^9999*x*y^2", 13),  # inside one term of a sum token
        ("2*y^7000*x*y^4000", 11),
        ("(y^6000 + 1)*(y^6000 + 1)", 12),  # a product of two factors
        ("(y^5000)*y^5001", 15),  # a term's factor and its monomial
        ("y*y^10000", 2),  # a variable already raised meets a '^'
    ])
    def test_variable_exponent_limit(self, text, position):
        start = time.process_time()
        with pytest.raises(ParseError) as info:
            parse_poly(text, n=2)
        assert time.process_time() - start < 0.1
        assert str(info.value) == (f"exponent of a variable would exceed {MAX_EXPONENT} "
                                   f"(at position {position})")

    @pytest.mark.parametrize("text, exps", [
        ("x + y^10000", (0, 10000)),
        ("y^5000*y^5000", (0, 10000)),
        ("(y^5000)^2", (0, 10000)),
        ("x^10000*y^10000", (10000, 10000)),
        ("(y^5000 + 1)*(y^5000 - 1)", (0, 10000)),
        ("(x*y^2500)^2*y^5000", (2, 10000)),
    ])
    def test_variable_exponent_at_limit(self, text, exps):
        assert max(parse_poly(text, n=2).numerators, key=sum) == exps

    @pytest.mark.parametrize("text, position", [
        ("(x+y)^2000", 6),
        ("(x+y)^5000", 6),
        ("(x+y+z)^200", 8),
        ("(x+y+z)^400", 8),
        ("(3^10000)^1000", 10),
        ("(3^10000)^10000", 10),
        # a number's power: 13 million bits took 1.9 s, and 2000 digits 31 s
        ("9" * 100 + "^10000", 101),
        ("9" * 2000 + "^10000", 2001),
        # each power is within the bound, their product is not
        ("(x+y+z)^30*(x+y+z)^30", 10),
        ("(x+y+z)^100*(x+y+z)^100", 8),
        # the product with the term's scalar part, checked where the term ends
        ("(x+y)^100*" + "*".join(["9^10000"] * 10), 89),
    ])
    def test_ring_work_limit(self, text, position):
        start = time.process_time()
        with pytest.raises(ParseError) as info:
            parse_poly(text, n=3)
        assert time.process_time() - start < 0.1
        assert str(info.value) == (f"result may exceed {MAX_RING_WORK} coefficient bits "
                                   f"(at position {position})")

    def test_ring_work_limit_on_scalar_products(self):
        # 400 such factors took 46 s: each product costs the bits so far
        with pytest.raises(ParseError) as info:
            parse_poly("*".join(["9^10000"] * 100), n=1)
        assert info.value.position == 63 * len("9^10000*") - 1  # the 64th '*'
        assert parse_poly("*".join(["9^10000"] * 10), n=1) == \
            Polynomial.constant(1, 9 ** 100_000)

    def test_ring_work_limit_keeps_smaller_powers(self):
        assert MAX_RING_WORK == 2_000_000
        assert len(parse_poly("(x+y)^500", n=2).numerators) == 501
        assert len(parse_poly("(x+y+z)^20*(x+y+z)^20", n=3).numerators) == 861
        assert parse_poly("(3^10000)^100", n=1) == Polynomial.constant(1, 3 ** 1_000_000)
        assert parse_poly("3^10000", n=1) == Polynomial.constant(1, 3 ** 10_000)
        assert parse_poly("2/3^5", n=1) == Polynomial.constant(1, Fraction(32, 243))
        big = parse_poly("10^1000*(x + 10^3000*y^2)^2", n=2)
        assert big == Polynomial(2, {(2, 0): 10 ** 1000, (1, 2): 2 * 10 ** 4000,
                                     (0, 4): 10 ** 7000})

    def test_ring_work_limit_on_powers_of_four_terms(self):
        # the power bound counts bitlen(t) bits less per coefficient than the
        # product bound would for the same k factors, so this is accepted
        assert len(parse_poly("(x - y + z + 1)^38", n=3).numerators) == comb(41, 3)
        with pytest.raises(ParseError, match="coefficient bits"):
            parse_poly("(x - y + z + 1)^39", n=3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        nonzero_polynomials(n), nonzero_polynomials(n), st.integers(2, 7))))
    def test_image_bound_holds(self, case):
        """The formed product and power never pass their bound, and the
        product's bound is the one the parser used before."""
        a, b, k = case
        for exps, bases, image in [((1, 1), (a, b), a * b), ((k,), (a,), a ** k)]:
            top, terms, bits = _image_bound(exps, bases)
            t, largest = size(image)
            assert max(tops(image)) <= top and t <= terms and largest <= bits
        assert _image_bound((1, 1), (a, b)) == product_bound(a, b)

    @pytest.mark.parametrize("text", ["x^2 + 3*y - 7", "1/2*x*y - 2/3", "0"])
    def test_copy_and_pickle(self, text):
        f = p(text)
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is Polynomial and g == f and g.n == f.n
            assert g.numerators == f.numerators and g.denominator == f.denominator
            with pytest.raises(AttributeError):
                g.n = 2

    def test_canonical_text_parses_without_ring_products(self, monkeypatch):
        rng = random.Random(5)
        terms = {}
        while len(terms) < 500:
            exps = (rng.randrange(60), rng.randrange(60))
            if rng.random() < 0.5:
                terms[exps] = rng.choice([-1, 1]) * rng.randrange(10 ** 40)
            else:
                terms[exps] = Fraction(rng.randrange(-10 ** 20, 10 ** 20),
                                       rng.randrange(1, 10 ** 12))
        f = Polynomial(2, terms)
        text = format_poly(f)
        calls = []
        for name in ("__mul__", "__rmul__", "__pow__"):
            original = getattr(Polynomial, name)

            def counted(self, other, _original=original, _name=name):
                calls.append(_name)
                return _original(self, other)
            monkeypatch.setattr(Polynomial, name, counted)
        assert parse_poly(text, n=2) == f
        assert calls == []

    def test_format_canonical_order(self):
        # graded lexicographic, descending; unit coefficients suppressed
        assert format_poly(p("1 + x + z^2 + x*y")) == "x*y + z^2 + x + 1"
        assert format_poly(p("-x + 2*y")) == "-x + 2*y"
        assert format_poly(Polynomial.zero(3)) == "0"

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.fractions(min_value=-99, max_value=99, max_denominator=12),
        max_size=8))
    def test_print_parse_roundtrip(self, terms):
        f = Polynomial(3, terms)
        assert parse_poly(format_poly(f), n=3) == f

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        max_size=6),
        st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        max_size=6))
    def test_degree_subadditive(self, a, b):
        f, g = Polynomial(2, a), Polynomial(2, b)
        if f.is_zero() or g.is_zero():
            assert (f * g).is_zero()
        else:
            # over a field there are no zero divisors: degrees add exactly
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()
