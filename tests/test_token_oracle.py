"""Differential tests of ``parse_poly`` against a token-at-a-time parser.

``poly._tokenize`` reads a canonical sum, spaced as ``format_poly`` prints
it, as one token, and any other text one number, name or operator at a
time.  The reference below reads every text one token per number, name and
operator, with one ``factor`` call per token.  It imports the limits, the
``ParseError`` class and ``_sum`` from the present module, and it refuses a
variable's exponent above ``MAX_EXPONENT`` at the same points as
``parse_poly``: where a variable power is added into a term (at the
variable's name), where two factors of a term are multiplied (at the
``*``), where a term with a parenthesised factor ends (at the next token)
and where a parenthesised factor is raised to a power (at the exponent).

On every text both must give an equal Polynomial (equal ``numerators`` and
``denominator``) or raise ``ParseError`` with the same message and position.
The random strings keep ``^`` off a closing parenthesis: a large power of a
parenthesised sum, such as ``(x+y+z)^9999``, runs for hours in the
reference, while ``parse_poly`` refuses it (``MAX_RING_WORK``).
"""
import random
import re
import time
import tracemalloc
from fractions import Fraction
from typing import Sequence

import pytest

from tamedeg import poly
from tamedeg.poly import (MAX_EXPONENT, MAX_NESTING, NAME_RE, ParseError,
                          Polynomial, _int_max_str_digits, _sum,
                          default_varnames, format_poly, parse_poly)

# -- oracle: the parser that reads one number, name or operator at a time --

# The last group catches any other character, so the matches tile the text
# up to trailing whitespace.
_TOKEN_RE = re.compile(
    rf"\s*(?:(\d+/\d+|\d+)|({NAME_RE.pattern})|([-+*^()])|(\S))")
_KINDS = (None, "num", "name", "op")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start())
        tokens.append((_KINDS[k], m[k], m.start(k)))
    tokens.append(("end", "", len(text)))
    return tokens


def bounded(p: Polynomial, pos: int) -> Polynomial:
    """``p``, unless a variable's exponent in it exceeds MAX_EXPONENT."""
    if any(e > MAX_EXPONENT for exps in p.numerators for e in exps):
        raise ParseError(f"exponent of a variable would exceed {MAX_EXPONENT}", pos)
    return p


class _Parser:
    """Recursive descent over ``expr := ['+'|'-'] term (('+'|'-') term)*``,
    ``term := factor ('*' factor)*``, ``factor := '-' factor | atom ['^' int]``
    and ``atom := number | name | '(' expr ')'``.

    A term of literals and variable powers is built as one monomial, and
    ``expr`` sums the terms' integer numerators with ``_sum``, so canonical
    text parses in time linear in its length.  Only parenthesised factors
    use ring operations.
    """

    def __init__(self, text: str, varnames: Sequence[str]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = len(varnames)
        self.index = {name: i for i, name in enumerate(varnames)}
        self.depth = 0

    def expr(self) -> Polynomial:
        items = []
        kind, val, _ = self.tokens[self.i]
        sign = -1 if kind == "op" and val == "-" else 1
        if kind == "op" and val in "+-":
            self.i += 1
        while True:
            t = self.term()
            if isinstance(t, Polynomial):
                den = t.denominator
                items.extend((exps, sign * v, den) for exps, v in t.numerators.items())
            else:
                exps, c = t
                items.append((exps, sign * c.numerator, c.denominator))
            kind, val, _ = self.tokens[self.i]
            if not (kind == "op" and val in "+-"):
                return _sum(self.n, items)
            self.i += 1
            sign = -1 if val == "-" else 1

    def term(self) -> "tuple[tuple[int, ...], Scalar] | Polynomial":
        """One ``(exponents, coefficient)`` pair, or a Polynomial when the
        term has a parenthesised factor."""
        exps = [0] * self.n
        coeff = 1
        poly = None
        star = None
        while True:
            f = self.factor(exps)
            if isinstance(f, Polynomial):
                poly = f if poly is None else bounded(poly * f, star)
            else:
                coeff *= f
            kind, val, pos = self.tokens[self.i]
            if kind == "op" and val == "*":
                self.i += 1
                star = pos
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            elif poly is None:
                return tuple(exps), coeff
            else:
                return bounded(poly * Polynomial.monomial(self.n, exps, coeff), pos)

    def factor(self, exps: list[int]) -> "Scalar | Polynomial":
        """Parse one factor.  Variable powers are added into ``exps``; the
        scalar part is returned, or the Polynomial of a parenthesised one."""
        kind, val, pos = self.tokens[self.i]
        self.i += 1
        var = None
        if kind == "op" and val in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
            if val == "-":
                base = -self.factor(exps)
                self.depth -= 1
                return base
            base = self.expr()
            kind, val, pos = self.tokens[self.i]
            self.i += 1
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            self.depth -= 1
        elif kind == "num":
            limit = _int_max_str_digits()
            if limit and len(val) > limit and any(len(d) > limit for d in val.split("/")):
                raise ParseError(f"number literal longer than {limit} digits", pos)
            if "/" in val:
                num, den = map(int, val.split("/"))
                if not den:
                    raise ParseError(f"zero denominator in {val!r}", pos)
                base = Fraction(num, den)
            else:
                base = int(val)
        elif kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}", pos)
            var, base, var_pos = self.index[val], 1, pos
        else:
            raise ParseError(
                f"unexpected token {val!r}" if val else "unexpected end of input", pos)
        k = 1
        kind, val, _ = self.tokens[self.i]
        if kind == "op" and val == "^":
            kind, val, pos = self.tokens[self.i + 1]
            self.i += 2
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a nonnegative integer", pos)
            # the length test keeps int() off digit strings it refuses
            digits = val.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", pos)
            k = int(digits)
        if var is not None:
            exps[var] += k
            if exps[var] > MAX_EXPONENT:
                raise ParseError(f"exponent of a variable would exceed {MAX_EXPONENT}",
                                 var_pos)
            return 1
        if isinstance(base, Polynomial) and k > 1:
            return bounded(base ** k, pos)
        return base if k == 1 else base ** k


def oracle_parse(text: str, varnames: Sequence[str] | None = None,
                 n: int | None = None) -> Polynomial:
    """``parse_poly`` with the reference parser."""
    if varnames is None:
        varnames = default_varnames(3 if n is None else n)
        indexed = True
    else:
        indexed = False
    parser = _Parser(text, varnames)
    if indexed:
        # with default names both spellings are valid: x,y,z and x1..x9
        for i in range(len(varnames)):
            parser.index.setdefault(f"x{i + 1}", i)
    result = parser.expr()
    kind, val, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return result


# -- comparison ---------------------------------------------------------


def outcome(parse, text, varnames=None, n=None):
    """The stored form of the parsed Polynomial, or the ParseError text."""
    try:
        p = parse(text, varnames, n)
    except ParseError as e:
        return f"ParseError: {e} [{e.position}]"
    return p.n, p.numerators, p.denominator


def assert_same(text, varnames=None, n=None):
    expected = outcome(oracle_parse, text, varnames, n)
    assert outcome(parse_poly, text, varnames, n) == expected, (text, varnames, n)


NAMED = [
    "2^3*x",  # the exponent is one number token: 8*x
    "x^ 2*y",  # whitespace may follow '^'
    "x*y^ 3",  # y^3, not (x*y)^3
    "x*y^2^3",  # trailing input '^' (at position 5)
    "x^2/3",  # a fraction is no exponent
    "x^-1",
    "x1^",  # the name is x1, not x
    "wy^x1z",
    "wz200^",
    "y^ $",  # the tokenizer's error comes first
    "x*x2",  # x2 is the default alias of y
    "x^" + "9" * 5000,  # exponent larger than MAX_EXPONENT, not a digit limit
    "x^10000*y",  # a five-digit exponent is never in a sum token
    "x^10001*y",
    "x^00007*y^0*z",
    "1/0*q",  # the coefficient is read before the monomial
    "2*x*q^3",
    "3/4*y*x*q",
    "2 x*y",
    "x*y z",
    "x*y(z)",
    "-2*x^3*y - 1/2*y^2 + 7",
    "x*-y^2",
    "  x  *y  ",
    "٣*x^٢",  # digits other than ASCII ones, as int() reads them
    "1" * 5000 + "*x",
    "1/" + "7" * 5000 + "*x",
]


@pytest.mark.parametrize("text", NAMED)
def test_named_texts(text):
    assert_same(text)
    assert_same(text, ("x", "y", "wy", "x1z", "wz"))


def test_named_outcomes():
    assert parse_poly("2^3*x", n=1) == parse_poly("8*x", n=1)
    assert parse_poly("x*y^ 3", n=2) == parse_poly("x*y^3", n=2)
    with pytest.raises(ParseError, match=r"^trailing input '\^' \(at position 5\)$"):
        parse_poly("x*y^2^3", n=2)


# Pieces of random texts: names, numbers with and without a zero
# denominator, every operator, exponents at and past MAX_EXPONENT, and
# characters the grammar refuses.
PIECES = ["x", "y", "z", "w", "x1", "0", "00", "2", "12", "3/4", "1/0", "^", "^2",
          "^9999", "^10000", "*", "+", "-", "(", ")", " ", "/", "$"]
NAME_SETS = [None, ("x", "y"), ("x", "y", "z", "w")]


def random_text(rng):
    pieces = []
    for _ in range(rng.randint(1, 14)):
        piece = rng.choice(PIECES)
        while piece.startswith("^") and "".join(pieces).rstrip().endswith(")"):
            piece = rng.choice(PIECES)
        pieces.append(piece)
    return "".join(pieces)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_strings(seed):
    rng = random.Random(seed)
    for _ in range(50_000):
        assert_same(random_text(rng), rng.choice(NAME_SETS))


# -- the sum token: canonical text as one lexeme ----------------------------
#
# ``format_poly`` text is one sum token, at the start of the text or right
# after ``(``, running to ``)`` or the end.  Each canonical text below is
# mutated at one place, so that the sum token no longer fits it, or fits it
# with an error inside, and must then give the oracle's answer: the same
# stored form, or the same error text at the same position.


def canonical_texts(rng, count):
    """``(text, varnames, n)`` printed by ``format_poly``: 1-3 variables,
    rational coefficients; varnames None for the default names."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        names = rng.choice([None, tuple(f"x{i}" for i in range(1, n + 1)),
                            ("a", "b_1", "c2")[:n]])
        terms = {tuple(rng.randrange(4) for _ in range(n)):
                 Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 12]))
                 for _ in range(rng.randint(1, 5))}
        out.append((format_poly(Polynomial(n, terms), names), names, n))
    return out


def _insert(rng, text, piece):
    """``piece`` put into ``text`` at a random place."""
    i = rng.randint(0, len(text))
    return text[:i] + piece + text[i:]


def _replace_digit(rng, text, zero):
    """One ASCII digit of ``text`` replaced by the same digit from the
    block of ten that starts at ``zero``."""
    digits = [i for i, ch in enumerate(text) if ch in "0123456789"]
    if not digits:
        return text + " + " + zero
    i = rng.choice(digits)
    return text[:i] + chr(ord(zero) + int(text[i])) + text[i + 1:]


def mutations(rng, text, name):
    """Texts that differ from canonical ``text`` at one place; ``name`` is
    one of its variable names."""
    spaces = [i for i, ch in enumerate(text) if ch == " "]
    i = rng.choice(spaces) if spaces else 0
    long_number = "1" * ((_int_max_str_digits() or 4300) + 1)
    yield text[:i] + " " + text[i:]  # a double space
    yield "+" + text
    yield "(- " + text.lstrip("-") + ")"
    yield "(" + text + ")"
    yield "(" + text + ")^2"
    yield text.replace(" ", "")  # read a token at a time
    yield _replace_digit(rng, text, "٠")  # Arabic-Indic digits
    yield _replace_digit(rng, text, "０")  # fullwidth digits
    yield text.replace("^", "^0000", 1) if "^" in text else text + f" - {name}^00002"
    yield text + f" + {name}^10000"
    yield text + f" + {name}^10001"
    yield text + f" - {name}^9999*{name}^9999"
    yield text.replace(name, f"{name}^9999*{name}^9999", 1)
    yield text + f" + 1/0*{name}"
    yield f"1/0*{name} + " + text
    yield text.replace(name, "q", 1)
    yield text + " - q^2"
    yield text + f" + {long_number}*{name}"
    yield f"{long_number} - " + text
    for tail in ("*", "^", ")", "$", " ", " +", f" {name}", "(", "^2"):
        yield text + tail
        yield "(" + text + tail
    yield "q + " + text + "$"  # the tokenizer's error comes first
    yield "(" + text + ")$"
    yield "(" + text.replace(name, "q", 1) + ") + $"
    for piece in (" ", "  ", "+", "-", "*", "^", "(", ")", "/", "0", "12", "3/4",
                  name, "q", "$", "٣", "^10000"):
        yield _insert(rng, text, piece)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sum_token_mutations(seed):
    rng = random.Random(seed)
    for text, varnames, n in canonical_texts(rng, 60):
        assert [t[0] for t in poly._tokenize(text)] == ["sum", "end"], text
        assert_same(text, varnames, n)
        name = rng.choice(varnames or default_varnames(n))
        for mutated in mutations(rng, text, name):
            assert_same(mutated, varnames, n)


def test_format_poly_text_takes_the_sum_token(monkeypatch):
    """``format_poly`` text never reaches ``_Parser.term``: every term of it
    is decoded from the one sum token."""
    def refused(self):
        raise AssertionError("_Parser.term reached")

    monkeypatch.setattr(poly._Parser, "term", refused)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        names = rng.choice([default_varnames(n), tuple(f"v_{i}" for i in range(n))])
        terms = {tuple(rng.choice([0, 0, 1, 2, 7, 9999]) for _ in range(n)):
                 Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 6))
                 for _ in range(rng.randint(0, 6))}
        p = Polynomial(n, terms)
        assert parse_poly(format_poly(p, names), names) == p


def _cpu_seconds(text):
    """The least CPU time of three ``parse_poly`` calls on ``text``, and the
    ``ParseError`` text they give."""
    best = None
    for _ in range(3):
        start = time.process_time()
        try:
            parse_poly(text, n=3)
            error = None
        except ParseError as e:
            error = f"{e} [{e.position}]"
        spent = time.process_time() - start
        best = spent if best is None else min(best, spent)
    return best, error


def _long_text(rng, count):
    """Canonical text of ``count`` rational terms in x, y, z."""
    terms = {}
    while len(terms) < count:
        terms[tuple(rng.randrange(60) for _ in range(3))] = Fraction(
            rng.randint(1, 999) * rng.choice([1, -1]), rng.randint(1, 99))
    return format_poly(Polynomial(3, terms))


@pytest.mark.parametrize("tail, spaces", [
    pytest.param("*", " ", id="*"), pytest.param("$", " ", id="$"),
    pytest.param("*", "", id="no-spaces-*")])
def test_failed_sum_token_is_linear(tail, spaces):
    """A canonical text that fails at its last character costs the sum
    token one failed try, so time stays linear in the length: 20,000 terms
    take about 10 times as long as 2,000 (quadratic time would take about
    100 times).  With its spaces removed it is read a token at a time, in
    linear time as well.  The bound is 30 times, and the error is the
    oracle's."""
    rng = random.Random(9)
    times = []
    for count in (2_000, 20_000):
        text = _long_text(rng, count).replace(" ", spaces) + tail
        spent, error = _cpu_seconds(text)
        assert error == outcome(oracle_parse, text, None, 3)[len("ParseError: "):]
        times.append(spent)
    assert times[1] < 30 * times[0], times


def test_sum_token_keeps_no_state_per_term():
    """Each further term of a sum token is matched atomically, so matching
    a 20,000-term text allocates about 5 bytes per character at its peak;
    with backtracking state kept per term it took about 96."""
    text = _long_text(random.Random(9), 20_000)
    tracemalloc.start()
    try:
        tokens = poly._tokenize(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t[0] for t in tokens] == ["sum", "end"]
    assert peak < 20 * len(text), peak
