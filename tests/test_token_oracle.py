"""Differential tests of ``parse_poly`` against the token-at-a-time parser
it replaced.

``poly._tokenize`` reads a whole term written without spaces as one token,
and a ``^`` together with the digits of its exponent.  The reference below
is the earlier tokenizer and parser: one token per number, name and
operator, and one ``factor`` call per token.  It imports the limits, the
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
from fractions import Fraction
from typing import Sequence

import pytest

from tamedeg.poly import (MAX_EXPONENT, MAX_NESTING, NAME_RE, ParseError,
                          Polynomial, _int_max_str_digits, _sum,
                          default_varnames, parse_poly)

# -- oracle: the parser that read one number, name or operator at a time ---

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
    "2^3*x",  # a term token never starts inside an exponent: 8*x
    "x^ 2*y",  # '^' takes the digits after whitespace
    "x*y^ 3",  # a term token never ends before '^'
    "x*y^2^3",  # trailing input '^' (at position 5)
    "x^2/3",  # a fraction is no exponent
    "x^-1",
    "x1^",  # the name is x1, not x
    "wy^x1z",
    "wz200^",
    "y^ $",  # the tokenizer's error comes first
    "x*x2",  # x2 is the default alias of y
    "x^" + "9" * 5000,  # exponent larger than MAX_EXPONENT, not a digit limit
    "x^10000*y",  # a five-digit exponent is read by the '^' token
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
