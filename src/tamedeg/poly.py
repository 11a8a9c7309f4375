"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a finite map from exponent tuples to nonzero, normalised
Fractions, together with a fixed variable count ``n``.  The zero polynomial
has total degree ``NEG_INF`` (a float -inf sentinel, comparable with ints).
Every product runs on integers: each operand is scaled by the lcm of its
denominators, the term pairs multiply as ints, and each output coefficient
becomes a Fraction once.

The text grammar accepts variables ``x1..x9`` or declared aliases such as
``x, y, z``; integer and ``p/q`` rational literals (``q`` nonzero); operators
``+ - * ^`` and parentheses.  Implicit multiplication is forbidden.  Unary
minus binds looser than ``^`` (``x*-y^2`` is ``-x*y^2``), parentheses and
unary minus signs nest at most ``MAX_NESTING`` deep, a ``^`` exponent is at
most ``MAX_EXPONENT``, and a number has at most as many digits as ``int()``
converts (``sys.get_int_max_str_digits()``).  Canonical printing is
graded-lexicographic descending with explicit ``*`` and coefficient 1
suppressed.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


class DimensionMismatch(ValueError):
    """Raised when two polynomials with different variable counts meet."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Polynomial:
    """Immutable sparse polynomial in ``n`` variables over the rationals."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[tuple, Scalar] | Iterable = ()):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n:
                raise DimensionMismatch(
                    f"exponent tuple {exps} has length {len(exps)}, expected {n}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be nonnegative integers: {exps}")
            c = _as_fraction(coeff)
            if c:
                acc = clean.get(exps)
                c = c if acc is None else acc + c
                if c:
                    clean[exps] = c
                else:
                    del clean[exps]
        Polynomial._make(n, clean, self)

    @classmethod
    def _make(cls, n: int, terms: dict, res: "Polynomial | None" = None) -> "Polynomial":
        """The one place a Polynomial's fields are set.  ``terms`` must already
        be clean: exponent tuples of length ``n`` mapped to nonzero Fractions.
        ``res`` is an instance under ``__init__``; omitted, a new one is made."""
        if res is None:
            res = cls.__new__(cls)
        object.__setattr__(res, "n", n)
        object.__setattr__(res, "terms", terms)
        object.__setattr__(res, "_hash", None)
        return res

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: Scalar) -> "Polynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """x_i, 0-based index."""
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(n, {tuple(exps): coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n, Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def total_degree(self):
        """Max monomial degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def variables(self) -> set[int]:
        """Indices of variables actually occurring."""
        used: set[int] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return used

    def involves(self, i: int) -> bool:
        return any(exps[i] for exps in self.terms)

    # -- ring operations -----------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise DimensionMismatch(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            s = c if acc is None else acc + c
            if s:
                out[exps] = s
            elif acc is not None:
                del out[exps]
        return Polynomial._make(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "Polynomial":
        c = _as_fraction(c)
        if not c:
            return Polynomial.zero(self.n)
        return Polynomial._make(self.n, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial.zero(self.n)
        if len(a) > len(b):
            a, b = b, a
        # Exponent tuples are packed into single ints so that the inner loop is
        # one int add plus one dict update.  Each variable's field is wide
        # enough for the largest exponent sum, so additions never carry across
        # fields.
        n = self.n
        width = (max(map(max, a)) + max(map(max, b))).bit_length() if n else 0
        shifts = tuple(width * i for i in range(n))
        mask = (1 << width) - 1

        def pack(exps):
            key = 0
            for e, s in zip(exps, shifts):
                key |= e << s
            return key

        # Each operand is cleared of denominators: a coefficient c becomes the
        # integer c*D, with D the lcm of that operand's denominators.  Every
        # term pair is then one int multiply-add, not Fraction arithmetic,
        # and each output coefficient is normalised once, as Fraction(v, Da*Db).
        # D = 1 for an integer polynomial; the tests on it skip a division per
        # term and a gcd per output coefficient.
        def cleared(terms):
            d = lcm(*[c.denominator for c in terms.values()])
            return d, [(pack(e), c.numerator if d == 1 else c.numerator * (d // c.denominator))
                       for e, c in terms.items()]

        da, ai = cleared(a)
        db, bi = cleared(b)
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in ai:
            for eb, cb in bi:
                key = ea + eb
                out[key] = get(key, 0) + ca * cb
        d = da * db
        return Polynomial._make(n, {tuple((k >> s) & mask for s in shifts):
                                    Fraction(v) if d == 1 else Fraction(v, d)
                                    for k, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structure -----------------------------------------------------

    def homogeneous_part(self, d: int) -> "Polynomial":
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return Polynomial(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def leading_form(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("zero polynomial has no leading form")
        return self.homogeneous_part(int(self.total_degree()))

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal d/dx_i, 0-based index."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                out[key] = out.get(key, Fraction(0)) + c * e
        return Polynomial(self.n, out)

    def substitute(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at args: the image of self under x_i -> args[i]."""
        if len(args) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} substitution arguments, got {len(args)}")
        if not args:
            return Polynomial(0, dict(self.terms))
        m = args[0].n
        for a in args:
            if a.n != m:
                raise DimensionMismatch("substitution arguments differ in variable count")
        # Powers of each argument, built one multiply apart up to the largest
        # exponent that occurs; only the exponents some monomial uses are kept.
        powers: list[dict[int, Polynomial]] = []
        for a, column in zip(args, zip(*self.terms)):
            wanted = set(column)
            row, power = {}, a
            for e in range(1, max(wanted) + 1):
                if e > 1:
                    power = power * a
                if e in wanted:
                    row[e] = power
            powers.append(row)
        # Each monomial multiplies only the powers it needs; c times its terms
        # is summed into one dict.
        one = (((0,) * m, 1),)
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            prod = None
            for i, e in enumerate(exps):
                if e:
                    prod = powers[i][e] if prod is None else prod * powers[i][e]
            for key, v in (one if prod is None else prod.terms.items()):
                v = c * v
                prev = acc.get(key)
                if prev is not None:
                    v += prev
                if v:
                    acc[key] = v
                elif prev is not None:
                    del acc[key]
        return Polynomial._make(m, acc)

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({self.n}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def default_varnames(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    if n <= 9:
        return tuple(f"x{i}" for i in range(1, n + 1))
    raise ValueError("default variable names support at most 9 variables")


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def format_poly(p: Polynomial, varnames: Sequence[str] | None = None) -> str:
    """Canonical text: graded-lex descending, explicit '*', coeff 1 suppressed."""
    if varnames is None:
        varnames = default_varnames(p.n)
    if len(varnames) != p.n:
        raise DimensionMismatch("variable name list length differs from n")
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[exps]
        factors = []
        for name, e in zip(varnames, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        ac = abs(c)
        if mono and ac == 1:
            body = mono
        elif mono:
            body = f"{ac}*{mono}"
        else:
            body = str(ac)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# The last group catches any other character, so the matches tile the text
# up to trailing whitespace.
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()])|(\S))")
_KINDS = (None, "num", "name", "op")

# Parentheses and unary minus signs may nest this deep; the parser recurses
# once per level, so deeper input would exhaust the interpreter's stack.
MAX_NESTING = 100

# A ``^`` exponent may be at most this large.  Larger ones would make parsing
# and ``substitute``, which builds every power up to the largest exponent,
# cost time and memory out of proportion to the text.
MAX_EXPONENT = 10_000

# int() refuses digit strings longer than this many digits (0: no limit).
# Python releases before 3.10.7 have no limit and no getter.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start())
        tokens.append((_KINDS[k], m[k], m.start(k)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over ``expr := ['+'|'-'] term (('+'|'-') term)*``,
    ``term := factor ('*' factor)*``, ``factor := '-' factor | atom ['^' int]``
    and ``atom := number | name | '(' expr ')'``.

    A term of literals and variable powers is built as one monomial, and
    ``expr`` sums terms into one dict, so canonical text parses in time
    linear in its length.  Only parenthesised factors use ring operations.
    """

    def __init__(self, text: str, varnames: Sequence[str]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = len(varnames)
        self.index = {name: i for i, name in enumerate(varnames)}
        self.depth = 0

    def expr(self) -> Polynomial:
        acc: dict[tuple[int, ...], Fraction] = {}
        kind, val, _ = self.tokens[self.i]
        negate = kind == "op" and val == "-"
        if kind == "op" and val in "+-":
            self.i += 1
        while True:
            t = self.term()
            for exps, c in (t.terms.items() if isinstance(t, Polynomial) else (t,)):
                if negate:
                    c = -c
                prev = acc.get(exps)
                if prev is not None:
                    c += prev
                if c:
                    acc[exps] = c
                elif prev is not None:
                    del acc[exps]
            kind, val, _ = self.tokens[self.i]
            if not (kind == "op" and val in "+-"):
                return Polynomial._make(self.n, acc)
            self.i += 1
            negate = val == "-"

    def term(self) -> "tuple[tuple[int, ...], Fraction] | Polynomial":
        """One ``(exponents, coefficient)`` pair, or a Polynomial when the
        term has a parenthesised factor."""
        exps = [0] * self.n
        coeff = 1
        poly = None
        while True:
            f = self.factor(exps)
            if isinstance(f, Polynomial):
                poly = f if poly is None else poly * f
            else:
                coeff *= f
            kind, val, pos = self.tokens[self.i]
            if kind == "op" and val == "*":
                self.i += 1
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            elif poly is None:
                return tuple(exps), Fraction(coeff)
            else:
                return poly * Polynomial.monomial(self.n, exps, coeff)

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
            var, base = self.index[val], 1
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
            return 1
        return base if k == 1 else base ** k


def parse_poly(text: str, varnames: Sequence[str] | None = None, n: int | None = None) -> Polynomial:
    """Parse the text grammar into a Polynomial.

    Either ``varnames`` or ``n`` (to use default names) must pin the ambient
    variable count.
    """
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
