"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as FLINT's ``fmpq_mpoly`` stores one, an integer
polynomial over one denominator: ``numerators`` maps exponent tuples to
nonzero ints and ``denominator`` is a positive int, in lowest terms (the gcd
of the denominator and every numerator is 1), so each polynomial has exactly
one stored form.  It has a fixed variable count ``n``.  Every ring operation
runs on ints; ``terms``, the map from exponent tuples to normalised
Fractions, is built on first read for callers that want Fractions.  The zero
polynomial has total degree ``NEG_INF`` (a float -inf sentinel, comparable
with ints).  The product kernel ``_mul_packed`` takes each exponent tuple
packed into one int, so a term pair costs one int add and one int
multiply-add.  Packed keys add without carries, so when the largest product
key is below the number of term pairs the products are summed into a list
indexed by the key, which is then no longer than the pairs; otherwise into
a dict.  Only two routines pack: ``_powers``, which runs the one power loop
``_power_row`` (no product for a base of at most two terms: by the binomial
theorem) for ``**`` and peel's strips, and ``_compose``, which runs a chain
of substitutions in one packed layout sized by degree bounds from the right,
one ``_substitute_packed`` step per link, for ``substitute``,
``maps.compose_all`` and ``*`` (a * b is the image of z0*z1 under (a, b)).

The text grammar accepts variables ``x1..x9`` or declared aliases such as
``x, y, z``; integer and ``p/q`` rational literals (``q`` nonzero); operators
``+ - * ^`` and parentheses.  Implicit multiplication is forbidden.  Unary
minus binds looser than ``^`` (``x*-y^2`` is ``-x*y^2``), parentheses and
unary minus signs nest at most ``MAX_NESTING`` deep, a ``^`` exponent and
the exponent of each variable in a term, in a power of a parenthesised
factor and in a product of two factors are at most ``MAX_EXPONENT`` (checked
before the term, power or product is formed), a number has at most as many
digits as ``int()`` converts (``sys.get_int_max_str_digits()``), and a power
of a number or of a parenthesised factor, or a product of two factors, may
have at most ``MAX_RING_WORK`` coefficient bits.  A product ``a * b`` is the
image of z0*z1 under (a, b) and a power ``p ** k`` that of z0^k under p, so
one bound, ``_image_bound`` on the image of a monomial, checks both before
they are formed.
The tokenizer reads a canonical sum, such as ``x^2 - 3/4*x*y + 7`` spaced as
``format_poly`` prints it, as one token where it is a whole text or a whole
parenthesis, so canonical text is one token, and any other text one number,
name or operator at a time.
Canonical printing is graded-lexicographic descending with explicit ``*``
and coefficient 1 suppressed; a coefficient with more digits than that
limit cannot be printed and raises ``ValueError``.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


class DimensionMismatch(ValueError):
    """Raised when two polynomials with different variable counts meet."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_scalar(c) -> None:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _layout(n: int, width: int) -> tuple[tuple[int, ...], int]:
    """Bit offsets and field mask for packing ``n`` exponents of at most
    ``width`` bits each into one int."""
    return tuple(width * i for i in range(n)), (1 << width) - 1


def _pack(numerators: Mapping, shifts: tuple[int, ...]) -> dict[int, int]:
    """Each exponent tuple as one int.  Fields wide enough for the largest
    exponent of a product never carry into each other when keys are added."""
    out = {}
    for exps, v in numerators.items():
        key = 0
        for e, s in zip(exps, shifts):
            key |= e << s
        out[key] = v
    return out


def _unpack(packed: dict[int, int], shifts: tuple[int, ...], mask: int) -> dict:
    return {tuple([(k >> s) & mask for s in shifts]): v for k, v in packed.items()}


def _mul_packed(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two packed integer polynomials, zero terms dropped.

    Keys add without carries, so a product key indexes a list directly.
    When the largest product key is below the number of term pairs, the
    terms are summed into a list of that length, which is then no longer
    than the pairs it holds; otherwise into a dict."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    pairs = list(b.items())
    top = max(a) + max(b) + 1
    if top <= len(a) * len(b):
        dense = [0] * top
        for ea, ca in a.items():
            for eb, cb in pairs:
                dense[ea + eb] += ca * cb
        return {k: v for k, v in enumerate(dense) if v}
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in pairs:
            key = ea + eb
            out[key] = get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _lowest(numerators: dict, den: int) -> tuple[dict, int]:
    """``numerators`` over ``den`` in lowest terms, whatever their keys."""
    g = den
    for v in numerators.values():
        if (g := gcd(g, v)) == 1:
            return numerators, den
    return {e: v // g for e, v in numerators.items()}, den // g


def _power_row(base: dict[int, int], want) -> dict[int, dict[int, int]]:
    """The packed powers base^e for each e >= 1 in ``want``, one multiply
    apart up to the largest.  A base of at most two terms needs none: a
    monomial's key is multiplied by e, and (c1*m1 + c2*m2)^e holds C(e, j) *
    c1^(e-j) * c2^j at the distinct keys (e-j)*k1 + j*k2, each coefficient the
    exact quotient v * (e-j) * c2 // ((j+1) * c1) of the one before it."""
    if len(base) == 1:
        ((key, c),) = base.items()
        return {e: {key * e: c ** e} for e in want}
    if len(base) == 2:
        (k1, c1), (k2, c2) = base.items()
        row = {}
        for e in want:
            key, v = e * k1, c1 ** e
            row[e] = power = {key: v}
            for j in range(e):
                key, v = key + k2 - k1, v * ((e - j) * c2) // ((j + 1) * c1)
                power[key] = v
        return row
    row, power = {}, None
    for e in range(1, max(want) + 1):
        power = base if power is None else _mul_packed(power, base)
        if e in want:
            row[e] = power
    return row


def _powers(p: "Polynomial", want: Sequence[int]) -> list["Polynomial"]:
    """p^e for each e >= 1 in ``want``, in order: ``_power_row`` in one
    packed layout whose fields hold p^max(want)'s exponents."""
    shifts, mask = _layout(p.n, (max(want) * max(_tops(p), default=0)).bit_length())
    row = _power_row(_pack(p.numerators, shifts), want)
    return [Polynomial._make(p.n, _unpack(row[e], shifts, mask), p.denominator ** e) for e in want]


def _substitute_packed(polys: Sequence[tuple[Mapping, int]],
                       args: Sequence) -> list[tuple[dict, int]]:
    """One ``_compose`` step: the images of (numerators, denominator) pairs
    under x_i -> args[i], a packed (numerators, denominator) pair, or None
    where no polynomial has x_i; the images are packed, in lowest terms, and
    x_i's is args[i] itself.  Each argument's ``_power_row`` serves all."""
    images: list = [None] * len(polys)
    jobs, wanted = [], [set() for _ in args]
    for j, (terms, den) in enumerate(polys):
        if len(terms) == 1 and den == 1:
            ((exps, c),) = terms.items()
            if c == 1 and sum(exps) == 1:
                images[j] = args[exps.index(1)]
                continue
        columns = [set(column) - {0} for column in zip(*terms)]
        for want, column in zip(wanted, columns):
            want |= column
        jobs.append((j, terms, den, columns))
    powers = [_power_row(arg[0], want) if want else {} for arg, want in zip(args, wanted)]
    # An image's denominator is den * prod_i d_i^E_i, d_i that of args[i] and
    # E_i the largest exponent of x_i: a monomial c*x^e adds c * prod_i
    # d_i^(E_i - e_i) times the product of the powers it needs.
    one = ((0, 1),)
    for j, terms, den, columns in jobs:
        rational = [(i, arg[1], max(column)) for i, (arg, column) in enumerate(zip(args, columns))
                    if column and arg[1] != 1]
        acc: dict[int, int] = {}
        get = acc.get
        for exps, c in terms.items():
            product = None
            for i, e in enumerate(exps):
                if e:
                    power = powers[i][e]
                    product = power if product is None else _mul_packed(product, power)
            for i, d, e_max in rational:
                if exps[i] != e_max:
                    c *= d ** (e_max - exps[i])
            for key, v in (one if product is None else product.items()):
                acc[key] = get(key, 0) + c * v
        den *= prod(d ** e_max for _, d, e_max in rational)
        images[j] = _lowest({k: v for k, v in acc.items() if v}, den)
    return images


def _compose(chain: Sequence[Sequence["Polynomial"]]) -> list["Polynomial"]:
    """The images of ``chain[0]`` under the chain of substitutions, for
    ``substitute``, ``maps.compose_all`` and ``*``: each polynomial of
    chain[i] has one variable per polynomial of chain[i + 1], and the
    polynomials of chain[-1] share one variable count.

    One packed layout serves the chain, its width fixed by degree bounds
    from the right: the image of a monomial e under G has degree at most
    sum_i e_i * deg G_i.  Only the chain[-1] polynomials whose variable
    chain[-2] uses are packed, once; each outer step is
    ``_substitute_packed``, and only the images that changed are unpacked;
    an unchanged image is the chain[-1] polynomial itself."""
    *outer, inner = chain
    if not outer:
        return list(inner)
    n = inner[0].n if inner else 0
    used = set()
    for c in outer[-1]:
        used.update(i for i, column in enumerate(zip(*c.numerators)) if any(column))
    degrees = [max(map(sum, c.numerators), default=0) if i in used else 0
               for i, c in enumerate(inner)]
    top = max(degrees, default=0)
    for layer in reversed(outer):
        degrees = [max((sum(map(mul, e, degrees)) for e in c.numerators), default=0)
                   for c in layer]
        top = max([top, *degrees])
    shifts, mask = _layout(n, top.bit_length())
    running = [(_pack(c.numerators, shifts), c.denominator, c) if i in used else None
               for i, c in enumerate(inner)]
    for layer in reversed(outer):
        running = _substitute_packed([(c.numerators, c.denominator) for c in layer], running)
    return [r[2] if len(r) > 2 else Polynomial._make(n, _unpack(r[0], shifts, mask), r[1])
            for r in running]


def _sum(n: int, items: Iterable) -> "Polynomial":
    """The Polynomial sum of ``(exps, numerator, denominator)`` terms, each
    denominator positive.  Terms are summed per denominator and the partial
    sums brought to their lcm once, so the cost is linear in the terms even
    when the common denominator grows with each new one."""
    by_den: dict[int, dict] = {}
    for exps, num, den in items:
        acc = by_den.get(den)
        if acc is None:
            acc = by_den[den] = {}
        acc[exps] = acc.get(exps, 0) + num
    den = lcm(*by_den)
    if len(by_den) == 1:
        (out,) = by_den.values()
    else:
        out = {}
        for d, acc in by_den.items():
            f = den // d
            for exps, v in acc.items():
                out[exps] = out.get(exps, 0) + v * f
    return Polynomial._make(n, {e: v for e, v in out.items() if v}, den)


class Polynomial:
    """Immutable sparse polynomial in ``n`` variables over the rationals.

    ``numerators`` and ``denominator`` are the stored form; callers may read
    them but must not change the dict."""

    __slots__ = ("n", "numerators", "denominator", "_terms")

    def __new__(cls, n: int, terms: Mapping[tuple, Scalar] | Iterable = ()):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        rationals = []
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n:
                raise DimensionMismatch(
                    f"exponent tuple {exps} has length {len(exps)}, expected {n}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be nonnegative integers: {exps}")
            _check_scalar(coeff)
            rationals.append((exps, coeff.numerator, coeff.denominator))
        return _sum(n, rationals)

    @classmethod
    def _make(cls, n: int, numerators: dict, denominator: int = 1) -> "Polynomial":
        """The one place a Polynomial is made.  ``numerators`` maps exponent
        tuples of length ``n`` to nonzero ints and ``denominator`` is a
        positive int; here they are brought to lowest terms."""
        if denominator != 1:
            numerators, denominator = _lowest(numerators, denominator)
        res = object.__new__(cls)
        object.__setattr__(res, "n", n)
        object.__setattr__(res, "numerators", numerators)
        object.__setattr__(res, "denominator", denominator)
        object.__setattr__(res, "_terms", None)
        return res

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _make, not the blocked __setattr__
        return Polynomial._make, (self.n, self.numerators, self.denominator)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map from exponent tuples to nonzero, normalised
        Fractions, built on first read."""
        t = self._terms
        if t is None:
            d = self.denominator
            t = MappingProxyType({e: Fraction(v, d) for e, v in self.numerators.items()})
            object.__setattr__(self, "_terms", t)
        return t

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._make(n, {})

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
        return cls._make(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(n, {tuple(exps): coeff})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.numerators)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.n)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.numerators.get(tuple(exps), 0), self.denominator)

    def total_degree(self):
        """Max monomial degree; NEG_INF for the zero polynomial."""
        if not self.numerators:
            return NEG_INF
        return max(map(sum, self.numerators))

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.numerators))) <= 1

    def variables(self) -> set[int]:
        """Indices of variables actually occurring."""
        used: set[int] = set()
        for exps in self.numerators:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return used

    def involves(self, i: int) -> bool:
        return any(exps[i] for exps in self.numerators)

    # -- ring operations -----------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise DimensionMismatch(f"variable counts differ: {self.n} vs {other.n}")

    def _merge(self, other, sign: int):
        """self + sign * other, sign being 1 or -1."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        fa, fb = den // da, den // db * sign
        out = (dict(self.numerators) if fa == 1
               else {e: v * fa for e, v in self.numerators.items()})
        for exps, v in other.numerators.items():
            s = out.get(exps, 0) + v * fb
            if s:
                out[exps] = s
            else:
                del out[exps]
        return Polynomial._make(self.n, out, den)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.n, {e: -v for e, v in self.numerators.items()},
                                self.denominator)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "Polynomial":
        _check_scalar(c)
        if not c:
            return Polynomial.zero(self.n)
        p = c.numerator
        return Polynomial._make(self.n, {e: v * p for e, v in self.numerators.items()},
                                self.denominator * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return _compose([(_PRODUCT,), (self, other)])[0]

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not k:
            return Polynomial.constant(self.n, 1)
        return _powers(self, [k])[0] if self.numerators else self

    # -- structure -----------------------------------------------------

    def homogeneous_part(self, d: int) -> "Polynomial":
        if d < 0:
            raise ValueError("degree must be nonnegative")
        return Polynomial._make(self.n, {e: v for e, v in self.numerators.items()
                                         if sum(e) == d}, self.denominator)

    def leading_form(self) -> "Polynomial":
        if not self.numerators:
            raise ValueError("zero polynomial has no leading form")
        return self.homogeneous_part(int(self.total_degree()))

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal d/dx_i, 0-based index."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        # distinct monomials containing x_i stay distinct after d/dx_i
        out = {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: v * exps[i]
               for exps, v in self.numerators.items() if exps[i]}
        return Polynomial._make(self.n, out, self.denominator)

    def substitute(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at args: the image of self under x_i -> args[i], the
        two-step chain of ``_compose`` (as ``*`` is), which packs only the
        arguments whose variable occurs in self; x_i returns args[i] itself."""
        if len(args) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} substitution arguments, got {len(args)}")
        if not args:
            return self  # a polynomial in no variables is a constant
        m = args[0].n
        for a in args:
            if a.n != m:
                raise DimensionMismatch("substitution arguments differ in variable count")
        return _compose([(self,), args])[0]

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.n == other.n and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self):
        return hash((self.n, self.denominator, frozenset(self.numerators.items())))

    def __bool__(self):
        return bool(self.numerators)

    def __repr__(self):
        return f"Polynomial({self.n}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


_PRODUCT = Polynomial._make(2, {(1, 1): 1})  # z0*z1: a * b is its image under (a, b)


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


def _coefficient_text(num: int, den: int) -> str:
    """|num/den| as ``str(Fraction)`` prints it: ``p`` or ``p/q``, lowest terms."""
    g = gcd(num, den)
    num, den = abs(num) // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than int-to-text conversion allows
        raise ValueError(f"coefficient longer than {_int_max_str_digits()} digits "
                         "cannot be printed") from None


def format_poly(p: Polynomial, varnames: Sequence[str] | None = None) -> str:
    """Canonical text: graded-lex descending, explicit '*', coeff 1 suppressed."""
    if varnames is None:
        varnames = default_varnames(p.n)
    if len(varnames) != p.n:
        raise DimensionMismatch("variable name list length differs from n")
    if not p.numerators:
        return "0"
    den = p.denominator
    pieces = []
    for exps in sorted(p.numerators, key=_grlex_key, reverse=True):
        v = p.numerators[exps]
        factors = []
        for name, e in zip(varnames, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if mono and abs(v) == den:
            body = mono
        elif mono:
            body = f"{_coefficient_text(v, den)}*{mono}"
        else:
            body = _coefficient_text(v, den)
        pieces.append(("-" if v < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# Parentheses and unary minus signs may nest this deep; the parser recurses
# once per level, so deeper input would exhaust the interpreter's stack.
MAX_NESTING = 100

# A ``^`` exponent may be at most this large, and so may the exponent of a
# variable in a term, a power or a product, checked before it is formed.
# Larger ones would make parsing, ``substitute`` and ``peel``, which build
# every power up to the largest exponent, cost time and memory out of
# proportion to the text: ``(y^10000)^30`` is y^300000.
MAX_EXPONENT = 10_000

# A power of a number or of a parenthesised factor, or a product of two
# factors of a term, may have at most this many coefficient bits summed over
# its terms (bounded before it is formed).  Without it a short text demands
# any amount of ring work: (x+y+z)^400 has 80,601 terms, (3^10000)^10000 has
# 158 million bits, 400 factors 9^10000 multiply out to 12.7 million bits in
# 46 s, and a 400-digit number to the 10000th power has 13 million bits.
MAX_RING_WORK = 2_000_000

# int() refuses digit strings longer than this many digits (0: no limit).
# Python releases before 3.10.7 have no limit and no getter.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

# Names and digit runs are maximal: the guards stop the regex from
# backtracking into one, so a term of a sum token never ends inside a name,
# an exponent or a coefficient.  A power inside a sum token has an exponent
# of fewer digits than MAX_EXPONENT, so it needs no limit test; a sum with a
# longer one is no sum token and is read a token at a time.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # a variable name
_NAME = rf"{NAME_RE.pattern}(?![A-Za-z_0-9])"
_POWER = rf"{_NAME}(?:\^\d{{1,{len(str(MAX_EXPONENT)) - 1}}}(?![\d/]))?"
_TERM = rf"(?:\d+(?:/\d+)?\*)?{_POWER}(?:\*{_POWER})*"  # ``c*m`` or ``m``
_SUMMAND = rf"(?:{_TERM}|\d+(?:/\d+)?)"
# Groups: 1 a canonical sum ``-?T( [-+] T)*``, T a term or a number, spaced
# as ``format_poly`` prints it, from the text's start or a ``(`` (so a failed
# try reads each sum once) to ``)`` or the end, each `` [-+] T`` matched in a
# lookahead (2) and taken by backreference, an atomic group that keeps no
# backtracking state per term; 3 a number; 4 a name; 5 an operator; 6 any
# other character, so matches tile all but trailing blanks.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?<![^(])(-?{_SUMMAND}(?:(?=( [-+] {_SUMMAND}))\2)*)(?=\)|\Z)"
    rf"|(\d+/\d+|\d+)|({NAME_RE.pattern})|([-+*^()])|(\S))")
_KINDS = {1: "sum", 3: "num", 4: "name", 5: "op"}


def _tokenize(text: str):
    """``(kind, value, position)`` tokens; a sum token's value is its text."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if k == 6:
            raise ParseError(f"unexpected character {m[6]!r}", m.start())
        append((_KINDS[k], m[k], m.start(k)))
    append(("end", "", len(text)))
    return tokens


def _number(val: str, pos: int) -> Scalar:
    """The value of an integer or ``p/q`` literal."""
    limit = _int_max_str_digits()
    if limit and len(val) > limit and any(len(d) > limit for d in val.split("/")):
        raise ParseError(f"number literal longer than {limit} digits", pos)
    if "/" in val:
        num, den = map(int, val.split("/"))
        if not den:
            raise ParseError(f"zero denominator in {val!r}", pos)
        return Fraction(num, den)
    return int(val)


def _bits(c: Scalar) -> int:
    return c.numerator.bit_length() + c.denominator.bit_length()


def _check_work(terms: int, bits: int, pos: int) -> None:
    if terms * bits > MAX_RING_WORK:
        raise ParseError(f"result may exceed {MAX_RING_WORK} coefficient bits", pos)


def _exponent_error(pos: int) -> ParseError:
    return ParseError(f"exponent of a variable would exceed {MAX_EXPONENT}", pos)


def _tops(p: Polynomial) -> list[int]:
    """The largest exponent of each variable in ``p``."""
    return [max(column) for column in zip(*p.numerators)]


def _image_bound(exps: Sequence[int], bases: Sequence[Polynomial]) -> tuple[int, int, int]:
    """Bounds on the image of the monomial z^exps under z_i -> bases[i],
    each base nonzero and each exponent positive: the largest exponent of
    one variable in it, its term count, and the bits of one coefficient (its
    numerator's plus the denominator's).  With t_i the terms of bases[i], it
    has at most min(C(n + deg, n), prod_i C(t_i + e_i - 1, e_i)) terms (the
    monomials of its degree, the multisets of e_i terms of each base), and
    each coefficient sums at most prod_i t_i^e_i / max_i t_i products of e_i
    coefficients of each base: the other choices fix the last one."""
    top = max((sum(map(mul, exps, column)) for column in zip(*map(_tops, bases))), default=0)
    n, sizes = bases[0].n, [len(g.numerators) for g in bases]
    degree = sum(e * g.total_degree() for e, g in zip(exps, bases))
    terms = min(comb(n + degree, n), prod(comb(t + e - 1, e) for t, e in zip(sizes, exps)))
    bits = sum(e * (max(v.bit_length() for v in g.numerators.values())
                    + g.denominator.bit_length() + t.bit_length())
               for e, g, t in zip(exps, bases, sizes)) - max(sizes).bit_length()
    return top, terms, bits


def _check_image(exps: Sequence[int], bases: Sequence[Polynomial], pos: int) -> None:
    """Refuse a product or power of parsed factors, the image of z^exps
    under z_i -> bases[i], when ``_image_bound`` puts it past MAX_EXPONENT
    or MAX_RING_WORK; a zero base makes it zero, which needs no bound."""
    if all(bases):
        top, terms, bits = _image_bound(exps, bases)
        if top > MAX_EXPONENT:
            raise _exponent_error(pos)
        _check_work(terms, bits, pos)


class _Parser:
    """Recursive descent over ``expr := ['+'|'-'] term (('+'|'-') term)*``,
    ``term := factor ('*' factor)*``, ``factor := '-' factor | atom ['^' int]``
    and ``atom := number | name | '(' expr ')'``.

    Canonical text is read a sum at a time: a sum token is a whole ``expr``
    of terms ``c*m`` or ``m`` (``m`` a product of variable powers ``v^e``,
    ``c`` an integer or ``p/q``) and numbers, spaced as ``format_poly``
    prints it, and ``read_term`` decodes its terms in ``expr``.  Any other
    text is read one number, name or operator at a time.

    A term of literals and variable powers is built as one monomial, and
    ``expr`` sums the terms' integer numerators with ``_sum``, so canonical
    text parses in time linear in its length.  Only parenthesised factors
    use ring operations; those, and products and powers of numbers, are
    bounded by MAX_RING_WORK.  A variable's exponent is refused past
    MAX_EXPONENT where it grows: at the variable when its power is added
    into the term, at the exponent of a power of a parenthesised factor, at
    the ``*`` of a product of two factors, and at the token after a term
    whose parenthesised factor meets its monomial.
    """

    def __init__(self, text: str, varnames: Sequence[str]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = len(varnames)
        self.index = {name: i for i, name in enumerate(varnames)}
        self.depth = 0

    def expr(self) -> Polynomial:
        items = []
        kind, val, pos = self.tokens[self.i]
        if kind == "sum":
            self.i += 1
            sign = 1
            for piece in val.split(" "):
                if piece == "+" or piece == "-":
                    sign = -1 if piece == "-" else 1
                else:
                    if piece[0] == "-":  # only the first term carries its sign
                        sign, piece, pos = -1, piece[1:], pos + 1
                    exps = [0] * self.n
                    c = self.read_term(piece, pos, exps)
                    items.append((tuple(exps), sign * c.numerator, c.denominator))
                pos += len(piece) + 1
            return _sum(self.n, items)
        sign = -1 if kind == "op" and val == "-" else 1
        if kind == "op" and val in "+-":
            self.i += 1
        while True:
            items.extend((exps, sign * v, den) for exps, v, den in self.term())
            kind, val, _ = self.tokens[self.i]
            if not (kind == "op" and val in "+-"):
                return _sum(self.n, items)
            self.i += 1
            sign = -1 if val == "-" else 1

    def term(self) -> list[tuple[tuple[int, ...], int, int]]:
        """The term's ``(exponents, numerator, denominator)`` items: one for a
        monomial term, and the product's terms when it has a parenthesised
        factor."""
        exps = [0] * self.n
        coeff = 1
        poly = None
        star = None
        while True:
            f = self.factor(exps)
            if isinstance(f, Polynomial):
                if poly is None:
                    poly = f
                else:
                    _check_image((1, 1), (poly, f), star)
                    poly = poly * f
            elif coeff == 1:  # no product formed yet
                coeff = f
            else:
                _check_work(1, _bits(coeff) + _bits(f), star)
                coeff *= f
            kind, val, pos = self.tokens[self.i]
            if kind == "op" and val == "*":
                self.i += 1
                star = pos
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            elif poly is None:
                return [(tuple(exps), coeff.numerator, coeff.denominator)]
            else:
                monomial = Polynomial.monomial(self.n, exps, coeff)
                _check_image((1, 1), (poly, monomial), pos)
                poly *= monomial
                return [(e, v, poly.denominator) for e, v in poly.numerators.items()]

    def read_term(self, text: str, pos: int, exps: list[int]) -> Scalar:
        """Decode a term or number of a sum token at ``pos``: add its
        exponents into ``exps`` and return its coefficient (1 if none)."""
        coeff = 1
        if text[0].isdecimal():  # as \d matches: any Unicode decimal digit
            num, _, text = text.partition("*")
            coeff = _number(num, pos)
            if not text:
                return coeff
            pos += len(num) + 1  # the monomial follows the coefficient and its '*'
        index = self.index
        for power in text.split("*"):
            name, _, e = power.partition("^")
            var = index.get(name)
            if var is None:
                raise ParseError(f"unknown variable {name!r}", pos)
            e = exps[var] + (int(e) if e else 1)
            if e > MAX_EXPONENT:
                raise _exponent_error(pos)
            exps[var] = e
            pos += len(power) + 1
        return coeff

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
            base = _number(val, pos)
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
            kind, digits, pos = self.tokens[self.i + 1]
            self.i += 2
            if kind != "num" or "/" in digits:
                raise ParseError("exponent must be a nonnegative integer", pos)
            # the length test keeps int() off digit strings it refuses
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", pos)
            k = int(digits)
            if isinstance(base, Polynomial):
                if k > 1:
                    _check_image((k,), (base,), pos)
            elif var is None:  # a number's power has k times its bits
                _check_work(1, k * _bits(base), pos)
        if var is not None:
            exps[var] += k
            if exps[var] > MAX_EXPONENT:
                raise _exponent_error(var_pos)
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
