"""Exact arithmetic owned by the benchmark.

The benchmark builds its inputs and checks the program's answers with the
helpers here: plain dicts and lists of ``int``/``Fraction`` coefficients.
Nothing here calls into ``tamedeg``, so a defect in the kernels being timed
cannot corrupt the inputs or hide in the checker.

A polynomial in ``n`` variables is a dict ``{exponent tuple: coefficient}``
with no zero coefficients; the zero polynomial is ``{}``.  A univariate
polynomial (the restriction of a polynomial to a line ``t -> a*t + b``) is a
list of coefficients mod ``PRIME`` indexed by degree, with no trailing zeros.
"""
from __future__ import annotations

import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# multivariate polynomials (input generation)
# ---------------------------------------------------------------------------


def constant(n, c):
    return {(0,) * n: c} if c else {}


def variable(n, i):
    return {tuple(int(j == i) for j in range(n)): 1}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a, c):
    return {e: c * v for e, v in a.items()} if c else {}


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(p, args, n):
    """p(args[0], ..., args[k-1]) as a polynomial in ``n`` variables."""
    powers = [[constant(n, 1)] for _ in args]
    out = {}
    for exps, c in p.items():
        term = constant(n, c)
        for row, arg, e in zip(powers, args, exps):
            while len(row) <= e:
                row.append(mul(row[-1], arg))
            term = mul(term, row[e])
        out = add(out, term)
    return out


def compose(outer, inner, n):
    """The map outer . inner, both given as lists of ``n`` components."""
    return [substitute(c, inner, n) for c in outer]


def total_degree(p):
    return max((sum(e) for e in p), default=None)


def to_text(p, names):
    """The polynomial in the program's input grammar (not canonical order)."""
    if not p:
        return "0"
    parts = []
    for exps, c in sorted(p.items()):
        factors = [str(abs(c))] if abs(c) != 1 or not any(exps) else []
        factors += [name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e]
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {body}" for s, body in parts[1:])


def map_json(components, names):
    return {"n": len(components), "vars": list(names),
            "components": [to_text(c, names) for c in components]}


# ---------------------------------------------------------------------------
# canonical text (what the program prints)
# ---------------------------------------------------------------------------

_COEFF = re.compile(r"\d+(?:/\d+)?")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?")


def parse_canonical(text, names):
    """Parse the canonical component text the program prints.

    Only the canonical shape is accepted: signed terms separated by
    `` + `` / `` - ``, an optional leading ``-``, a coefficient other than 1
    written first, explicit ``*`` and each variable at most once per term.
    Anything else raises ValueError.
    """
    if text == "0":
        return {}
    index = {name: i for i, name in enumerate(names)}
    tokens = text.split(" ")
    first = tokens[0]
    signed = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError(f"malformed polynomial text {text!r}")
    signed += list(zip(rest[::2], rest[1::2]))
    out = {}
    for sign, body in signed:
        if sign not in ("+", "-") or not body:
            raise ValueError(f"malformed term in {text!r}")
        factors = body.split("*")
        coeff = Fraction(1)
        if _COEFF.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
            if coeff == 1 and factors:
                raise ValueError(f"explicit coefficient 1 in {text!r}")
        exps = [0] * len(names)
        for factor in factors:
            m = _FACTOR.fullmatch(factor)
            if m is None or m.group(1) not in index:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            i = index[m.group(1)]
            if exps[i]:
                raise ValueError(f"repeated variable in {text!r}")
            exps[i] = int(m.group(2) or 1)
        key = tuple(exps)
        if key in out or not coeff:
            raise ValueError(f"repeated or zero term in {text!r}")
        out[key] = -coeff if sign == "-" else coeff
    return out


def parse_map(data):
    """Components of a map JSON object as polynomial dicts."""
    names = data["vars"]
    if data["n"] != len(names) or len(data["components"]) != len(names):
        raise ValueError("map JSON has inconsistent sizes")
    return [parse_canonical(c, names) for c in data["components"]]


# ---------------------------------------------------------------------------
# evaluation at points and along lines (answer checking)
# ---------------------------------------------------------------------------


def evaluate(p, point):
    """p at a point of rationals."""
    powers = [[Fraction(1)] for _ in point]
    total = Fraction(0)
    for exps, c in p.items():
        term = Fraction(c)
        for row, v, e in zip(powers, point, exps):
            while len(row) <= e:
                row.append(row[-1] * v)
            term *= row[e]
        total += term
    return total


def evaluate_map(components, point):
    return tuple(evaluate(c, point) for c in components)


# Along a line t -> a*t + b the benchmark works modulo the prime PRIME: the
# map Z[1/denominators] -> GF(PRIME) is a ring homomorphism, so a degree
# found there never exceeds the rational one, and it falls short only when
# the line's direction is a root of the leading form mod PRIME, which for a
# random line happens with probability at most deg / PRIME (Schwartz-Zippel).
# Exact rationals along a random line reach thousands of digits at the
# witnesses' degree 60 and would cost more than the item being checked.
PRIME = 2 ** 61 - 1


def random_line(rng, n):
    """One linear polynomial [b, a] (b + a*t, a != 0) per variable, mod PRIME."""
    return [[rng.randrange(PRIME), rng.randrange(1, PRIME)] for _ in range(n)]


def _mod(c):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def _trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % PRIME for v in out])


def uadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % PRIME
    return _trim(out)


def uneg(a):
    return [-v % PRIME for v in a]


def restrict(p, args):
    """p(args[0](t), ..., args[k-1](t)) mod PRIME for univariate args."""
    powers = [[[1]] for _ in args]
    out = []
    for exps, c in p.items():
        term = [_mod(c)]
        for row, arg, e in zip(powers, args, exps):
            while len(row) <= e:
                row.append(umul(row[-1], arg))
            term = umul(term, row[e])
        out = uadd(out, term)
    return out


def line_degree(u):
    """Degree of a univariate polynomial; None for zero."""
    return len(u) - 1 if u else None
