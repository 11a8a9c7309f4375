"""The benchmark's workloads: seeded inputs, the CLI calls of one item, and
an independent check of each answer.

Every generator here reimplements a recipe from the test suite with the
benchmark's own arithmetic (``exact``), so editing a test cannot shift the
benchmark.  Each item is run through ``tamedeg.cli.main`` by the ``call``
function the runner passes in; it returns ``(exit code, stdout, seconds)``.
A check returns None when the answer is right and a message otherwise.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import exact

EXIT_BY_STATUS = {"Realizable": 0, "NotRealizable": 1, "Unknown": 2,
                  "ConditionalOnJC2": 3}


def _point(rng, n):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))


def _apply_chain(chain, point):
    """chain[-1] . ... . chain[0] at a point (chain[0] acts first)."""
    for components in chain:
        point = exact.evaluate_map(components, point)
    return point


@dataclass
class Item:
    label: str
    argv: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plane-chains
# ---------------------------------------------------------------------------


class PlaneChains:
    """``analyze2 --decompose --inverse --json`` on normalized plane chains.

    Why: the kernel-bound path.  Polynomial.__mul__ takes most of the time,
    inside peel's Jacobian and recomposition and inside inverse_map, and the
    degree-25..32 chains make the p90 tail.
    """

    name = "plane-chains"
    size = 200
    max_degree_product = 32

    def degree_mix(self):
        """The factor-degree sequences of one corpus, in a fixed order.

        The test recipe draws a length in 1..4 and then each degree in 2..5,
        resampling when the product exceeds 32.  Rather than draw sequences
        at random, which lets the count of the costly degree-25..32 chains
        (and so the whole pass time) swing from seed to seed, the corpus
        takes ``size`` evenly spaced quantiles of that distribution.
        """
        seqs = [degs for length in range(1, 5)
                for degs in itertools.product(range(2, 6), repeat=length)
                if math.prod(degs) <= self.max_degree_product]
        weights = [Fraction(1, 4 ** len(degs)) for degs in seqs]
        total = sum(weights)
        mix, cum, k = [], Fraction(0), 0
        for degs, w in zip(seqs, weights):
            cum += w / total
            while k < self.size and Fraction(2 * k + 1, 2 * self.size) < cum:
                mix.append(degs)
                k += 1
        return mix

    @staticmethod
    def _sparse_univariate(rng, deg, var, low):
        """c*v^deg, plus c'*v^low when ``low`` is not None."""
        exps = [0, 0]
        exps[var] = deg
        terms = {tuple(exps): rng.choice([1, -1, 2, 3])}
        if low is not None:
            exps[var] = low
            terms[tuple(exps)] = rng.choice([1, -1, 2])
        return terms

    @staticmethod
    def low_terms(mix):
        """For each degree sequence, the exponent of each factor's lower term
        (None for none), drawn by the recipe from a fixed stream.

        Whether a factor has a lower term, and where, sets how many terms
        every composition along its chain has, so like the ends it follows
        a fixed schedule and the seed draws only the coefficients.
        """
        rng = random.Random("plane-chains low terms")
        return [[rng.randrange(2, d) if d > 2 and rng.random() < 0.6 else None
                 for d in degs] for degs in mix]

    @staticmethod
    def _random_affine(rng):
        while True:
            rows = [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)]
            if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]:
                vec = [rng.randrange(-2, 3), rng.randrange(-2, 3)]
                return [exact.add(exact.constant(2, v),
                                  exact.add(exact.scale(exact.variable(2, 0), r[0]),
                                            exact.scale(exact.variable(2, 1), r[1])))
                        for r, v in zip(rows, vec)]

    def affine_ends(self, count):
        """``count`` (L1, L2) pairs drawn by the recipe from a fixed stream.

        On one degree sequence the ends alone move an item's time by 3-5x
        (a zero in L1's row that feeds T_1 keeps the composition sparse;
        larger entries and determinants grow the coefficients), while the
        triangular factors move it by about 15%.  Drawn per seed, the ends
        made whole passes differ by 1.6x between seeds, so the ends follow
        this fixed schedule and the seed draws everything else.
        """
        rng = random.Random("plane-chains affine ends")
        return [(self._random_affine(rng), self._random_affine(rng))
                for _ in range(count)]

    def chain(self, rng, degs, lows, ends):
        """The tests' random_plane_chain recipe for given degrees, lower
        terms and ends."""
        triangular = []
        for i, (d, low) in enumerate(zip(degs, lows), start=1):
            # alternate orientations so the chain is normalized as built
            var, coord = (1, 0) if i % 2 else (0, 1)
            comps = [exact.variable(2, 0), exact.variable(2, 1)]
            comps[coord] = exact.add(comps[coord], self._sparse_univariate(rng, d, var, low))
            triangular.append(comps)
        l1, l2 = ends
        return [l1] + triangular + [l2]  # innermost first

    def generate(self, rng):
        mix = self.degree_mix()
        shapes = zip(mix, self.low_terms(mix), self.affine_ends(len(mix)))
        items = [self._item(rng, f"chain{k}{list(degs)}", degs, lows, ends)
                 for k, (degs, lows, ends) in enumerate(shapes)]
        rng.shuffle(items)
        return items

    def warmup(self, rng):
        return [self._item(rng, "warmup", (3, 2), (2, None), self.affine_ends(1)[0])]

    def _item(self, rng, label, degs, lows, ends):
        chain = self.chain(rng, degs, lows, ends)
        composed = chain[0]
        for step in chain[1:]:
            composed = exact.compose(step, composed, 2)
        return Item(label, data={
            "chain": chain, "degs": sorted(degs),
            "mdeg": [exact.total_degree(c) for c in composed],
            "points": [_point(rng, 2) for _ in range(2)],
            "map": exact.map_json(composed, ("x", "y"))})

    def prepare(self, items, workdir, call):
        for k, item in enumerate(items):
            path = workdir / f"plane{k}.json"
            path.write_text(json.dumps(item.data.pop("map")))
            item.argv = ["analyze2", "--map", str(path), "--decompose",
                         "--inverse", "--json"]

    def run(self, item, call, workdir):
        code, out, seconds = call(item.argv)
        return seconds, (code, out)

    def check(self, item, obs):
        code, out = obs
        if code != 0:
            return f"exit {code}: {out.strip()[:200]}"
        data = json.loads(out)
        d = item.data
        if data["length"] != len(d["degs"]):
            return f"length {data['length']}, built {len(d['degs'])}"
        if sorted(data["factor_degrees"]) != d["degs"]:
            return f"factor degrees {data['factor_degrees']}, built {d['degs']}"
        if data["mdeg"] != d["mdeg"]:
            return f"mdeg {data['mdeg']}, built {d['mdeg']}"
        inverse = exact.parse_map(data["inverse"])
        decomposition = ([exact.parse_map(data["l1"])]
                         + [exact.parse_map(f) for f in data["factors"]]
                         + [exact.parse_map(data["l2"])])
        for p in d["points"]:
            if _apply_chain(d["chain"], exact.evaluate_map(inverse, p)) != p:
                return f"F(F^-1(p)) != p at p={p}"
            if _apply_chain(decomposition, p) != _apply_chain(d["chain"], p):
                return f"L2.T_l...T_1.L1 differs from F at p={p}"
        return None


# ---------------------------------------------------------------------------
# decide-witness
# ---------------------------------------------------------------------------


class DecideWitness:
    """``decide d1 d2 d3 --witness --json`` then ``verify`` on the witness.

    Why: the poly layer used very differently, in many tiny sparse products,
    while the time spreads over the CLI (argparse rebuilds its parser on
    every call), the classify/semigroup ladder, witness.build and
    parse/format.  A kernel change that costs small products shows here.
    """

    name = "decide-witness"
    size = 800
    max_degree = 60

    def generate(self, rng):
        return [self._item(rng, tuple(rng.randint(1, self.max_degree) for _ in range(3)))
                for _ in range(self.size)]

    def warmup(self, rng):
        return [self._item(rng, t) for t in ((5, 7, 24), (3, 4, 5), (4, 6, 9))]

    def _item(self, rng, triple):
        return Item(f"decide{list(triple)}",
                    argv=["decide", *map(str, triple), "--witness", "--json"],
                    data={"triple": triple, "line": exact.random_line(rng, 3)})

    def prepare(self, items, workdir, call):
        for k, item in enumerate(items):
            item.data["witness_file"] = workdir / f"witness{k}.json"
            item.data["written"] = None

    def run(self, item, call, workdir):
        code, out, seconds = call(item.argv)
        if code != 0:
            return seconds, (code, out, None, None)
        # Each item has its own witness file, rewritten only when the
        # witness changes, so later passes do not wait on the disk.
        path = item.data["witness_file"]
        text = json.dumps(json.loads(out)["witness"])
        if text != item.data["written"]:
            path.write_text(text)
            item.data["written"] = text
        vcode, vout, vseconds = call(["verify", str(path)])
        return seconds + vseconds, (code, out, vcode, vout)

    def check(self, item, obs):
        code, out, vcode, vout = obs
        data = json.loads(out)
        triple = list(item.data["triple"])
        target = sorted(triple)
        status = data["status"]
        if code != EXIT_BY_STATUS.get(status):
            return f"exit {code} for status {status!r}"
        if data["input"] != triple or data["sorted"] != target:
            return f"echoed {data['input']} / {data['sorted']}"
        if status != "Realizable":
            return "witness for a non-Realizable verdict" if "witness" in data else None
        w = data["witness"]
        if w["target"] != target or not w["factors"]:
            return f"witness target {w['target']} with {len(w['factors'])} factors"
        # compose the factors (factors[0] outermost) along the item's line
        along = item.data["line"]
        for factor in reversed(w["factors"]):
            components = exact.parse_map(factor)
            along = [exact.restrict(c, along) for c in components]
        degrees = [exact.line_degree(u) for u in along]
        if degrees != target:
            return f"witness composes to degrees {degrees} along a line"
        if (vcode, vout) != (0, "OK\n"):
            return f"verify gave exit {vcode}: {vout.strip()[:200]}"
        return None


# ---------------------------------------------------------------------------
# reduce-search
# ---------------------------------------------------------------------------

_REDUCE_OUT = re.compile(r"g = (.+) \(reduces component 1 to degree (-inf|\d+)\)\n")


class ReduceSearch:
    """``reduce --target 1 --degy-bound 8 --deg-bound 40`` on planted maps,
    plus ``--target 1..3`` on the gallery's su_example (nothing to find).

    Why: linalg.solve_linear's exact Fraction Gauss-Jordan takes most of the
    time; the poly layer only builds 3-variable power caches and bracket
    prunes, so a linear-algebra change shows here and bypasses the plane
    kernel.
    """

    name = "reduce-search"
    size = 120  # planted maps; the three su_example searches ride along
    bounds = ["--degy-bound", "8", "--deg-bound", "40"]

    @staticmethod
    def base_map():
        """Components of e1 . e2 with e1: z += x^2 + y and e2: y += x^2."""
        x, y, z = (exact.variable(3, i) for i in range(3))
        e1 = [x, y, exact.add(z, exact.add(exact.mul(x, x), y))]
        e2 = [x, exact.add(y, exact.mul(x, x)), z]
        return exact.compose(e1, e2, 3)

    def generate(self, rng):
        # Same recipe as the tests' planted_map, with the six exponent pairs
        # (s, t) of the planted monomial in equal shares rather than drawn,
        # so the seed draws coefficients, lines and order but not the mix.
        shapes = [(s, t) for s in range(1, 3) for t in range(3)]
        mix = [shapes[k % len(shapes)] for k in range(self.size)]
        items = [self._planted(rng, s, t) for s, t in mix]
        items += [Item(f"su_example target {k}", data={"target": k})
                  for k in (1, 2, 3)]
        rng.shuffle(items)
        return items

    def warmup(self, rng):
        return [self._planted(rng, 1, 1)]

    def _planted(self, rng, s, t):
        comps = self.base_map()
        c = rng.choice([1, -1, 2])
        planted = exact.add(comps[0], exact.substitute({(s, t): c}, comps[1:], 3))
        comps = [planted] + comps[1:]
        return Item(f"planted c*X^{s}*Y^{t}", data={
            "comps": comps, "line": exact.random_line(rng, 3),
            "map": exact.map_json(comps, ("x", "y", "z"))})

    def prepare(self, items, workdir, call):
        su_path = workdir / "su_example.json"
        code, out, _ = call(["gallery", "su_example", "--json"])
        if code != 0:
            raise RuntimeError(f"gallery su_example exited {code}")
        su_path.write_text(out)
        for k, item in enumerate(items):
            if "target" in item.data:
                item.argv = ["reduce", "--map", str(su_path),
                             "--target", str(item.data["target"]), *self.bounds]
            else:
                path = workdir / f"planted{k}.json"
                path.write_text(json.dumps(item.data.pop("map")))
                item.argv = ["reduce", "--map", str(path), "--target", "1", *self.bounds]

    def run(self, item, call, workdir):
        code, out, seconds = call(item.argv)
        return seconds, (code, out)

    def check(self, item, obs):
        code, out = obs
        if "target" in item.data:
            if (code, out) != (1, "not found within bounds\n"):
                return f"su_example gave exit {code}: {out.strip()[:200]}"
            return None
        m = _REDUCE_OUT.fullmatch(out)
        if code != 0 or m is None:
            return f"exit {code}: {out.strip()[:200]}"
        g = exact.parse_canonical(m.group(1), ("X", "Y"))
        f1, f2, f3 = (exact.restrict(c, item.data["line"]) for c in item.data["comps"])
        deg_f1 = exact.total_degree(item.data["comps"][0])
        if exact.line_degree(f1) != deg_f1:
            return "input lost degree along the line"
        rest = exact.uadd(f1, exact.uneg(exact.restrict(g, [f2, f3])))
        achieved = exact.line_degree(rest)
        claimed = None if m.group(2) == "-inf" else int(m.group(2))
        if achieved != claimed or (claimed is not None and claimed >= deg_f1):
            return (f"F1 - g(F2,F3) has degree {achieved} along a line; "
                    f"claimed {claimed}, deg F1 = {deg_f1}")
        return None


WORKLOADS = {w.name: w for w in (PlaneChains(), DecideWitness(), ReduceSearch())}
