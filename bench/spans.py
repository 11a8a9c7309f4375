"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with a timing
wrapper at the attribute its callers resolve (a module global such as
``tamedeg.plane.peel``, or a class attribute such as
``Polynomial.__mul__``); ``uninstall`` puts the originals back.  Each span
adds to its name's call count, total time and self time (the span minus
the spans nested directly inside it).  A name that is re-entered adds its
total time only at the outermost activation.
"""
from __future__ import annotations

from time import perf_counter_ns

from tamedeg import (bracket, classify, cli, linalg, maps, plane, poly,
                     reductions, semigroup, witness)

# (span name, reported fields, [(owner, attribute), ...]): every place a
# caller in the program, or the benchmark for cli.main, looks the function
# up.  Fields: "calls", total time "s" and "self_s", in seconds.
LAYERS = [
    ("poly.mul", ("calls", "self_s"),
     [(poly.Polynomial, "__mul__"), (poly.Polynomial, "__rmul__")]),
    ("poly.substitute", ("calls", "self_s"), [(poly.Polynomial, "substitute")]),
    ("maps.compose", ("calls", "self_s"), [(maps.PolyMap, "compose")]),
    ("maps.jacobian", ("s",), [(maps.PolyMap, "jacobian_determinant")]),
    ("plane.peel", ("s", "self_s"), [(plane, "peel")]),
    ("plane.inverse_map", ("s",), [(plane.Decomposition, "inverse_map")]),
    ("bracket.is_power_proportional", ("calls", "s"),
     [(bracket, "is_power_proportional"), (plane, "is_power_proportional")]),
    ("linalg.solve_linear", ("calls", "s"),
     [(linalg, "solve_linear"), (reductions, "solve_linear")]),
    ("reductions.search", ("s", "self_s"), [(reductions, "bounded_reduction_search")]),
    ("bracket.poisson_degree", ("s",),
     [(bracket, "poisson_degree"), (reductions, "poisson_degree")]),
    ("bracket.reduced_pair_report", ("s",),
     [(bracket, "reduced_pair_report"), (reductions, "reduced_pair_report")]),
    ("cli.main", ("self_s",), [(cli, "main")]),
    ("classify.classify", ("calls", "s"), [(classify, "classify"), (cli, "classify")]),
    ("semigroup.member", ("calls", "s"), [(semigroup.SemigroupPair, "member")]),
    ("poly.parse", ("s",), [(poly, "parse_poly"), (maps, "parse_poly")]),
    ("poly.format", ("s",),
     [(poly, "format_poly"), (maps, "format_poly"), (cli, "format_poly")]),
    ("witness.build", ("s",), [(witness, "build")]),
    ("witness.verify", ("s",), [(witness, "verify_witness_json")]),
]
COUNTERS = ["poly.mul.term_pairs", "poly.mul.frac_calls", "linalg.solve_linear.cells",
            "classify.status.Realizable", "classify.status.NotRealizable",
            "classify.status.Unknown", "classify.status.ConditionalOnJC2"]


class Tracer:
    """Span totals per layer plus the counters the layers' arguments and
    results give: term pairs and rational operands of products, cells and
    solved systems of linear solves, and verdicts by status."""

    def __init__(self):
        self.spans = {name: [0, 0, 0] for name, _, _ in LAYERS}  # calls, total_ns, self_ns
        self.counts = {}
        self._stack = []  # child time accumulated for each open span
        self._depth = {name: 0 for name, _, _ in LAYERS}
        self._saved = []

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def _observe_mul(self, args, result):
        a, b = args
        if isinstance(b, poly.Polynomial) and a.terms and b.terms:
            self.count("poly.mul.term_pairs", len(a.terms) * len(b.terms))
            if any(c.denominator != 1 for p in (a, b) for c in p.terms.values()):
                self.count("poly.mul.frac_calls")

    def _observe_solve(self, args, result):
        rows = args[0]
        self.count("linalg.solve_linear.cells", len(rows) * len(rows[0]) if rows else 0)
        if result is not None:
            self.count("linalg.solve_linear.solved")

    def _observe_classify(self, args, result):
        self.count(f"classify.status.{result.status.value}")

    def _wrap(self, name, fn, observe):
        totals = self.spans[name]
        stack, depth = self._stack, self._depth

        def span(*args, **kwargs):
            stack.append(0)
            depth[name] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                depth[name] -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                totals[0] += 1
                totals[2] += dt - child
                if not depth[name]:
                    totals[1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return span

    def install(self):
        observers = {"poly.mul": self._observe_mul,
                     "linalg.solve_linear": self._observe_solve,
                     "classify.classify": self._observe_classify}
        for name, _, sites in LAYERS:
            for owner, attr in sites:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observers.get(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, items):
        """The per-layer metrics of a traced pass over ``items`` items:
        name -> (value, unit)."""
        out = {}
        for name, fields, _ in LAYERS:
            calls, total_ns, self_ns = self.spans[name]
            values = {"calls": (calls, "count"), "s": (total_ns / 1e9, "s"),
                      "self_s": (self_ns / 1e9, "s")}
            out.update((f"{name}.{f}", values[f]) for f in fields)
        out.update((key, (self.counts.get(key, 0), "count")) for key in COUNTERS)
        solves = self.spans["linalg.solve_linear"][0]
        solved = self.counts.get("linalg.solve_linear.solved", 0)
        out["linalg.solve_linear.solved_ratio"] = (solved / solves if solves else 0.0, "ratio")
        out["trace.items"] = (items, "count")
        return out

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
