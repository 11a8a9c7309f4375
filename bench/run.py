"""Benchmark of the tamedeg CLI: one process, one thread, one caller.

Usage (from the root of a checkout):

    python3 bench/run.py --workload plane-chains --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one caller: a seeded corpus of items
runs in a fixed order, each item an in-process call to
``tamedeg.cli.main([...])`` with stdout captured, and the next item starts
when the previous one returns.  Passes over the corpus repeat until
``--seconds`` have gone by (the first pass always completes).  Between
items a fixed reference loop that does not use tamedeg is timed every
PROBE_INTERVAL_S; each timing is rescaled to a nominal machine on which that
loop takes REFERENCE_S, by the reference loops run nearest it, so that the
shared machine's drifting speed cancels.  An item's latency is the median of
its rescaled timings.  Every answer goes through the workload's independent
checker.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of ``spans.Tracer`` and the tracing overhead.  Lines
before the last give each metric with its unit and sample count, and the
run's environment.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # setup_s is the median of at least these many imports and set-ups,
SETUP_SECONDS = 2.0  # more while the set-ups have taken less than this,
MAX_SETUP_REPS = 25  # up to this many
PROBES_PER_SETUP = 5  # reference loops timed before and after each set-up
PROBE_INTERVAL_S = 0.1  # a reference loop runs between items this often
PROBE_WINDOW = 3  # an item is rescaled by the 2 x 3 reference loops nearest it
REFERENCE_S = 3e-3  # the nominal machine: one reference loop takes 3 ms
MIN_TRACED_PASSES = 2  # the counts of every traced pass must agree

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

def import_program():
    """Import the checkout's own tamedeg from src/, or exit without a result."""
    src = ROOT / "src"
    package = src / "tamedeg"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import tamedeg.cli
    seconds = perf_counter() - t0
    if Path(tamedeg.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported {tamedeg.cli.__file__}, not the checkout's {package}")
    return tamedeg.cli, seconds


def reimport_program():
    """Import tamedeg afresh, its modules dropped from sys.modules first:
    the CLI module and the seconds the import took."""
    for name in [m for m in sys.modules if m == "tamedeg" or m.startswith("tamedeg.")]:
        del sys.modules[name]
    gc.collect()  # free the previous import's objects before timing this one
    t0 = perf_counter()
    cli = importlib.import_module("tamedeg.cli")
    return cli, perf_counter() - t0


# The reference loop stands for the machine's speed on the kind of work a
# tamedeg CLI call does, with the standard library only, so that no change
# to tamedeg can change its cost: sparse products of small bivariate
# polynomials in plain dicts, with small and with multi-word int and
# Fraction coefficients (the kernel's arithmetic), then a fresh argparse
# parser with subcommands, a parse and a JSON round trip (the breadth of
# library code around it).  The small-coefficient products alone followed
# the machine on plane-chains and reduce-search but missed slow spells that
# cost decide-witness, whose calls run far more distinct code, 1.5x; the
# multi-word products follow plane-chains' long chains more closely.
_REF_A = {(i, j): (3 * i - 2 * j) % 7 - 3 or 1 for i in range(5) for j in range(5 - i)}
_REF_B = {(i, j): Fraction((5 * i + j) % 9 - 4 or 1, 1 + (i * j) % 4)
          for i in range(4) for j in range(4 - i)}
_REF_C = {(i, j): (-1) ** (i + j) * 7 ** (20 + 3 * i + j) for i in range(4) for j in range(4 - i)}
_REF_D = {(i, j): Fraction(3 ** (15 + i + 2 * j), 2 ** (10 + i))
          for i in range(3) for j in range(3 - i)}


def reference_loop():
    for left, right in ((_REF_A, _REF_B), (_REF_A, _REF_A), (_REF_C, _REF_D), (_REF_C, _REF_C)):
        out = {}
        for (a1, a2), ca in left.items():
            for (b1, b2), cb in right.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, 0) + ca * cb
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("first", "second", "third"):
        p = sub.add_parser(name, help=f"the {name} command")
        p.add_argument("values", nargs="*", type=int)
        p.add_argument("--out", default=None)
        p.add_argument("--json", action="store_true")
    args = parser.parse_args(["second", "3", "5", "7", "--json"])
    text = json.dumps({"command": args.command, "values": args.values,
                       "terms": [[list(k), str(v)] for k, v in sorted(out.items())]})
    return json.loads(text)


def probe_seconds():
    """Seconds the reference loop takes now: how fast the machine runs."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def to_reference(seconds, probe):
    """``seconds`` measured while the reference loop took ``probe`` seconds,
    rescaled to a machine on which the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe


def git_sha():
    """The checkout's commit from .git, without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs one workload's corpus through the CLI and tallies checked answers."""

    def __init__(self, workload, cli, workdir):
        self.workload = workload
        self.cli = cli
        self.workdir = workdir
        self.items = []
        self.verified = {}  # item index -> observation that passed its check
        self.attempted = 0
        self.failures = []

    def call(self, argv):
        """One CLI call with stdout and stderr captured: (exit, stdout, seconds)."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call, so spans apply
            except Exception as exc:  # a traceback is a failed item, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        return code, out.getvalue(), seconds

    def setup(self, seed):
        rng = random.Random(f"{self.workload.name}:{seed}")
        self.items = self.workload.generate(rng)
        self.workload.prepare(self.items, self.workdir, self.call)
        self.verified.clear()
        warm = self.workload.warmup(rng)
        warm_dir = self.workdir / "warmup"
        warm_dir.mkdir(exist_ok=True)
        self.workload.prepare(warm, warm_dir, self.call)
        for item in warm:
            self.run_item(-1, item)

    def run_item(self, index, item):
        """Run and check one item; its latency in seconds."""
        self.attempted += 1
        try:
            seconds, obs = self.workload.run(item, self.call, self.workdir)
        except Exception as exc:
            self.failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
            return None
        if index < 0 or self.verified.get(index) != obs:
            try:
                error = self.workload.check(item, obs)
            except Exception as exc:  # malformed output
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{item.label}: {error}")
            elif index >= 0:
                self.verified[index] = obs
        return seconds

    def run_pass(self, deadline=None):
        """One closed-loop pass over the corpus, cut at ``deadline``.

        Returns the latency of each item (None where it was not run or
        could not run), the median time of the reference loops run nearest
        each item (PROBE_WINDOW before and after it), and all the
        reference-loop times of the pass."""
        latencies = [None] * len(self.items)
        before = [None] * len(self.items)  # reference loops run before item k
        probes = [probe_seconds()]
        last_probe = perf_counter()
        for k, item in enumerate(self.items):
            if deadline is not None and perf_counter() >= deadline:
                break
            latencies[k] = self.run_item(k, item)
            before[k] = len(probes)
            if perf_counter() - last_probe >= PROBE_INTERVAL_S:
                probes.append(probe_seconds())
                last_probe = perf_counter()
        probes.append(probe_seconds())
        nearby = [None if b is None else
                  statistics.median(probes[max(0, b - PROBE_WINDOW):b + PROBE_WINDOW])
                  for b in before]
        return latencies, nearby, probes


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_run(runner, seed, seconds):
    # A set-up is a fresh import of tamedeg (the first, cold import of the
    # process is not timed: it varies with the disk, not the program) and
    # the runner's set-up: input generation, map files and warm-up.
    # Each is rescaled by the reference loops run just before and after it.
    setups, gaps = [], [[probe_seconds() for _ in range(PROBES_PER_SETUP)]]
    setup_end = perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPS or (perf_counter() < setup_end
                                       and len(setups) < MAX_SETUP_REPS):
        runner.cli, import_s = reimport_program()
        t0 = perf_counter()
        runner.setup(seed)
        setups.append(import_s + perf_counter() - t0)
        gaps.append([probe_seconds() for _ in range(PROBES_PER_SETUP)])
    setup_probes = [p for gap in gaps for p in gap]
    deadline = perf_counter() + seconds
    passes = [runner.run_pass()]  # (latencies, nearby reference loops, all) per pass
    while perf_counter() < deadline:
        passes.append(runner.run_pass(deadline))
    # The shared machine's speed drifts by up to 2x over minutes, so each
    # timing is rescaled by the reference loops run nearest it
    # (to_reference).  An item's latency is then the median of its
    # timings in the run: single calls vary by up to 2x, and the least of
    # an item's timings keeps falling as passes are added, so it would
    # depend on how many passes fit in the run, while the median settles.
    rows = [[None if t is None else to_reference(t, speed)
             for t, speed in zip(latencies, nearby)]
            for latencies, nearby, _ in passes]
    raw_rows = [latencies for latencies, _, _ in passes]

    def item_latencies(rows):
        return [statistics.median(t for t in col if t is not None)
                for col in zip(*rows) if any(t is not None for t in col)]

    latency, raw = item_latencies(rows), item_latencies(raw_rows)
    pass_probes = [p for _, _, probes in passes for p in probes]
    n = f"{len(latency)} items, each the median of up to {len(rows)} passes"
    raw_setup = statistics.median(setups)
    metrics = {
        "items_per_s": (len(latency) / sum(latency), n),
        "item_p50_ms": (1e3 * statistics.median(latency), n),
        "item_p90_ms": (1e3 * percentile(latency, 90), f"{n}, {len(latency) // 10} items beyond"),
        "setup_s": (statistics.median(
                        to_reference(t, statistics.median(before + after))
                        for t, before, after in zip(setups, gaps, gaps[1:])),
                    f"median of {len(setups)} imports and set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "whole process"),
    }
    speed = {
        "reference_loop_ms": 1e3 * statistics.median(pass_probes),
        "reference_loop_samples": len(pass_probes),
        "setup_reference_loop_ms": 1e3 * statistics.median(setup_probes),
        "raw_items_per_s": len(raw) / sum(raw),
        "raw_item_p50_ms": 1e3 * statistics.median(raw),
        "raw_item_p90_ms": 1e3 * percentile(raw, 90),
        "raw_setup_s": raw_setup,
    }
    return ({k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in metrics.items()},
            len(rows), speed)


def traced_run(runner, seed, seconds):
    from spans import Tracer
    runner.setup(seed)
    plain, traced = [], []
    t0 = perf_counter()
    while True:
        started = perf_counter()
        plain.append(sum(t for t in runner.run_pass()[0] if t is not None))
        with Tracer() as tracer:
            traced.append((sum(t for t in runner.run_pass()[0] if t is not None), tracer))
        now = perf_counter()
        if len(traced) >= MIN_TRACED_PASSES and now + (now - started) > t0 + seconds:
            break
    per_pass = [tracer.metrics(len(runner.items)) for _, tracer in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit,
                             f"median of {len(values)} traced passes")
        elif len(set(values)) > 1:
            runner.failures.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit, "NOT REPEATED")
        else:
            metrics[name] = (values[0], unit, f"equal in {len(values)} traced passes")
    untraced = statistics.median(plain)
    metrics["trace.overhead_pct"] = (
        100 * (statistics.median(t for t, _ in traced) / untraced - 1), "%",
        f"median of {len(traced)} traced passes vs median of {len(plain)} "
        f"untraced passes ({untraced:.4f} s)")
    return metrics, len(plain) + len(traced), {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, first_import_s = import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tamedeg-", dir=ROOT / ".bench_build"))
    try:
        runner = Runner(workload, cli, workdir)
        if args.trace:
            metrics, passes, speed = traced_run(runner, args.seed, args.seconds)
        else:
            metrics, passes, speed = timed_run(runner, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "git_sha": git_sha(),
           "nproc": os.cpu_count(), "first_import_s": first_import_s, **speed,
           "items_per_pass": len(runner.items),
           "passes": passes, "attempted": runner.attempted,
           "failed": len(runner.failures),
           "failed_share": len(runner.failures) / runner.attempted}
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
