"""Self-check: two traced runs on one seed report identical counts.

Usage (from the root of a checkout):

    python3 bench/repeat_check.py --seed 7 --seconds 5

Runs ``run.py --trace 1`` twice for every workload, each in its own process
(so with its own string-hash seed), and compares every count and ratio
metric: calls, term pairs, rational products, solve cells, verdicts by
status and items.  Exits 1 and names the metric when any differ.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def traced_counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: run reported failures\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args()
    from workloads import WORKLOADS
    differ = []
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        bad = [n for n in first if first[n] != second.get(n)]
        differ += [f"{workload} {n}: {first[n]} vs {second.get(n)}" for n in bad]
        print(f"{workload}: {len(first) - len(bad)} of {len(first)} counts equal")
    for line in differ:
        print("DIFFERS", line)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
