"""Repeat workloads and report each end-to-end metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --runs 10 [--workload service-grid ...] [--first-seed 1]

Runs ``run.py`` once per seed (``first-seed`` upwards, one seed per
run) for each workload and prints, per end-to-end metric, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median next to the metric's bound in
``BENCHMARK.json``.  Exits non-zero if any run fails or reports a wrong
output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        runs: List[Dict[str, float]] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})", flush=True)
                continue
            values = {name: metric["value"] for name, metric in result["metrics"].items()}
            runs.append(values)
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed, "
                  + ", ".join(f"{name}={value:.4g}" for name, value in values.items()), flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:18} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} {bound:6.0%}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
