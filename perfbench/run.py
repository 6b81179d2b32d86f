"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flywheel-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the op
list twice, each time in a fresh process: untraced, then traced; it
prints the per-layer metrics of the traced pass and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every op succeeded and
every output check passed.

Each workload runs in a child process (``workload.py``), so its peak
RSS is its own.  ``setup_s`` is the median over several children that
stop at the first timed op, plus the measured child itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, NOT_SUMMED, PER_LAYER, not_applicable, percentile  # noqa: E402

WORKLOADS = ("flywheel-mix", "service-grid", "batch-scale")

#: Set-up samples per untraced run (children stopping at the first timed
#: op), on top of the measured child's own set-up.
SETUP_SAMPLES = 4

#: Where runs keep their fresh caches, ledgers and data directories.
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def build() -> None:
    """Byte-compile the sources, so no run pays for compilation."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchmarkError(f"no repro package under {src}")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", src, HERE],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        timeout=600,
    )
    if done.returncode != 0:
        raise BenchmarkError("compileall failed")


def child(args: argparse.Namespace, trace: int, role: str, run_dir: str, timeout: float) -> Dict[str, Any]:
    """Run ``workload.py`` once; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    os.makedirs(run_dir)
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--role", role,
        "--run-dir", run_dir,
    ]
    started = time.monotonic()
    done = subprocess.run(
        command + ["--started-at", repr(started)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"{role} child exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{role} child printed nothing")
    return json.loads(lines[-1])


def end_to_end(report: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    latencies = report["latencies_ms"]
    return {
        "throughput_ops_s": report["throughput_ops_s"],
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def print_layers(workload: str, layers: Dict[str, float], ops: int) -> None:
    print(f"{'per-layer metric':42} {'total':>14} {'per op':>12}  unit")
    for name, unit in PER_LAYER.items():
        value = layers[name]
        per_op = "" if name in NOT_SUMMED else f"{value / ops:12.4f}"
        note = not_applicable(workload, name) if value == 0 else ""
        note = f"  (n/a: {note})" if note else ""
        print(f"{name:42} {value:14.4f} {per_op:>12}  {unit}{note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        build()
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    reports: List[Dict[str, Any]] = []
    setups: List[float] = []
    try:
        if args.trace:
            # The traced pass runs in a process of its own, so that both
            # passes start from the same cold state.
            reports.append(child(args, 0, "main", os.path.join(base, "untraced"), 65))
            reports.append(child(args, 1, "main", os.path.join(base, "traced"), 105))
        else:
            for sample in range(SETUP_SAMPLES):
                setups.append(child(args, 0, "setup", os.path.join(base, f"setup{sample}"), 20)["setup_s"])
            reports.append(child(args, 0, "main", os.path.join(base, "main"), 90))
    except (BenchmarkError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass

    report = reports[-1]
    problems = [problem for each in reports for problem in each["problems"]]
    attempted = sum(each["attempted"] for each in reports)
    failed = sum(each["failed"] for each in reports)
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    if reports[0]["digest"] != report["digest"]:
        problems.append("the traced pass's outputs differ from the untraced pass's")
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds}: "
          f"{attempted} ops attempted, {failed} failed, digest {report['digest']}")
    if args.trace:
        print("exact counts: " + ", ".join(f"{name}={value}" for name, value in report["counts"].items()))
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(report["layers"])
        layers["trace.throughput_ops_s"] = report["throughput_ops_s"]
        layers["trace.overhead_pct"] = 100.0 * (reports[0]["throughput_ops_s"] / report["throughput_ops_s"] - 1.0)
        print_layers(args.workload, layers, report["attempted"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        setups.append(report["setup_s"])
        values = end_to_end(report, setups)
        for name, unit in END_TO_END.items():
            print(f"{name:20} {values[name]:14.4f}  {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
