"""One workload in one process: set up, run the timed window, check it.

``run.py`` starts this file once per set-up sample (``--role setup``:
stop at the first timed op) and once for the measured run (``--role
main``).  The last line of standard output is one JSON object for
``run.py`` to read.

With ``--trace 1`` the wrappers of :mod:`tracing` are installed after
the warm-up, and the report carries the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from common import PassResult, RunContext

HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed and run length whose digests and counts ``pinned.json`` holds.
PINNED_FILE = os.path.join(HERE, "pinned.json")


def check_pinned(workload: str, ctx: RunContext, result: PassResult) -> List[str]:
    """Compare a pass's digest (and counts, when traced) with ``pinned.json``.

    Only the seed and run length the file names are pinned; other runs
    are held to the workloads' own checks.
    """
    with open(PINNED_FILE) as handle:
        entry = json.load(handle).get(workload)
    if not entry or (entry["seed"], entry["seconds"]) != (ctx.seed, ctx.seconds):
        return []
    problems = []
    if result.digest != entry["digest"]:
        problems.append(f"output digest {result.digest} != pinned {entry['digest']}")
    for name, value in result.counts.items():
        if value != entry["counts"][name]:
            problems.append(f"{name} = {value} != pinned {entry['counts'][name]}")
    return problems


def load_workload(name: str, ctx: RunContext) -> Any:
    """The workload object called *name*."""
    if name == "flywheel-mix":
        from flywheel_mix import FlywheelMix

        return FlywheelMix(ctx)
    if name == "service-grid":
        from service_grid import ServiceGrid

        return ServiceGrid(ctx)
    if name == "batch-scale":
        from batch_scale import BatchScale

        return BatchScale(ctx)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), default="main")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--started-at", type=float, required=True)
    args = parser.parse_args(argv)

    ctx = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        run_dir=args.run_dir,
        started_at=args.started_at,
    )
    workload = load_workload(args.workload, ctx)
    try:
        workload.setup()
        if args.role == "setup":
            ctx.mark_first_op()
            print(json.dumps({"setup_s": ctx.setup_s}))
            return 0
        result = workload.run_pass()
    finally:
        workload.close()

    report: Dict[str, Any] = {
        "problems": result.problems + check_pinned(args.workload, ctx, result),
        "attempted": result.attempted,
        "failed": result.failed,
        "digest": result.digest,
        "setup_s": ctx.setup_s,
        "throughput_ops_s": result.throughput,
        "peak_rss_mb": result.peak_rss_mb,
        "latencies_ms": result.latencies_ms,
        "layers": result.layers,
        "counts": result.counts,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
