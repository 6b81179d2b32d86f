"""batch-scale: large-n executions on the class-collapsed batch engine.

An op is one ``ScenarioSpec(backend="batch")`` run through
``execute_spec_point`` on the paper's Figure-3 tree.  The list mixes
how much work parties share:

* bimodal v3/v8 TreeAA inputs at n = 30,000 (two input classes), once
  plain and once with ``record=True`` (``BatchMetrics`` and
  ``export_run``);
* seeded spread TreeAA inputs with ``silent`` (most of the ops) and
  ``crash`` adversaries at n = 3,000 (many classes);
* RealAA and projected path AA at n = 6,000.

It never touches the reference simulator.  Most of its time is batch
view materialisation in ``repro.engine.backend``, the ROADMAP's batch
target.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from common import PassResult, RunContext, record_layers, self_peak_rss_mb

BIG_N = 30_000
SPREAD_N = 3_000
LINE_N = 6_000


def silent_ops(seconds: int) -> int:
    """``silent`` ops at n = SPREAD_N for a run of *seconds*.

    Three ops cost more than a ``silent`` one: the two at n = BIG_N and
    the ``crash`` one.  At 10 seconds, 55 ``silent`` ops make 60 in all,
    so that ``latency_p90_ms`` falls among the cheap ops a few ranks
    below their most expensive one (the rank most sensitive to which
    inputs a seed drew), and ``latency_p50_ms`` in their middle.  On a
    2-vCPU x86-64 VM a ``silent`` op takes about 0.25 s and the rest
    about 7 s, so that run lasts about 21 s.
    """
    return 5 * seconds + 5


def _t(n: int) -> int:
    return (n - 1) // 3


def op_list(seed: int, seconds: int, scale: int = 1) -> List[Any]:
    """The seeded op list (*scale* divides every n, for the warm-up)."""
    from repro.analysis.spec import ScenarioSpec

    rng = random.Random(seed)
    big, spread, line = BIG_N // scale, SPREAD_N // scale, LINE_N // scale
    bimodal = ["v3" if i % 2 == 0 else "v8" for i in range(big)]
    rng.shuffle(bimodal)
    ops = [
        ScenarioSpec(
            protocol="tree-aa", n=big, t=_t(big), tree="figure",
            inputs=tuple(bimodal), backend="batch", record=record,
            seed=rng.randrange(2**31),
        )
        for record in (False, True)
    ]
    for _ in range(silent_ops(seconds)):
        ops.append(ScenarioSpec(
            protocol="tree-aa", n=spread, t=_t(spread), tree="figure",
            adversary="silent", backend="batch", seed=rng.randrange(2**31),
        ))
    ops.append(ScenarioSpec(
        protocol="tree-aa", n=spread, t=_t(spread), tree="figure",
        adversary=f"crash:{rng.randint(0, 6)}:{rng.randint(0, spread)}",
        backend="batch", seed=rng.randrange(2**31),
    ))
    ops.append(ScenarioSpec(
        protocol="real-aa", n=line, t=_t(line), backend="batch",
        known_range=8.0, seed=rng.randrange(2**31),
    ))
    ops.append(ScenarioSpec(
        protocol="path-aa", n=line, t=_t(line), tree="figure", project=True,
        backend="batch", seed=rng.randrange(2**31),
    ))
    return ops


class BatchScale:

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.tracer = None

    def setup(self) -> None:
        from repro.analysis.spec import execute_spec_point

        self.execute = execute_spec_point
        self.ops = op_list(self.ctx.seed, self.ctx.seconds)
        # Warm-up: the same kinds of op at a hundredth of the size, on
        # another seed, so imports and first calls happen before timing.
        for spec in op_list(self.ctx.seed + 1, 1, scale=100):
            self.execute(spec)

    def run_pass(self) -> PassResult:
        from digest import rows_digest

        if self.ctx.traced:
            from tracing import Tracer, instrument

            self.tracer = Tracer()
            instrument(self.tracer)
        rows: List[Dict[str, Any]] = []
        latencies: List[float] = []
        problems: List[str] = []
        failed = 0
        self.ctx.mark_first_op()
        started = time.perf_counter()
        for index, spec in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.set_op(index)
            op_started = time.perf_counter()
            try:
                row = self.execute(spec)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                row = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append((time.perf_counter() - op_started) * 1e3)
            if not row.get("ok", False):
                failed += 1
                problems.append(f"op {index} ({spec.protocol} n={spec.n} {spec.adversary}) failed: {row.get('error', row.get('verdicts'))}")
            rows.append(row)
        elapsed = time.perf_counter() - started
        result = PassResult(
            elapsed_s=elapsed,
            attempted=len(self.ops),
            failed=failed,
            digest=rows_digest(rows),
            problems=problems,
            latencies_ms=latencies,
            peak_rss_mb=self_peak_rss_mb(),
        )
        if self.tracer is not None:
            record_layers(result, self.tracer.dump())
        return result

    def close(self) -> None:
        pass
