"""flywheel-mix: one cold flywheel campaign, in process.

An op is one campaign point: a ``spec_stream(seed, N)`` scenario run on
the reference simulator and the batch engine and judged by every
flywheel oracle.  The campaign runs with ``jobs=1`` on a fresh ledger
and sweep cache, so no point is served from a cache.  This is the
ROADMAP's "flywheel points/s"; most of its time is the reference
simulator (``repro.net`` and ``repro.protocols``).
"""

from __future__ import annotations

import os
import time
from typing import List

from common import PassResult, RunContext, record_layers, self_peak_rss_mb

#: Points per second of ``--seconds``.  A 2-vCPU x86-64 VM runs about
#: 150 points/s, so the window lasts about 1.3 x ``--seconds``: enough
#: points that the spread of point costs within the stream moves the
#: median point latency by under 8% from seed to seed.
POINTS_PER_SECOND = 200

#: Warm-up points, drawn from a stream no timed point comes from.
WARMUP_POINTS = 20
WARMUP_STREAM_OFFSET = 1_000_003


class FlywheelMix:

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.count = POINTS_PER_SECOND * ctx.seconds
        self.latencies: List[float] = []
        self.tracer = None

    def setup(self) -> None:
        from repro.analysis.parallel import get_runner, register_runner
        from repro.flywheel.engine import FlywheelConfig, run_flywheel

        self.run_flywheel = run_flywheel
        self.config = FlywheelConfig
        # Each point's latency: the campaign's point runner, re-registered
        # under its own name with two clock reads around it.
        point = get_runner("flywheel-point")
        latencies = self.latencies

        def timed_point(params, seed):
            started = time.perf_counter()
            row = point(params, seed)
            latencies.append((time.perf_counter() - started) * 1e3)
            return row

        register_runner("flywheel-point")(timed_point)
        warm = self.ctx.fresh_dir("warmup")
        self._campaign(self.ctx.seed + WARMUP_STREAM_OFFSET, WARMUP_POINTS, warm)

    def _campaign(self, seed: int, count: int, directory: str):
        config = self.config(
            seed=seed,
            count=count,
            ledger_path=os.path.join(directory, "ledger.jsonl"),
            cache_dir=os.path.join(directory, "cache"),
            jobs=1,
        )
        return self.run_flywheel(config), config

    def run_pass(self) -> PassResult:
        from digest import rows_digest
        from repro.analysis.parallel import SweepCache
        from repro.flywheel.ledger import read_ledger

        if self.ctx.traced:
            from tracing import Tracer, instrument

            self.tracer = Tracer()
            instrument(self.tracer)
        directory = self.ctx.fresh_dir("timed")
        del self.latencies[:]
        self.ctx.mark_first_op()
        started = time.perf_counter()
        report, config = self._campaign(self.ctx.seed, self.count, directory)
        elapsed = time.perf_counter() - started
        peak = self_peak_rss_mb()

        rows = {
            record["index"]: record["row"]
            for record in read_ledger(config.ledger_path)
            if record.get("type") == "point"
        }
        problems: List[str] = []
        if sorted(rows) != list(range(self.count)) or report.executed != self.count:
            problems.append(f"ledger holds {len(rows)} of {self.count} points")
        failed = sum(1 for row in rows.values() if not row.get("ok", False))
        cached = len(SweepCache(config.cache_dir))
        if cached != self.count:
            # Every point must have been computed: a cold cache gets one
            # entry per point, and a hit would leave one missing.
            problems.append(f"cache holds {cached} rows for {self.count} points")
        result = PassResult(
            elapsed_s=elapsed,
            attempted=self.count,
            failed=failed,
            digest=rows_digest(rows[i] for i in sorted(rows)),
            problems=problems,
            latencies_ms=list(self.latencies),
            peak_rss_mb=peak,
        )
        if self.tracer is not None:
            record_layers(result, self.tracer.dump())
            hit_ratio = result.layers["analysis.cache.hit_ratio"]
            if hit_ratio != 0:
                result.problems.append(f"analysis.cache.hit_ratio is {hit_ratio}, not 0")
        return result

    def close(self) -> None:
        pass
