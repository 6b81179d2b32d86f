"""Experiment S2: metrics collection overhead on the batch backend.

``BatchMetrics`` (:mod:`repro.engine.metrics`) replays a reference
``MetricsCollector``'s per-round rows from the batch engine's round
reductions instead of walking per-message objects.  That is what makes
structured observability affordable at scale: the reference simulator
with a collector attached takes *minutes* at ``n = 256`` (every message
is materialised and its payload walked), while the batch engine carries
the same collector to ``n = 100,000`` in seconds.

This experiment measures what the replayed collector costs on the batch
side: fault-free TreeAA executions per size with and without a
``MetricsCollector(tree=...)`` attached, for ``n = 1,000 … 100,000``.
After an untimed warm-up run, each size repeats a fixed number of
(bare, metrics) run pairs, alternating which configuration runs first,
so that every column covers at least about a second of runs; each column
reports its median run.  (Single ~12 ms runs measured VM noise, not the
collector.)
Row fidelity is asserted against the reference backend at a small parity
point (the ``tests/engine`` conformance suite pins it exhaustively; the
assertion here keeps the benchmark honest on its own).
"""

from __future__ import annotations

import statistics
import time

from repro.core.api import run_tree_aa
from repro.observability import MetricsCollector
from repro.trees import figure_tree

#: Batch sizes for the overhead table, each with its number of timed run
#: pairs (a run takes ~12 ms at n = 1,000 and ~1.7 s at n = 100,000).
#: The acceptance point is the largest: the collector must ride along at
#: n = 100,000.
REPEATS = {1_000: 100, 10_000: 10, 100_000: 3}

#: Where reference and batch rows are compared field-by-field.  The
#: reference simulator with a collector attached is minutes-per-run by
#: n = 256, so the parity point stays small.
PARITY_N = 64


def bimodal_inputs(n: int) -> list:
    """Half the parties at v3, half at v8 — opposite ends of Figure 3."""
    return ["v3" if i % 2 == 0 else "v8" for i in range(n)]


def comparable_rows(collector: MetricsCollector) -> list:
    """The collector's rows minus ``wall_seconds`` (non-deterministic)."""
    rows = []
    for row in collector.rounds:
        fields = dict(row.__dict__)
        fields.pop("wall_seconds", None)
        rows.append(fields)
    return rows


def timed_run(tree, n: int, backend: str, with_metrics: bool):
    """(wall seconds, outcome, collector) of one fault-free TreeAA run."""
    collector = MetricsCollector(tree=tree) if with_metrics else None
    started = time.perf_counter()
    outcome = run_tree_aa(
        tree,
        bimodal_inputs(n),
        max(1, n // 4),
        observer=collector,
        backend=backend,
    )
    return time.perf_counter() - started, outcome, collector


def test_s2_table(report, benchmark):
    tree = figure_tree()

    def sweep():
        # Parity gate: the batch collector's rows must be the reference
        # collector's rows, wall clock aside, before its speed means
        # anything.
        _, ref_outcome, ref_collector = timed_run(
            tree, PARITY_N, "reference", with_metrics=True
        )
        _, batch_outcome, batch_collector = timed_run(
            tree, PARITY_N, "batch", with_metrics=True
        )
        assert (
            ref_outcome.execution.outputs == batch_outcome.execution.outputs
        )
        assert comparable_rows(ref_collector) == comparable_rows(
            batch_collector
        )

        rows = []
        for n, repeats in REPEATS.items():
            # One untimed run fills the (n, t)-keyed round-budget table and
            # every other lazy cache; the timed pairs then alternate which
            # configuration goes first, and each column keeps its median
            # run, so neither side is timed warmer than the other.
            timed_run(tree, n, "batch", with_metrics=False)
            seconds = {False: [], True: []}
            for rep in range(repeats):
                order = (False, True) if rep % 2 == 0 else (True, False)
                for with_metrics in order:
                    elapsed, run_outcome, run_collector = timed_run(
                        tree, n, "batch", with_metrics=with_metrics
                    )
                    seconds[with_metrics].append(elapsed)
                    if with_metrics:
                        outcome, collector = run_outcome, run_collector
                    else:
                        bare_outcome = run_outcome
            bare_seconds = statistics.median(seconds[False])
            metric_seconds = statistics.median(seconds[True])
            assert outcome.achieved_aa
            assert outcome.execution.outputs == bare_outcome.execution.outputs
            assert len(collector.rounds) == outcome.rounds
            assert collector.rounds[-1].hull_diameter == 0
            rows.append(
                [
                    n,
                    max(1, n // 4),
                    outcome.rounds,
                    repeats,
                    f"{bare_seconds:.4f}",
                    f"{metric_seconds:.4f}",
                    f"{metric_seconds / bare_seconds:.2f}x",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.table(
        "S2",
        "TreeAA batch engine: metrics collection overhead",
        ["n", "t", "rounds", "runs", "batch s", "batch+metrics s", "overhead"],
        rows,
        notes=(
            "Fault-free TreeAA on the Figure-3 tree, bimodal v3/v8\n"
            "inputs, backend=batch.  The metrics column attaches\n"
            "MetricsCollector(tree=...), replayed by BatchMetrics from\n"
            "round reductions; rows are asserted identical to the\n"
            "reference collector's at n = 64 (and pinned across seeds,\n"
            "adversaries, and fault plans by tests/engine/).  The\n"
            "reference simulator with the same collector attached is\n"
            "minutes-per-run by n = 256 — off this chart entirely.\n"
            "Each time is the median of `runs` runs per column, taken\n"
            "as pairs that alternate which configuration goes first,\n"
            "after one untimed warm-up run.  Target: <= 1.2x at\n"
            "n = 100,000."
        ),
    )
