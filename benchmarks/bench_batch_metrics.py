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
After an untimed warm-up run, two timed runs per configuration alternate
which configuration runs first, and each column reports its faster run.
Row fidelity is asserted against the reference backend at a small parity
point (the ``tests/engine`` conformance suite pins it exhaustively; the
assertion here keeps the benchmark honest on its own).
"""

from __future__ import annotations

import time

from repro.core.api import run_tree_aa
from repro.observability import MetricsCollector
from repro.trees import figure_tree

#: Batch sizes for the overhead table.  The acceptance point is the
#: largest: the collector must ride along at n = 100,000.
BATCH_SIZES = [1_000, 10_000, 100_000]

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
        for n in BATCH_SIZES:
            # One untimed run fills the (n, t)-keyed round-budget table and
            # every other lazy cache; the timed runs then alternate which
            # configuration goes first, and each column keeps its faster
            # run, so neither side is timed warmer than the other.
            timed_run(tree, n, "batch", with_metrics=False)
            seconds = {False: [], True: []}
            for order in ((False, True), (True, False)):
                for with_metrics in order:
                    elapsed, run_outcome, run_collector = timed_run(
                        tree, n, "batch", with_metrics=with_metrics
                    )
                    seconds[with_metrics].append(elapsed)
                    if with_metrics:
                        outcome, collector = run_outcome, run_collector
                    else:
                        bare_outcome = run_outcome
            bare_seconds, metric_seconds = min(seconds[False]), min(seconds[True])
            assert outcome.achieved_aa
            assert outcome.execution.outputs == bare_outcome.execution.outputs
            assert len(collector.rounds) == outcome.rounds
            assert collector.rounds[-1].hull_diameter == 0
            rows.append(
                [
                    n,
                    max(1, n // 4),
                    outcome.rounds,
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
        ["n", "t", "rounds", "batch s", "batch+metrics s", "overhead"],
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
            "Each time is the faster of two runs that alternate which\n"
            "configuration goes first, after one untimed warm-up run."
        ),
    )
