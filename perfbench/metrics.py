"""Metric names, units, and the per-layer values a traced pass yields.

``BENCHMARK.json`` lists the same names; ``test_harness.py`` checks that
the two agree.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END: Dict[str, str] = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER: Dict[str, str] = {
    "net.run_protocol.self_ms": "ms",
    "net.executions": "count",
    "net.rounds": "count",
    "net.messages": "count",
    "net.payload_units": "count",
    "net.payload_units.calls": "count",
    "net.payload_units.self_ms": "ms",
    "protocols.gradecast.self_ms": "ms",
    "protocols.gradecast.calls": "count",
    "protocols.is_real.calls": "count",
    "trees.build.self_ms": "ms",
    "trees.euler.calls": "count",
    "trees.euler.self_ms": "ms",
    "core.evaluate.self_ms": "ms",
    "engine.run.self_ms": "ms",
    "engine.class_phase.self_ms": "ms",
    "engine.dense_phase.self_ms": "ms",
    "engine.class.executions": "count",
    "engine.dense.executions": "count",
    "engine.metrics.self_ms": "ms",
    "baselines.cross_protocol.self_ms": "ms",
    "observability.export.self_ms": "ms",
    "observability.collector.self_ms": "ms",
    "analysis.cache.get.calls": "count",
    "analysis.cache.get.self_ms": "ms",
    "analysis.cache.put.self_ms": "ms",
    "analysis.cache.hit_ratio": "ratio",
    "analysis.spec_codec.self_ms": "ms",
    "analysis.run_grid.self_ms": "ms",
    "analysis.sweep_jsonl.self_ms": "ms",
    "flywheel.point.p50_ms": "ms",
    "flywheel.point.p90_ms": "ms",
    "flywheel.oracle.execution.self_ms": "ms",
    "flywheel.oracle.backend-parity.self_ms": "ms",
    "flywheel.oracle.metrics-parity.self_ms": "ms",
    "flywheel.oracle.cross-protocol.self_ms": "ms",
    "flywheel.oracle.round-bound.self_ms": "ms",
    "flywheel.ledger.append.calls": "count",
    "flywheel.ledger.append.self_ms": "ms",
    "flywheel.divergences": "count",
    "service.http.submit_ms": "ms",
    "service.http.poll_ms": "ms",
    "service.http.results_ms": "ms",
    "service.http.polls_per_job": "count",
    "service.queue_wait_ms": "ms",
    "service.job.fresh_ms": "ms",
    "service.job.cached_ms": "ms",
    "service.worker.execute.self_ms": "ms",
    "service.journal.append.calls": "count",
    "service.journal.append.self_ms": "ms",
    "service.persist.self_ms": "ms",
    "service.points.cached_ratio": "ratio",
    "service.latency.attributed_share": "ratio",
    "service.retries": "count",
    "service.failed_points": "count",
    "trace.throughput_ops_s": "1/s",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics that are medians or ratios, not totals: the
#: per-op column does not apply to them.
NOT_SUMMED = {
    name
    for name in PER_LAYER
    if name.endswith(("_ratio", "_share", "p50_ms", "p90_ms", "_pct", "_ops_s"))
    or name.startswith("service.http.")
    or name in ("service.queue_wait_ms", "service.job.fresh_ms", "service.job.cached_ms")
}

#: Why a layer reads 0 on a workload that never reaches it.
NOT_APPLICABLE: Dict[str, Sequence[Tuple[str, str]]] = {
    "flywheel-mix": (
        ("service.", "no scenario service in this workload"),
    ),
    "service-grid": (
        ("flywheel.", "the service runs plain spec points, not flywheel oracles"),
        ("baselines.", "the cross-protocol oracle is a flywheel oracle"),
        ("engine.", "stream points run on the reference backend"),
        ("analysis.run_grid", "the worker executes points itself, not through run_grid"),
    ),
    "batch-scale": (
        ("net.", "batch-scale never touches the reference simulator"),
        ("protocols.", "batch-scale never touches the reference simulator"),
        ("baselines.", "the cross-protocol oracle is a flywheel oracle"),
        ("flywheel.", "no flywheel campaign in this workload"),
        ("service.", "no scenario service in this workload"),
        ("analysis.cache", "ops call execute_spec_point directly, without the sweep cache"),
        ("analysis.run_grid", "ops call execute_spec_point directly, without run_grid"),
        ("analysis.sweep_jsonl", "ops call execute_spec_point directly, without sweep JSONL"),
        ("engine.dense", "no op needs the dense engine"),
    ),
}


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (``statistics.quantiles``, exclusive method)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100)[q - 1])


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_values(dump: Mapping[str, Any]) -> Dict[str, float]:
    """Per-layer values of every in-process layer from one traced pass.

    *dump* is a :meth:`tracing.Tracer.dump`: ``stats`` maps span names
    to ``(calls, total_ns, self_ns)``, ``counters`` holds counts, and
    ``spans`` are recorded ``(name, start, end, parent, op, self_ns)``.
    """
    stats, counters, spans = dump["stats"], dump["counters"], dump["spans"]

    def calls(name: str) -> int:
        return int(stats.get(name, (0, 0, 0))[0])

    def self_ms(name: str) -> float:
        return _ms(stats.get(name, (0, 0, 0))[2])

    hits = counters.get("analysis.cache.hits", 0)
    misses = counters.get("analysis.cache.misses", 0)
    points = [_ms(span[2] - span[1]) for span in spans if span[0] == "flywheel.point"]
    values: Dict[str, float] = {
        "net.run_protocol.self_ms": self_ms("net.run_protocol"),
        "net.executions": calls("net.run_protocol"),
        "net.rounds": counters.get("net.rounds", 0),
        "net.messages": counters.get("net.messages", 0),
        "net.payload_units": counters.get("net.payload_units", 0),
        "net.payload_units.calls": calls("net.payload_units"),
        "net.payload_units.self_ms": self_ms("net.payload_units"),
        "protocols.gradecast.self_ms": self_ms("protocols.gradecast"),
        "protocols.gradecast.calls": calls("protocols.gradecast"),
        "protocols.is_real.calls": counters.get("protocols.is_real.calls", 0),
        "trees.build.self_ms": self_ms("trees.build"),
        "trees.euler.calls": calls("trees.euler"),
        "trees.euler.self_ms": self_ms("trees.euler"),
        "core.evaluate.self_ms": self_ms("core.evaluate"),
        "engine.run.self_ms": self_ms("engine.run"),
        "engine.class_phase.self_ms": self_ms("engine.class_phase"),
        "engine.dense_phase.self_ms": self_ms("engine.dense_phase"),
        "engine.class.executions": calls("engine.class_phase"),
        "engine.dense.executions": calls("engine.dense_phase"),
        "engine.metrics.self_ms": self_ms("engine.metrics"),
        "baselines.cross_protocol.self_ms": self_ms("baselines.cross_protocol"),
        "observability.export.self_ms": self_ms("observability.export"),
        "observability.collector.self_ms": self_ms("observability.collector"),
        "analysis.cache.get.calls": calls("analysis.cache.get"),
        "analysis.cache.get.self_ms": self_ms("analysis.cache.get"),
        "analysis.cache.put.self_ms": self_ms("analysis.cache.put"),
        "analysis.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "analysis.spec_codec.self_ms": self_ms("analysis.spec_codec"),
        "analysis.run_grid.self_ms": self_ms("analysis.run_grid"),
        "analysis.sweep_jsonl.self_ms": self_ms("analysis.sweep_jsonl"),
        "flywheel.point.p50_ms": percentile(points, 50),
        "flywheel.point.p90_ms": percentile(points, 90),
        "flywheel.ledger.append.calls": calls("flywheel.ledger.append"),
        "flywheel.ledger.append.self_ms": self_ms("flywheel.ledger.append"),
        "flywheel.divergences": counters.get("flywheel.divergences", 0),
    }
    for oracle in ("execution", "backend-parity", "metrics-parity", "cross-protocol", "round-bound"):
        values[f"flywheel.oracle.{oracle}.self_ms"] = self_ms(f"flywheel.oracle.{oracle}")
    return values


def merge_dumps(*dumps: Mapping[str, Any]) -> Dict[str, Any]:
    """Sum the ``stats``/``counters`` and join the ``spans`` of tracer dumps."""
    stats: Dict[str, List[int]] = {}
    counters: Dict[str, float] = {}
    spans: List[Any] = []
    for dump in dumps:
        for name, entry in dump["stats"].items():
            total = stats.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += entry[i]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans.extend(dump["spans"])
    return {"stats": stats, "counters": counters, "spans": spans}


def not_applicable(workload: str, name: str) -> str:
    """Why *name* does not apply to *workload* ('' when it does)."""
    for prefix, reason in NOT_APPLICABLE.get(workload, ()):
        if name.startswith(prefix):
            return reason
    return ""
