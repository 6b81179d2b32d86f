"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from digest import rows_digest
from metrics import END_TO_END, PER_LAYER
from service_grid import POINTS_PER_JOB, POLL_INTERVAL_S, RESUBMIT_EVERY, latency_guard, plan
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fake_clock(*ticks: int):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_nested_children():
    # outer [0, 100) holds a [10, 40) and b [50, 70); b holds c [55, 60).
    tracer = Tracer(clock=_fake_clock(0, 10, 40, 50, 55, 60, 70, 100))
    outer = tracer.enter("outer")
    a = tracer.enter("a")
    tracer.exit(a, record=True)
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c, record=True)
    tracer.exit(b, record=True)
    tracer.exit(outer, record=True)

    stats = tracer.stats()
    assert stats["outer"] == (1, 100, 50)
    assert stats["a"] == (1, 30, 30)
    assert stats["b"] == (1, 20, 15)
    assert stats["c"] == (1, 5, 5)
    parents = {span[0]: span[3] for span in tracer.spans()}
    assert parents == {"a": "outer", "c": "b", "b": "outer", "outer": None}


def test_self_time_accumulates_over_calls_and_wrapped_functions():
    tracer = Tracer(clock=_fake_clock(0, 2, 5, 9, 12, 20))

    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer", record=True)()
    stats = tracer.stats()
    assert stats["inner"] == (2, 6, 6)
    assert stats["outer"] == (1, 20, 14)


def test_digest_ignores_wall_seconds_but_catches_a_flipped_verdict():
    trace = "\n".join(
        json.dumps(record)
        for record in ({"type": "round", "round": 0, "wall_seconds": 0.5}, {"type": "footer"})
    )
    row = {
        "ok": True,
        "rounds": 9,
        "verdicts": {"terminated": True, "valid": True, "agreement": True},
        "wall_seconds": 1.25,
        "trace_jsonl": trace,
    }
    slower = json.loads(json.dumps(row))
    slower["wall_seconds"] = 7.0
    slower["trace_jsonl"] = trace.replace("0.5", "3.5")
    assert rows_digest([row]) == rows_digest([slower])

    flipped = json.loads(json.dumps(row))
    flipped["verdicts"]["agreement"] = False
    assert rows_digest([row]) != rows_digest([flipped])


def test_latency_guard_fails_medians_near_the_poll_interval():
    floor_ms = 10 * POLL_INTERVAL_S * 1e3
    assert latency_guard(floor_ms * 0.99)
    assert latency_guard(floor_ms) == []
    assert latency_guard(120.0) == []


def test_service_plan_resubmits_exactly_the_planned_share():
    jobs = plan(seed=3, count=40, stream_seed=3)
    resubmitted = [job for job in jobs if job.resubmit]
    assert len(resubmitted) == 40 // RESUBMIT_EVERY
    fresh = [job for job in jobs if not job.resubmit]
    fresh_points = [json.dumps(point, sort_keys=True) for job in fresh for point in job.points]
    assert len(set(fresh_points)) == len(fresh_points) == len(fresh) * POINTS_PER_JOB
    for job in resubmitted:
        assert any(job.points is earlier.points for earlier in fresh)
    assert plan(seed=3, count=40, stream_seed=3)[7].points == jobs[7].points


def test_benchmark_json_names_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == PER_LAYER
    assert [w["name"] for w in benchmark["workloads"]] == [
        "flywheel-mix", "service-grid", "batch-scale",
    ]


_ROWS_SCRIPT = """
from repro.analysis.strategies import spec_stream
from repro.flywheel.oracles import evaluate_point
from digest import rows_digest
print(rows_digest(evaluate_point(spec) for spec in spec_stream(7, 200)))
"""


def test_flywheel_rows_hash_identically_across_processes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    digests = []
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        done = subprocess.run(
            [sys.executable, "-c", _ROWS_SCRIPT],
            env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=300,
        )
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64
