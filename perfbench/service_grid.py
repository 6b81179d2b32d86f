"""service-grid: one closed-loop client against ``repro serve --jobs 1``.

The server runs in its own process with fresh ``--cache-dir`` and
``--data-dir``.  The client submits one job, polls it every
:data:`POLL_INTERVAL_S` until it is terminal, and only then sends the
next: the way ``repro submit --wait`` and ``ServiceClient.wait`` users
work.  An op is one job of :data:`POINTS_PER_JOB` ``spec_stream``
points.

* Three jobs in four are fresh points: execution, cache put, journal
  and JSONL persistence (the write paths).
* Every fourth job resubmits an earlier job's points, so the cache
  serves all of it (the read path).
* Every :data:`QUERY_EVERY`-th job is followed by a ``GET /results``
  query, whose answer is checked against the rows of every job so far.

Latency runs from the submit to the first poll that sees the job
terminal, so it includes at most one poll interval; the interval is
kept far below a job's duration.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from common import PassResult, RunContext, record_layers

HERE = os.path.dirname(os.path.abspath(__file__))

#: Jobs per second of ``--seconds`` (the rate measured on a 2-vCPU
#: x86-64 VM), so that the timed window lasts about ``--seconds``.
JOBS_PER_SECOND = 12
POINTS_PER_JOB = 24
#: Every RESUBMIT_EVERY-th job repeats an earlier job's points.
RESUBMIT_EVERY = 4
QUERY_EVERY = 5
#: The client's poll interval; ``latency_p50_ms`` must stay at least
#: LATENCY_GUARD times this, or a latency change could be a poll artefact.
POLL_INTERVAL_S = 0.005
LATENCY_GUARD = 10
#: Warm-up jobs, from a stream no timed point comes from.
WARMUP_JOBS = 2
WARMUP_STREAM_OFFSET = 1_000_003
#: ``GET /results`` filters the queries draw from.
QUERY_FILTERS = (
    {"protocol": "tree-aa", "adversary": "silent"},
    {"protocol": "real-aa", "t": "2"},
    {"protocol": "path-aa", "ok": "true"},
    {"adversary": "crash", "t": "1"},
)


def latency_guard(p50_ms: float, poll_interval_s: float = POLL_INTERVAL_S) -> List[str]:
    """A problem when the median latency is too close to the poll interval."""
    floor_ms = LATENCY_GUARD * poll_interval_s * 1e3
    if p50_ms < floor_ms:
        return [
            f"latency_p50_ms {p50_ms:.2f} is under {LATENCY_GUARD}x the "
            f"{poll_interval_s * 1e3:g} ms poll interval"
        ]
    return []


@dataclass
class Job:
    """One planned op: its points, whether they repeat an earlier job's,
    and the ``GET /results`` filters to query after it (if any)."""

    points: List[Dict[str, Any]]
    resubmit: bool
    query: Optional[Dict[str, str]]


def plan(seed: int, count: int, stream_seed: int) -> List[Job]:
    """The seeded op list: *count* jobs (a multiple of RESUBMIT_EVERY)."""
    from repro.analysis.strategies import spec_stream

    fresh_count = count - count // RESUBMIT_EVERY
    stream = [spec.to_dict() for spec in spec_stream(stream_seed, fresh_count * POINTS_PER_JOB)]
    rng = random.Random(seed)
    jobs: List[Job] = []
    fresh: List[Job] = []
    for index in range(count):
        query = None
        if index % QUERY_EVERY == QUERY_EVERY - 1:
            query = QUERY_FILTERS[rng.randrange(len(QUERY_FILTERS))]
        if index % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
            jobs.append(Job(rng.choice(fresh).points, True, query))
        else:
            start = len(fresh) * POINTS_PER_JOB
            job = Job(stream[start : start + POINTS_PER_JOB], False, query)
            fresh.append(job)
            jobs.append(job)
    return jobs


def _matches(row: Dict[str, Any], filters: Dict[str, str]) -> bool:
    for field, wanted in filters.items():
        if field not in row:
            return False
        value = row[field]
        if (value if isinstance(value, str) else json.dumps(value)) != wanted:
            return False
    return True


class ServiceGrid:

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        count = JOBS_PER_SECOND * ctx.seconds
        self.count = max(RESUBMIT_EVERY, count - count % RESUBMIT_EVERY)
        self.server: Optional[subprocess.Popen] = None
        self.trace_out: Optional[str] = None

    # -- server ----------------------------------------------------------

    def _start_server(self, traced: bool) -> None:
        directory = self.ctx.fresh_dir("server-traced" if traced else "server")
        serve = [
            "serve", "--port", "0", "--jobs", "1",
            "--cache-dir", os.path.join(directory, "cache"),
            "--data-dir", os.path.join(directory, "data"),
        ]
        if traced:
            self.trace_out = os.path.join(directory, "trace.json")
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), self.trace_out] + serve
        else:
            command = [sys.executable, "-m", "repro"] + serve
        log_path = os.path.join(directory, "server.log")
        with open(log_path, "w") as log:
            self.server = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        url = None
        while url is None:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {log_path}")
            with open(log_path) as log:
                for line in log:
                    if line.startswith("serving on "):
                        url = line.split()[-1]
            time.sleep(0.01)
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url, timeout=60)
        while not self.client.healthy():
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def _stop_server(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        if self.server is None:
            return 0.0
        try:
            if self.server.poll() is None:
                self.client.shutdown()
            self.server.wait(timeout=60)
        except Exception:  # noqa: BLE001 - a wedged server is killed, not left behind
            self.server.kill()
            self.server.wait()
        self.server = None
        # The server is this process's only child, and was started while
        # this process was still small, so the children's peak is its own.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- workload --------------------------------------------------------

    def setup(self) -> None:
        # Start the server before importing repro here: this process is
        # small when it forks, so the children's peak RSS is the server's.
        self._start_server(traced=self.ctx.traced)
        self.jobs = plan(self.ctx.seed, self.count, self.ctx.seed)
        self.warmup = plan(self.ctx.seed + 1, WARMUP_JOBS, self.ctx.seed + WARMUP_STREAM_OFFSET)
        self._warm_up()

    def _warm_up(self) -> None:
        self.warmup_ids = []
        for job in self.warmup:
            job_id = self.client.submit({"points": job.points[: POINTS_PER_JOB // 2]})["job_id"]
            self.client.wait(job_id, timeout=60, interval=POLL_INTERVAL_S)
            self.warmup_ids.append(job_id)

    def run_pass(self) -> PassResult:
        from repro.service.client import ServiceClient, ServiceClientError

        tracer = None
        if self.ctx.traced:
            from tracing import Tracer, patch_method

            tracer = Tracer()
            patch_method(tracer, ServiceClient, "submit", "service.http.submit", record=True)
            patch_method(tracer, ServiceClient, "job", "service.http.poll", record=True)
            patch_method(tracer, ServiceClient, "query", "service.http.results", record=True)

        job_ids: List[Optional[str]] = []
        statuses: List[Optional[Dict[str, Any]]] = []
        latency_of: Dict[str, float] = {}
        answers: List[Optional[Set[Tuple[str, int]]]] = []
        errors: List[str] = []
        self.ctx.mark_first_op()
        started = time.perf_counter()
        for index, job in enumerate(self.jobs):
            op_started = time.perf_counter()
            job_id = status = None
            try:
                job_id = self.client.submit({"points": job.points})["job_id"]
                status = self.client.wait(job_id, timeout=60, interval=POLL_INTERVAL_S)
                latency_of[job_id] = (time.perf_counter() - op_started) * 1e3
                answer = None
                if job.query is not None:
                    answer = {(row["job_id"], row["index"]) for row in self.client.query(**job.query)}
            except (ServiceClientError, OSError, TimeoutError) as exc:
                errors.append(f"job {index}: {type(exc).__name__}: {exc}")
                answer = None
            job_ids.append(job_id)
            statuses.append(status)
            answers.append(answer)
        elapsed = time.perf_counter() - started

        result = self._check(job_ids, statuses, answers, errors)
        result.elapsed_s = elapsed
        result.latencies_ms = list(latency_of.values())
        peak = self._stop_server()
        if tracer is not None:
            with open(self.trace_out) as handle:
                server = json.load(handle)
            self._layers(result, tracer, server, job_ids, statuses, latency_of)
        else:
            result.peak_rss_mb = peak
            from metrics import percentile

            result.problems += latency_guard(percentile(result.latencies_ms, 50))
        return result

    def _check(self, job_ids, statuses, answers, errors) -> PassResult:
        """Outputs, counts and query answers, all read after the window."""
        from digest import rows_digest

        problems = list(errors)
        failed = 0
        rows: List[Dict[str, Any]] = []
        seen: List[Tuple[str, int, Dict[str, Any]]] = []
        for job_id in self.warmup_ids:
            for record in self.client.results(job_id):
                seen.append((job_id, record["index"], record["row"]))
        cached = 0
        for index, (job, job_id, status, answer) in enumerate(zip(self.jobs, job_ids, statuses, answers)):
            if status is None or status["status"] != "done":
                failed += 1
                problems.append(f"job {index} ended {status and status['status']}")
                continue
            counts = status["counts"]
            cached += counts["cached"]
            wanted = ("cached" if job.resubmit else "done", POINTS_PER_JOB)
            if counts[wanted[0]] != wanted[1]:
                problems.append(f"job {index} ({job_id}) counts {counts}, expected {wanted[1]} {wanted[0]}")
            for record in self.client.results(job_id):
                rows.append(record["row"])
                seen.append((job_id, record["index"], record["row"]))
            if answer is not None:
                expected = {(j, i) for j, i, row in seen if row and _matches(row, job.query)}
                if answer != expected:
                    problems.append(f"job {index}: GET /results {job.query} gave {len(answer)} rows, expected {len(expected)}")
        planned = sum(POINTS_PER_JOB for job in self.jobs if job.resubmit)
        if cached != planned:
            problems.append(f"{cached} points served from the cache, planned {planned}")
        return PassResult(
            elapsed_s=0.0,
            attempted=len(self.jobs),
            failed=failed,
            digest=rows_digest(rows),
            problems=problems,
        )

    def _layers(self, result, tracer, server, job_ids, statuses, latency_of) -> None:
        from metrics import merge_dumps, percentile

        dump = merge_dumps(server, tracer.dump())
        record_layers(result, dump)
        stats, counters, spans = dump["stats"], dump["counters"], dump["spans"]
        timed = set(job_ids)
        resubmitted = {job_id for job_id, job in zip(job_ids, self.jobs) if job.resubmit}

        def durations(name: str, ids: Set[Any]) -> Dict[Any, float]:
            return {span[4]: (span[2] - span[1]) / 1e6 for span in spans if span[0] == name and span[4] in ids}

        def client_ms(name: str) -> List[float]:
            return [(span[2] - span[1]) / 1e6 for span in spans if span[0] == name]

        jobs_ms = durations("service.job", timed)
        shares = [jobs_ms[job_id] / latency_of[job_id] for job_id in jobs_ms if job_id in latency_of]
        points = sum(status["counts"]["cached"] + status["counts"]["done"] for status in statuses if status)
        failed_points = sum(status["counts"]["failed"] for status in statuses if status)
        polls = len(client_ms("service.http.poll"))

        def self_ms(name: str) -> float:
            return stats.get(name, (0, 0, 0))[2] / 1e6

        result.layers.update({
            "service.http.submit_ms": percentile(client_ms("service.http.submit"), 50),
            "service.http.poll_ms": percentile(client_ms("service.http.poll"), 50),
            "service.http.results_ms": percentile(client_ms("service.http.results"), 50),
            "service.http.polls_per_job": polls / len(self.jobs),
            "service.queue_wait_ms": percentile(list(durations("service.queue_wait", timed).values()), 50),
            "service.job.fresh_ms": percentile([ms for j, ms in jobs_ms.items() if j not in resubmitted], 50),
            "service.job.cached_ms": percentile([ms for j, ms in jobs_ms.items() if j in resubmitted], 50),
            "service.worker.execute.self_ms": self_ms("service.worker.execute"),
            "service.journal.append.calls": stats.get("service.journal.append", (0, 0, 0))[0],
            "service.journal.append.self_ms": self_ms("service.journal.append"),
            "service.persist.self_ms": self_ms("service.persist"),
            "service.points.cached_ratio": (
                sum(status["counts"]["cached"] for status in statuses if status) / points if points else 0.0
            ),
            "service.latency.attributed_share": percentile(shares, 50),
            "service.retries": counters.get("service.point_failures", 0) - failed_points,
            "service.failed_points": failed_points,
        })
        share = result.layers["service.latency.attributed_share"]
        if share < 0.9:
            result.problems.append(f"service spans cover {share:.1%} of the median job latency, under 90%")

    def close(self) -> None:
        self._stop_server()
