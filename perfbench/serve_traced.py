"""``python -m repro serve`` with the benchmark's wrappers installed.

Usage::

    python3 perfbench/serve_traced.py TRACE_OUT serve --port 0 --jobs 1 ...

Everything after ``TRACE_OUT`` goes to ``repro.cli.main`` unchanged, so
the traced server is the same service the untraced run starts.  On top
of the in-process layer wrappers (:func:`tracing.instrument`) it times
each job from ``JobStore.create`` through the worker's dequeue
(``Worker._run_job``: the queue wait) to its terminal
``set_job_status``, plus ``Worker._execute``, the journal appends and
``Worker._persist``.  When the service stops, the spans and totals are
written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from tracing import Tracer, instrument, patch_method


def instrument_service(tracer: Tracer) -> None:
    """Wrap the service's job lifecycle, executor, journal and persistence."""
    import repro.service.worker as worker_module
    from repro.service.jobs import TERMINAL_JOB_STATES, JobStore
    from repro.service.journal import JobJournal
    from repro.service.worker import Worker

    #: job id -> [create start, create end] (clock ns).
    created: Dict[str, List[int]] = {}

    create = JobStore.create

    def timed_create(store: Any, specs: Any) -> Any:
        frame = tracer.enter("service.submit")
        try:
            job = create(store, specs)
        finally:
            tracer.exit(frame)
        created[job.job_id] = [frame[1], tracer.clock()]
        return job

    JobStore.create = timed_create

    run_job = Worker._run_job

    def timed_run_job(worker: Any, job: Any) -> Any:
        tracer.set_op(job.job_id)
        times = created.get(job.job_id)
        if times is not None:
            tracer.add_span("service.queue_wait", times[1], tracer.clock(), job.job_id)
        frame = tracer.enter("service.run_job")
        try:
            return run_job(worker, job)
        finally:
            tracer.exit(frame)

    Worker._run_job = timed_run_job

    set_job_status = JobStore.set_job_status

    def timed_set_job_status(store: Any, job: Any, status: str) -> None:
        set_job_status(store, job, status)
        times = created.get(job.job_id)
        if status in TERMINAL_JOB_STATES and times is not None:
            tracer.add_span("service.job", times[0], tracer.clock(), job.job_id)

    JobStore.set_job_status = timed_set_job_status

    resolve = worker_module.resolve_executor

    def traced_executor(path: Any) -> Any:
        return tracer.wrap(resolve(path), "service.worker.execute")

    worker_module.resolve_executor = traced_executor

    for attr in ("record_submitted", "record_point", "record_job"):
        patch_method(tracer, JobJournal, attr, "service.journal.append")
    patch_method(tracer, Worker, "_persist", "service.persist")
    handle_failure = Worker._handle_failure

    def counted_failure(worker: Any, *args: Any) -> None:
        tracer.count("service.point_failures")
        handle_failure(worker, *args)

    Worker._handle_failure = counted_failure


def main(argv: List[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    instrument_service(tracer)
    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    with open(trace_out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
