"""The scenario service's execution loop.

One background thread drains a FIFO of queued jobs.  For every point it
first consults the sweep cache (:func:`~repro.analysis.spec
.spec_cache_key` — the same key a local ``repro sweep --spec`` run
writes, so work done anywhere dedupes everywhere), then executes the
misses either inline (``pool_jobs=1``) or through a
:class:`~concurrent.futures.ProcessPoolExecutor`, exactly the two paths
:func:`repro.analysis.parallel.run_grid` offers.  Finished jobs are
persisted to the service's data directory as standard sweep JSONL
(:func:`~repro.analysis.parallel.write_sweep_jsonl`), which is what the
query endpoints read back.

Failure discipline (the service's fault-tolerance contract):

* **Point-level quarantine.**  An exception escaping one point — or a
  pool process dying under it — costs *that point* a retry, never the
  job: bounded attempts (:class:`RetryPolicy`) with deterministic
  jittered exponential backoff, then a terminal ``failed`` state plus a
  ``point_failed`` event.  The rest of the job finishes and the job
  lands on ``done_with_errors``.
* **Pool self-healing.**  A ``BrokenProcessPool`` (a worker process was
  killed) fails every in-flight point *attempt*; the pool is rebuilt
  and the affected points retry on the fresh one.
* **Loop immortality.**  An exception escaping a whole job marks that
  job ``failed`` with an ``error`` event and the drain loop carries on —
  a poisoned job can never wedge later submissions in ``queued``.
* **Cancellation.**  The worker polls
  :meth:`~repro.service.jobs.JobStore.is_cancel_requested` between
  points; it is the only writer of point state, so a cancel is a flag
  flip here, not a cross-thread transition.

Shutdown is cooperative: the stop event is checked between points (and
between pool completions), so a graceful shutdown finishes nothing
extra — in-flight points complete, the rest of the job is marked
``cancelled``.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.parallel import (
    SweepCache,
    SweepReport,
    default_cache_dir,
    resolve_jobs,
    write_sweep_jsonl,
)
from ..analysis.spec import (
    SPEC_RUNNER,
    SPEC_SWEEP_NAME,
    spec_cache_key,
)
from .jobs import Job, JobStore

#: The default point executor (dotted ``module:function`` path).  The
#: indirection exists for the chaos harness, which swaps in
#: :func:`repro.service.chaos.chaos_execute` to inject faults without
#: touching this hot path.
DEFAULT_EXECUTOR = "repro.analysis.spec:execute_spec_point"


class ServiceOverloadedError(RuntimeError):
    """The submission queue is at capacity; retry after backing off.

    Raised by :meth:`repro.service.session.ScenarioService
    .check_capacity`; the HTTP layer maps it to ``429 Too Many
    Requests`` with a ``Retry-After`` header carrying
    :attr:`retry_after` — load shedding at admission, before any
    planning work is spent, while ``/healthz`` keeps answering 200 (an
    overloaded service is busy, not dead).
    """

    def __init__(self, backlog: int, limit: int) -> None:
        super().__init__(
            f"job queue is at capacity ({backlog} queued, limit {limit})"
        )
        self.backlog = backlog
        self.limit = limit
        #: Suggested client back-off in seconds: proportional to the
        #: backlog so pressure spreads retries out, capped to stay
        #: polite.  Deterministic — clients add their own jitter.
        self.retry_after = max(1, min(30, backlog // max(1, limit // 4)))


def resolve_executor(
    path: Optional[str],
) -> Callable[[Any], Dict[str, Any]]:
    """Import the point-executor named by a ``module:function`` path.

    The function must be module-level (worker *processes* re-import it
    by reference when ``pool_jobs > 1``) and take one
    :class:`~repro.analysis.spec.ScenarioSpec`, returning its row.
    """
    target = path or DEFAULT_EXECUTOR
    module_name, _, func_name = target.partition(":")
    if not module_name or not func_name:
        raise ValueError(
            f"executor must be a 'module:function' path, got {target!r}"
        )
    module = importlib.import_module(module_name)
    func = getattr(module, func_name, None)
    if not callable(func):
        raise ValueError(f"executor {target!r} does not name a callable")
    return func


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic jittered exponential backoff.

    The jitter is derived from a SHA-256 of ``(job id, point index,
    attempt)`` — the same discipline as the sweep engine's
    :func:`~repro.analysis.parallel.point_seed` — so two runs of the
    same failing job back off identically (no ambient randomness in the
    service, ever).
    """

    #: Total attempts per point (1 = no retries).
    max_attempts: int = 3
    #: Backoff before attempt 2 (doubles per further attempt).
    base_delay: float = 0.05
    #: Backoff ceiling, pre-jitter.
    max_delay: float = 2.0
    #: Additional random fraction of the delay, in ``[0, jitter)``.
    jitter: float = 0.5

    def delay(self, job_id: str, index: int, attempt: int) -> float:
        """Seconds to wait before retrying after failed *attempt*."""
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        if self.jitter <= 0:
            return base
        payload = f"{job_id}:{index}:{attempt}".encode()
        unit = int.from_bytes(
            hashlib.sha256(payload).digest()[:8], "big"
        ) / float(2**64)
        return base * (1.0 + self.jitter * unit)


class Worker(threading.Thread):
    """The single job-draining thread behind a scenario service."""

    def __init__(
        self,
        store: JobStore,
        *,
        cache_dir: Optional[str] = None,
        data_dir: Optional[str] = None,
        pool_jobs: int = 1,
        no_cache: bool = False,
        retry: Optional[RetryPolicy] = None,
        executor: Optional[str] = None,
    ) -> None:
        super().__init__(name="scenario-worker", daemon=True)
        self.pool_jobs = resolve_jobs(pool_jobs)
        self.store = store
        self.cache: Optional[SweepCache] = (
            None if no_cache else SweepCache(cache_dir or default_cache_dir())
        )
        self.data_dir = data_dir
        self.retry = retry or RetryPolicy()
        self.executor_path = executor or DEFAULT_EXECUTOR
        self._execute = resolve_executor(executor)
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stop_event = threading.Event()

    # -- control -------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue *job* for execution."""
        self._queue.put(job.job_id)

    def stop(self) -> None:
        """Request a cooperative stop (between points, not mid-point)."""
        self._stop_event.set()
        self._queue.put(None)  # wake the loop if it is blocked on get()

    @property
    def stopping(self) -> bool:
        """True once a stop was requested."""
        return self._stop_event.is_set()

    def backlog(self) -> int:
        """Jobs waiting in the drain queue (approximate, lock-free).

        The HTTP layer's backpressure check reads this; ``qsize`` is
        advisory by contract, which is exactly what an admission-control
        threshold needs.
        """
        return self._queue.qsize()

    # -- loop ----------------------------------------------------------

    def run(self) -> None:
        """Drain queued jobs until stopped; one bad job never kills us."""
        while not self._stop_event.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if job_id is None:
                continue
            job = self.store.get(job_id)
            if job is None:
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - drain loop survives
                # A job whose execution machinery blew up is failed with
                # its reason on the event log; the loop stays alive so
                # later submissions never hang in `queued`.
                self.store.log_event(
                    job, "error", error=f"{type(exc).__name__}: {exc}"
                )
                self.store.cancel_active(job)
                self.store.set_job_status(job, "failed")
        # Anything still queued at stop time is cancelled, not dropped
        # silently: pollers see a terminal state either way.
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                break
            job = self.store.get(job_id) if job_id else None
            if job is not None and self.store.job_status(job) == "queued":
                self._cancel_rest(job)
                self.store.set_job_status(job, "cancelled")

    def _run_job(self, job: Job) -> None:
        if self.store.is_cancel_requested(job):
            self._cancel_rest(job)
            self.store.set_job_status(job, "cancelled")
            return
        self.store.set_job_status(job, "running")
        cached = self._serve_cached(job)
        self.store.log_event(job, "cache_scan", cached=cached)
        missing = self.store.pending_indices(job)
        if self._stop_event.is_set():
            self._cancel_rest(job)
            self.store.set_job_status(job, "cancelled")
            return
        if missing:
            if self.pool_jobs > 1:
                self._run_pool(job, missing)
            else:
                self._run_inline(job, missing)
        self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        """Give *job* its terminal state (every point is accounted for)."""
        if self.store.any_point_in(job, ("pending", "running")):
            # Only the stop/cancel paths leave non-terminal points, and
            # they cancel first — this is a belt-and-braces guarantee
            # that no job ever leaves the worker non-terminal.
            self._cancel_rest(job)
        if self.store.any_point_in(job, ("cancelled",)):
            self.store.set_job_status(job, "cancelled")
        elif self.store.any_point_in(job, ("failed",)):
            self._persist(job)
            self.store.set_job_status(job, "done_with_errors")
        else:
            self._persist(job)
            self.store.set_job_status(job, "done")

    def _serve_cached(self, job: Job) -> int:
        """Mark every cache hit before any execution; returns the count.

        Only ``pending`` points are scanned: a recovered job's restored
        ``failed``/``cancelled`` points keep their journaled verdicts.
        """
        if self.cache is None:
            return 0
        hits = 0
        for index in self.store.pending_indices(job):
            row = self.cache.get(spec_cache_key(job.points[index].spec))
            if row is not None:
                self.store.set_point_status(job, index, "cached", row=row)
                hits += 1
        return hits

    def _finish_point(self, job: Job, index: int, row: Dict) -> None:
        self.store.set_point_status(job, index, "done", row=row)
        if self.cache is not None:
            self.cache.put(spec_cache_key(job.points[index].spec), row)

    def _handle_failure(
        self,
        job: Job,
        index: int,
        attempt: int,
        exc: BaseException,
        retries: List[Tuple[float, int, int]],
    ) -> None:
        """Schedule a retry for one failed point, or quarantine it."""
        reason = f"{type(exc).__name__}: {exc}"
        if attempt < self.retry.max_attempts:
            delay = self.retry.delay(job.job_id, index, attempt)
            self.store.log_event(
                job,
                "point_retry",
                index=index,
                attempt=attempt,
                delay=round(delay, 4),
                error=reason,
            )
            retries.append((time.monotonic() + delay, index, attempt + 1))
        else:
            self.store.set_point_status(job, index, "failed", error=reason)
            self.store.log_event(
                job, "point_failed", index=index, attempts=attempt, error=reason
            )

    def _interrupted(self, job: Job) -> bool:
        """Stop/cancel check between points; cancels the rest if so."""
        if self._stop_event.is_set() or self.store.is_cancel_requested(job):
            self._cancel_rest(job)
            return True
        return False

    def _run_inline(self, job: Job, missing: List[int]) -> None:
        pending = deque((index, 1) for index in missing)
        retries: List[Tuple[float, int, int]] = []
        while pending or retries:
            if self._interrupted(job):
                return
            if pending:
                index, attempt = pending.popleft()
            else:
                retries.sort()
                wake = retries[0][0]
                remaining = wake - time.monotonic()
                if remaining > 0:
                    # Sleep in short slices so stop/cancel stay prompt
                    # even under a long backoff.
                    self._stop_event.wait(min(remaining, 0.05))
                    continue
                _, index, attempt = retries.pop(0)
            self.store.set_point_status(job, index, "running")
            try:
                row = self._execute(job.points[index].spec)
            except Exception as exc:  # noqa: BLE001 - one point, one verdict
                self._handle_failure(job, index, attempt, exc, retries)
            else:
                self._finish_point(job, index, row)

    def _run_pool(self, job: Job, missing: List[int]) -> None:
        pool = ProcessPoolExecutor(max_workers=self.pool_jobs)
        futures: Dict[Future, Tuple[int, int]] = {}
        retries: List[Tuple[float, int, int]] = []
        try:
            for index in missing:
                self.store.set_point_status(job, index, "running")
                future = pool.submit(self._execute, job.points[index].spec)
                futures[future] = (index, 1)
            while futures or retries:
                if self._stop_event.is_set() or self.store.is_cancel_requested(
                    job
                ):
                    for future in futures:
                        future.cancel()
                    # Futures that completed between the wait() and the
                    # cancel left their points terminal; everything still
                    # pending/running is cancelled in one store pass.
                    self.store.cancel_active(job)
                    return
                now = time.monotonic()
                due = [entry for entry in sorted(retries) if entry[0] <= now]
                for entry in due:
                    retries.remove(entry)
                    _, index, attempt = entry
                    self.store.set_point_status(job, index, "running")
                    future = pool.submit(
                        self._execute, job.points[index].spec
                    )
                    futures[future] = (index, attempt)
                if not futures:
                    self._stop_event.wait(0.05)
                    continue
                finished, _ = wait(
                    set(futures), timeout=0.25, return_when=FIRST_COMPLETED
                )
                pool_broke = False
                for future in finished:
                    index, attempt = futures.pop(future)
                    try:
                        row = future.result()
                    except BrokenProcessPool as exc:
                        # A pool process died (killed, OOM, os._exit):
                        # every in-flight future fails with this same
                        # error — each costs its point one attempt.
                        pool_broke = True
                        self._handle_failure(job, index, attempt, exc, retries)
                    except Exception as exc:  # noqa: BLE001
                        self._handle_failure(job, index, attempt, exc, retries)
                    else:
                        self._finish_point(job, index, row)
                if pool_broke:
                    self.store.log_event(
                        job, "pool_rebuilt", inflight=len(futures)
                    )
                    pool.shutdown(wait=False)
                    pool = ProcessPoolExecutor(max_workers=self.pool_jobs)
        finally:
            pool.shutdown(wait=False)

    def _cancel_rest(self, job: Job) -> None:
        self.store.cancel_active(job)

    def _persist(self, job: Job) -> None:
        """Write the finished job's rows as standard sweep JSONL.

        Also runs for ``done_with_errors`` jobs: completed rows are
        worth keeping even when a sibling point failed (failed points
        persist as empty rows, which the query layer skips).
        """
        if self.data_dir is None:
            return
        rows = self.store.result_rows(job)
        counts = self.store.counts(job)
        report = SweepReport(
            name=SPEC_SWEEP_NAME,
            rows=rows,
            cache_hits=counts["cached"],
            cache_misses=counts["done"],
            jobs=self.pool_jobs,
        )
        path = os.path.join(self.data_dir, f"{job.job_id}.jsonl")
        write_sweep_jsonl(
            path,
            report,
            runner=SPEC_RUNNER,
            grid=[point.spec.to_dict() for point in job.points],
            seeds=[point.spec.seed for point in job.points],
        )
        self.store.set_results_path(job, path)
        self.store.log_event(job, "results_persisted", path=path)
