"""Service lifecycle: configuration, startup, and graceful shutdown.

:class:`ScenarioService` owns the three moving parts — the
:class:`~repro.service.jobs.JobStore`, the single
:class:`~repro.service.worker.Worker` thread, and the
:class:`~repro.service.http_api.ServiceHTTPServer` — and wires their
lifecycles together.  ``with ScenarioService(config) as service:`` is
the embedded form the tests and the executable docs use; ``repro
serve`` runs the same object in the foreground.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.parallel import read_sweep_points
from .http_api import ServiceHTTPServer
from .jobs import JobStore
from .journal import (
    JOURNAL_NAME,
    JobJournal,
    compact_journal,
    journal_path,
    recoverable_jobs,
)
from .planner import PlanError, plan_points, specs_from_dicts
from .worker import RetryPolicy, ServiceOverloadedError, Worker

__all__ = [
    "QUERYABLE_FIELDS",
    "ScenarioService",
    "ServiceConfig",
    "ServiceOverloadedError",
]

#: Row fields ``GET /results`` accepts as query filters.
QUERYABLE_FIELDS = ("protocol", "backend", "adversary", "n", "t", "ok", "rounds")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a scenario service needs to start."""

    #: Bind host; keep the loopback default unless you front the service
    #: with something that does authentication.
    host: str = "127.0.0.1"
    #: Bind port; ``0`` asks the OS for a free one (tests, CI).
    port: int = 0
    #: Sweep cache directory (``None`` = the engine default, which
    #: honours ``$REPRO_SWEEP_CACHE``).
    cache_dir: Optional[str] = None
    #: Where finished jobs are persisted as sweep JSONL (``None``
    #: disables persistence; query endpoints then cover only the
    #: current process's jobs).
    data_dir: Optional[str] = None
    #: Process-pool width for point execution (1 = inline).
    pool_jobs: int = 1
    #: Disable the sweep cache entirely (no dedupe).
    no_cache: bool = False
    #: Folded into derived seeds of points submitted without one.
    base_seed: int = 0
    #: Admission limit: jobs allowed to wait in the worker's queue
    #: before submissions are shed with 429 (``0`` disables the check).
    max_queue_depth: int = 64
    #: Total attempts per point before it is quarantined as ``failed``.
    retry_max_attempts: int = 3
    #: Backoff before a point's second attempt (doubles per attempt,
    #: plus deterministic jitter — :class:`~repro.service.worker
    #: .RetryPolicy`).
    retry_base_delay: float = 0.05
    #: Point executor as a dotted ``module:function`` path (``None`` =
    #: the real one; the chaos harness swaps in a fault injector here).
    executor: Optional[str] = None
    #: Per-request socket deadline for HTTP handlers, in seconds — a
    #: stalled client (slow-loris, dead TCP peer) times out instead of
    #: pinning a handler thread forever.
    request_timeout: float = 30.0


class ScenarioService:
    """One running scenario server: store + worker + HTTP front end."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.base_seed = self.config.base_seed
        self._journal: Optional[JobJournal] = None
        if self.config.data_dir is not None:
            path = journal_path(self.config.data_dir)
            # Compact *before* reopening for append: terminal jobs'
            # records are dropped, non-terminal jobs' records survive,
            # so restore() below never needs to re-journal anything.
            compact_journal(path)
            self._journal = JobJournal(path)
        self.store = JobStore(self._journal)
        self.worker = Worker(
            self.store,
            cache_dir=self.config.cache_dir,
            data_dir=self.config.data_dir,
            pool_jobs=self.config.pool_jobs,
            no_cache=self.config.no_cache,
            retry=RetryPolicy(
                max_attempts=self.config.retry_max_attempts,
                base_delay=self.config.retry_base_delay,
            ),
            executor=self.config.executor,
        )
        #: Job ids resumed from the journal by :meth:`start`, in
        #: submission order (``repro serve`` prints these).
        self.recovered_jobs: List[str] = []
        self._server: Optional[ServiceHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ScenarioService":
        """Bind the socket and start the worker and serve threads.

        Recovery happens here, before the socket accepts submissions:
        every journaled job that never reached a terminal state is
        re-registered under its original id and re-queued.  Completed
        points dedupe through the sweep cache on re-run; journaled
        ``failed``/``cancelled`` points keep their verdicts.
        """
        self.recovered_jobs = self._recover()
        self._server = ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        self.worker.start()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            name="scenario-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def _recover(self) -> List[str]:
        """Restore + re-queue journaled non-terminal jobs; their ids."""
        if self.config.data_dir is None or self._journal is None:
            return []
        recovered = []
        for entry in recoverable_jobs(self._journal.path):
            try:
                specs = specs_from_dicts(entry.specs)
            except PlanError:
                # Schema drift: a journal from an incompatible spec
                # version cannot be replanned.  Journal the job as
                # failed so the next restart stops retrying it.
                self._journal.record_job(entry.job_id, "failed")
                continue
            job = self.store.restore(
                entry.job_id, specs, entry.point_states
            )
            self.worker.submit(job)
            recovered.append(job.job_id)
        return recovered

    def shutdown(self) -> None:
        """Graceful stop: finish nothing new, cancel the rest, unbind.

        Safe to call more than once (the ``POST /shutdown`` handler and
        a ``finally:`` block may race).  Blocks until the worker thread
        exited, so pending points are in a terminal state on return.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.worker.stop()
        self.worker.join(timeout=30)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "ScenarioService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- introspection -------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` bindings)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        """The service's base URL."""
        host, port = self.address
        return f"http://{host}:{port}"

    def check_capacity(self) -> None:
        """Raise :class:`ServiceOverloadedError` if the queue is full.

        Admission control happens before any planning: shedding load
        must be cheaper than accepting it, or overload makes itself
        worse.
        """
        limit = self.config.max_queue_depth
        if limit <= 0:
            return
        backlog = self.worker.backlog()
        if backlog >= limit:
            raise ServiceOverloadedError(backlog, limit)

    def submit(self, payload: Dict[str, Any]) -> str:
        """Plan and enqueue a job in-process (the HTTP-free path the
        executable docs use); returns the new job id.

        Raises :class:`ServiceOverloadedError` when the queue is at
        capacity — the same admission control ``POST /jobs`` applies.
        """
        self.check_capacity()
        specs = plan_points(payload, base_seed=self.base_seed)
        job = self.store.create(specs)
        self.worker.submit(job)
        return job.job_id

    def cancel_job(self, job_id: str) -> Optional[bool]:
        """Request cancellation of a job by id.

        Returns ``None`` for an unknown job, ``False`` if the job was
        already terminal, ``True`` when the cancel flag was set (the
        worker performs the actual transitions between points).
        """
        job = self.store.get(job_id)
        if job is None:
            return None
        return self.store.request_cancel(job)

    # -- result queries ------------------------------------------------

    def query_results(self, filters: Dict[str, str]) -> List[Dict[str, Any]]:
        """Accumulated result rows matching *filters*.

        Covers every in-memory job plus any sweep JSONL files persisted
        to the data directory by *earlier* service processes.  Filter
        values compare against the row field's JSON text, so ``ok=true``
        and ``n=7`` both do what they look like.  Unknown filter fields
        raise ``ValueError`` (the API layer's 400).
        """
        unknown = sorted(set(filters) - set(QUERYABLE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown filter field(s) {unknown}; "
                f"queryable: {', '.join(QUERYABLE_FIELDS)}"
            )
        rows = []
        seen_jobs = set()
        for job in self.store.all_jobs():
            seen_jobs.add(f"{job.job_id}.jsonl")
            for index, row in self.store.row_snapshots(job):
                rows.append({"job_id": job.job_id, "index": index, **row})
        rows.extend(self._persisted_rows(skip=seen_jobs))
        return [row for row in rows if _matches(row, filters)]

    def _persisted_rows(self, skip: set) -> List[Dict[str, Any]]:
        """Point rows from data-dir JSONL written by earlier processes."""
        data_dir = self.config.data_dir
        if data_dir is None or not os.path.isdir(data_dir):
            return []
        rows = []
        for name in sorted(os.listdir(data_dir)):
            if (
                not name.endswith(".jsonl")
                or name in skip
                or name == JOURNAL_NAME
            ):
                continue
            for record in read_sweep_points(os.path.join(data_dir, name)):
                if record.get("row"):
                    rows.append(
                        {
                            "job_id": name[: -len(".jsonl")],
                            "index": record.get("index"),
                            **record["row"],
                        }
                    )
        return rows


def _matches(row: Dict[str, Any], filters: Dict[str, str]) -> bool:
    """True when every filter equals the row field's JSON text."""
    for field, wanted in filters.items():
        if field not in row:
            return False
        value = row[field]
        text = json.dumps(value) if not isinstance(value, str) else value
        if text != wanted:
            return False
    return True
