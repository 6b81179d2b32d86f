"""Crash-safe job journal: the service's write-ahead log.

A service with a data directory appends every job submission and every
*terminal* state transition (per point and per job) to one append-only
JSONL file, ``journal.jsonl``.  On startup the next service process
replays that file: jobs that never reached a terminal state are
re-registered and re-queued (:meth:`repro.service.session.ScenarioService
.start`), with already-finished points deduped through the sweep cache
and journaled ``failed``/``cancelled`` points restored as-is.  A killed
process — ``kill -9``, OOM — therefore loses at most the points that
were mid-flight, never a whole job.

Record shapes (one JSON object per line)::

    {"type": "journal_header", "schema_version": 1}
    {"type": "job_submitted", "job_id": "job-0001", "specs": [ ... ]}
    {"type": "point_terminal", "job_id": "job-0001", "index": 3,
     "status": "done"}                       # + "error" for failures
    {"type": "job_terminal", "job_id": "job-0001", "status": "done"}

The journal is a flushed, not ``fsync``'d, :mod:`repro.jsonlog` log: a
line torn by a killed process is forgiven and truncated when the next
:class:`JobJournal` opens, and garbage anywhere else raises.
:func:`compact_journal` rewrites the file atomically on recovery,
dropping every record of a job already in a terminal state, so the
journal's size is bounded by the live work, not the service's history.

Nothing here imports from the rest of the service package — the journal
is a leaf the :class:`~repro.service.jobs.JobStore` and the session
layer both sit on.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..jsonlog import LogWriter, read_log, replace_log

#: File name of the journal inside the service's data directory.
JOURNAL_NAME = "journal.jsonl"

#: Schema version of the journal records.
JOURNAL_SCHEMA_VERSION = 1

#: The first record of every journal file.
_HEADER: Dict[str, Any] = {"type": "journal_header", "schema_version": JOURNAL_SCHEMA_VERSION}


def journal_path(data_dir: str) -> str:
    """Where the journal of a service over *data_dir* lives."""
    return os.path.join(data_dir, JOURNAL_NAME)


class JobJournal:
    """Append-only writer for the service's job journal.

    Thread-safe: the worker thread journals point/job transitions while
    HTTP handler threads journal submissions.  Appends are flushed per
    record, so a killed *process* loses nothing already journaled.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._journal_lock = threading.Lock()
        log = LogWriter(path, fsync=False)
        self._handle: Optional[LogWriter] = log  # statics: guarded-by(_journal_lock)
        if log.empty:
            self._append(_HEADER)

    def _append(self, record: Dict[str, Any]) -> None:
        with self._journal_lock:
            if self._handle is not None:
                self._handle.append(record)

    def record_submitted(
        self, job_id: str, specs: List[Dict[str, Any]]
    ) -> None:
        """Journal a new job before it is queued for execution."""
        self._append(
            {"type": "job_submitted", "job_id": job_id, "specs": specs}
        )

    def record_point(
        self, job_id: str, index: int, status: str, error: Optional[str] = None
    ) -> None:
        """Journal one point reaching a terminal state."""
        record: Dict[str, Any] = {
            "type": "point_terminal",
            "job_id": job_id,
            "index": index,
            "status": status,
        }
        if error is not None:
            record["error"] = error
        self._append(record)

    def record_job(self, job_id: str, status: str) -> None:
        """Journal a job reaching a terminal state."""
        self._append(
            {"type": "job_terminal", "job_id": job_id, "status": status}
        )

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        with self._journal_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


@dataclass
class JournaledJob:
    """One job reconstructed from the journal."""

    job_id: str
    #: The submitted specs, as their JSON dicts (validated on recovery).
    specs: List[Dict[str, Any]] = field(default_factory=list)
    #: ``index -> (status, error)`` for journaled terminal points (the
    #: *last* journaled record per index wins, so a recovered-and-re-run
    #: point's fresh outcome supersedes the pre-crash one).
    point_states: Dict[int, Tuple[str, Optional[str]]] = field(
        default_factory=dict
    )
    #: The job's journaled terminal status, or ``None`` if it never
    #: reached one — i.e. the job a restart must resume.
    terminal_status: Optional[str] = None


def replay_journal(path: str) -> "Dict[str, JournaledJob]":
    """Fold the journal at *path* into per-job state, submission order."""
    return _fold(read_log(path))


def _fold(records: List[Dict[str, Any]]) -> "Dict[str, JournaledJob]":
    """Per-job state of journal *records*.

    Records for jobs whose submission line was lost (torn tail) are
    dropped: a job the journal cannot re-plan cannot be recovered.
    """
    jobs: Dict[str, JournaledJob] = {}
    for record in records:
        kind = record.get("type")
        job_id = record.get("job_id")
        if kind == "job_submitted" and isinstance(job_id, str):
            specs = record.get("specs")
            if isinstance(specs, list):
                jobs[job_id] = JournaledJob(job_id=job_id, specs=specs)
        elif kind == "point_terminal" and job_id in jobs:
            index = record.get("index")
            state = record.get("status")
            if isinstance(index, int) and isinstance(state, str):
                jobs[job_id].point_states[index] = (
                    state,
                    record.get("error"),
                )
        elif kind == "job_terminal" and job_id in jobs:
            state = record.get("status")
            if isinstance(state, str):
                jobs[job_id].terminal_status = state
    return jobs


def recoverable_jobs(path: str) -> List[JournaledJob]:
    """The journaled jobs a restarted service must resume, in order."""
    return [
        job
        for job in replay_journal(path).values()
        if job.terminal_status is None
    ]


def compact_journal(path: str) -> int:
    """Atomically drop every record of already-terminal jobs.

    Returns the number of jobs whose records were dropped.  Called on
    recovery, before the journal is reopened for appending, so the file
    grows with the amount of *live* work, not with service history.
    """
    records = read_log(path)
    jobs = _fold(records)
    live = {job_id for job_id, job in jobs.items() if job.terminal_status is None}
    dropped = len(jobs) - len(live)
    if dropped:
        replace_log(path, [_HEADER] + [r for r in records if r.get("job_id") in live])
    return dropped
