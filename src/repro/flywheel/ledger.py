"""The campaign ledger: an append-only JSONL log that makes runs resumable.

A flywheel campaign executes many thousands of points; the ledger is the
single source of truth for which of them are *finished*.  Every record is
one JSON object on one line, appended and flushed as soon as the fact it
records is true:

``{"type": "header", ...}``
    Campaign identity: stream seed, point count, shard size, the stream
    digest (:func:`~repro.analysis.strategies.specs_digest` over the
    whole campaign), and the repro version.  Written once per ``run``
    invocation; a resume *verifies* its parameters against the first
    header and refuses to mix streams in one ledger.
``{"type": "point", "index": i, ...}``
    Point ``i`` was executed and judged; carries the full oracle row.
    A point record is the exactly-once unit: resume skips every index
    that has one.
``{"type": "divergence", "index": i, ...}``
    Point ``i`` diverged; carries the oracle names, the shrink outcome,
    and the corpus case filed (if any).
``{"type": "done", ...}``
    The campaign reached its configured count.  Its absence is what
    tells ``resume``/``status`` the run was interrupted.

The ledger is an ``fsync``'d :mod:`repro.jsonlog` log: a torn final
line (the SIGKILL case) is forgiven and repaired when the writer opens.
A half-written point record is simply not a point record, so the point
re-runs on resume and appears exactly once in the *parsed* ledger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..jsonlog import LogWriter, read_log

#: Ledger format version (bump on incompatible record-shape changes).
LEDGER_SCHEMA_VERSION = 1


class LedgerError(ValueError):
    """The ledger on disk is incompatible with the requested campaign."""


#: Every ledger record, in file order (the :mod:`repro.jsonlog` reader).
read_ledger = read_log


@dataclass
class LedgerState:
    """What a ledger says about a campaign (the resume/status view)."""

    header: Optional[Dict[str, Any]] = None
    #: Indices with a point record (executed exactly once).
    executed: Set[int] = field(default_factory=set)
    #: Divergence records, in filing order.
    divergences: List[Dict[str, Any]] = field(default_factory=list)
    done: bool = False

    @property
    def count(self) -> int:
        """The campaign's configured point count (0 if no header yet)."""
        return int(self.header["count"]) if self.header else 0

    def remaining(self) -> List[int]:
        """Indices still to execute, in stream order."""
        return [i for i in range(self.count) if i not in self.executed]


def load_state(path: str) -> LedgerState:
    """Fold a ledger file into its :class:`LedgerState`."""
    state = LedgerState()
    for record in read_ledger(path):
        kind = record.get("type")
        if kind == "header":
            if state.header is None:
                state.header = record
        elif kind == "point":
            state.executed.add(int(record["index"]))
        elif kind == "divergence":
            state.divergences.append(record)
        elif kind == "done":
            state.done = True
    return state


class LedgerWriter:
    """Append-and-fsync writer for one campaign ledger."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = LogWriter(path, fsync=True)

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record and force it to disk (crash-safe append)."""
        self._log.append(record)

    def header(
        self,
        *,
        seed: int,
        count: int,
        shard_size: int,
        digest: str,
        version: str,
        perturb: Optional[str] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "type": "header",
            "schema_version": LEDGER_SCHEMA_VERSION,
            "seed": seed,
            "count": count,
            "shard_size": shard_size,
            "stream_digest": digest,
            "version": version,
            "written_at": time.time(),
        }
        if perturb is not None:
            record["perturb"] = perturb
        self.append(record)

    def point(self, index: int, row: Dict[str, Any]) -> None:
        self.append({"type": "point", "index": index, "row": row})

    def divergence(self, index: int, record: Dict[str, Any]) -> None:
        self.append({"type": "divergence", "index": index, **record})

    def done(self, *, executed: int, divergences: int) -> None:
        self.append(
            {
                "type": "done",
                "executed": executed,
                "divergences": divergences,
                "written_at": time.time(),
            }
        )

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def check_compatible(
    state: LedgerState, *, seed: int, count: int, digest: str
) -> None:
    """Refuse to resume a ledger written for a different stream.

    The digest comparison subsumes the seed/count ones, but the explicit
    checks give the error message a human cause.
    """
    header = state.header
    if header is None:
        return
    if int(header["seed"]) != seed:
        raise LedgerError(
            f"ledger was written for stream seed {header['seed']}, not {seed}"
        )
    if int(header["count"]) != count:
        raise LedgerError(
            f"ledger was written for {header['count']} points, not {count}"
        )
    if str(header["stream_digest"]) != digest:
        raise LedgerError(
            "ledger stream digest does not match this generator version"
        )
