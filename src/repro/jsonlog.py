"""Crash-safe JSON files: one append-only log contract, one atomic write.

Every file that must survive a killed process goes through this module:
the flywheel ledger, the service journal, the sweep JSONL files, sweep
cache entries and corpus cases.

A log is one JSON object per line.  :class:`LogWriter` appends each
record as one ``sort_keys`` line and flushes it (``fsync=True`` also
forces it to the device, surviving a lost machine, not just a killed
process).  A kill *during* an append can only leave a final line without
its newline, so :func:`read_log` forgives exactly that line when it does
not parse; any other bad line raises :class:`CorruptLogError` naming
``path:line``.  A writer truncates such a torn tail when it opens, so
new records never land on a fragment.  :func:`write_atomic` and
:func:`replace_log` write a whole file to a temporary name and
``os.replace`` it into place.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional


class CorruptLogError(ValueError):
    """A log line other than the final one is not a JSON object."""

    def __init__(self, path: str, line: int) -> None:
        super().__init__(f"{path}:{line}: corrupt record before the end of the log")
        self.path = path
        self.line = line


def _parse(line: bytes) -> Optional[Dict[str, Any]]:
    """The JSON object on *line*, or ``None`` when it is not one."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def read_log(path: str) -> List[Dict[str, Any]]:
    """Every record of the log at *path*, in file order.

    A missing file is an empty log and blank lines are skipped.  A torn
    tail (an unparsable final line without its newline) is dropped; any
    other unparsable line raises :class:`CorruptLogError`.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return []
    records: List[Dict[str, Any]] = []
    with handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            record = _parse(line)
            if record is not None:
                records.append(record)
            elif line.endswith(b"\n"):
                raise CorruptLogError(path, lineno)
    return records


class LogWriter:
    """Append-only writer of one log; see the module docstring.

    Opening repairs the file: a torn tail is truncated, and a final
    record that lost only its newline gets one.  :attr:`empty` tells the
    caller whether the repaired file holds anything, so a log with a
    header record can write it exactly once.
    """

    def __init__(self, path: str, *, fsync: bool) -> None:
        self.fsync = fsync
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._handle = open(path, "a+b")
        size = self._handle.seek(0, os.SEEK_END)
        self._handle.seek(max(size - 1, 0))
        if self._handle.read(1) not in (b"", b"\n"):
            self._handle.seek(0)
            data = self._handle.read()
            start = data.rfind(b"\n") + 1  # 0 when the log has one line
            if _parse(data[start:]) is None:
                size = self._handle.truncate(start)
            else:
                self._handle.write(b"\n")
        self.empty = size == 0

    def append(self, record: Dict[str, Any]) -> None:
        """Write *record* as one line and flush it (and ``fsync``)."""
        self._handle.write(_line(record).encode())
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


def write_atomic(path: str, text: str) -> None:
    """Replace the file at *path* with *text* in one atomic step.

    The parent directory is created if needed; a failed write removes
    its temporary file and leaves *path* as it was.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def replace_log(path: str, records: Iterable[Dict[str, Any]]) -> None:
    """Atomically replace the log at *path* with *records*."""
    write_atomic(path, "".join(_line(record) for record in records))
