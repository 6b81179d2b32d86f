"""The crash contract every file that must survive a killed process keeps.

``repro.jsonlog`` implements it once; these tests check it once per
reader that relies on it — the flywheel ledger, the service journal and
the sweep JSONL files — plus every atomic whole-file writer, and kill a
real appending process with SIGKILL.  What each domain builds on top
(exactly-once flywheel resume, journal recovery) is pinned in
``tests/flywheel`` and ``tests/service``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List

import pytest

from repro.analysis.parallel import (
    SweepCache,
    SweepReport,
    read_sweep_points,
    write_sweep_jsonl,
)
from repro.analysis.spec import ScenarioSpec
from repro.flywheel.ledger import LedgerWriter, read_ledger
from repro.jsonlog import CorruptLogError, LogWriter, read_log, write_atomic
from repro.resilience.corpus import ReproCase, save_case
from repro.service.journal import JobJournal, compact_journal, replay_journal

#: What a crash leaves when it interrupts an append mid-line.
TORN = '{"type": "point", "index": 99, "ro'


def _ledger_append(path: str, indices: Iterable[int]) -> None:
    with LedgerWriter(path) as ledger:
        for index in indices:
            ledger.point(index, {"ok": True})


def _ledger_read(path: str) -> List[int]:
    return [r["index"] for r in read_ledger(path) if r["type"] == "point"]


def _journal_append(path: str, indices: Iterable[int]) -> None:
    journal = JobJournal(path)
    for index in indices:
        journal.record_submitted(f"job-{index:04d}", [])
    journal.close()


def _journal_read(path: str) -> List[int]:
    return [int(job_id[len("job-"):]) for job_id in replay_journal(path)]


def _sweep_write(path: str, indices: Iterable[int]) -> None:
    grid = [{"i": index} for index in indices]
    report = SweepReport(name="contract", rows=[{"ok": True} for _ in grid])
    write_sweep_jsonl(path, report, runner="r", grid=grid, seeds=range(len(grid)))


def _sweep_read(path: str) -> List[int]:
    return [record["index"] for record in read_sweep_points(path)]


@dataclass(frozen=True)
class Log:
    """One crash-surviving file kind, seen through its own API."""

    name: str
    #: ``write(path, indices)``: add items to the file (sweep files are
    #: only ever replaced whole, never appended to).
    write: Callable[[str, Iterable[int]], None]
    #: ``read(path)``: the item numbers the file's reader returns.
    read: Callable[[str], List[int]]
    appends: bool = True

    def __repr__(self) -> str:
        return self.name


LOGS = [
    Log("ledger", _ledger_append, _ledger_read),
    Log("journal", _journal_append, _journal_read),
    Log("sweep", _sweep_write, _sweep_read, appends=False),
]


def _add_line(path: str, text: str, *, at: int) -> None:
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines.insert(at, text)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "log.jsonl")


@pytest.mark.parametrize("log", LOGS, ids=repr)
class TestReaders:
    def test_torn_tail_is_forgiven(self, log, path):
        log.write(path, range(3))
        with open(path, "a") as handle:
            handle.write(TORN)
        assert log.read(path) == [0, 1, 2]

    def test_mid_file_garbage_raises(self, log, path):
        log.write(path, range(3))
        _add_line(path, "!corrupted!", at=1)
        with pytest.raises(CorruptLogError, match=f"^{re.escape(path)}:2: "):
            log.read(path)

    def test_blank_lines_are_skipped(self, log, path):
        log.write(path, range(3))
        _add_line(path, "", at=1)
        assert log.read(path) == [0, 1, 2]

    def test_missing_file_reads_as_empty(self, log, tmp_path):
        assert log.read(str(tmp_path / "absent" / "log.jsonl")) == []


@pytest.mark.parametrize("log", [log for log in LOGS if log.appends], ids=repr)
def test_repair_on_open_truncates_the_torn_tail(log, path):
    log.write(path, [0, 1])
    with open(path, "a") as handle:
        handle.write(TORN)
    log.write(path, [2])
    assert log.read(path) == [0, 1, 2]
    with open(path) as handle:
        text = handle.read()
    assert TORN not in text and text.endswith("\n")


class TestLogWriter:
    def test_final_record_missing_its_newline_is_kept(self, path):
        with open(path, "w") as handle:
            handle.write('{"a": 1}\n{"b": 2}')
        assert read_log(path) == [{"a": 1}, {"b": 2}]
        log = LogWriter(path, fsync=False)
        log.append({"c": 3})
        log.close()
        assert read_log(path) == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_empty_reports_whether_a_record_survived(self, path):
        with open(path, "w") as handle:
            handle.write(TORN)
        log = LogWriter(path, fsync=True)
        assert log.empty
        log.append({"a": 1})
        log.close()
        assert not LogWriter(path, fsync=False).empty

    def test_records_are_sorted_key_lines(self, path):
        log = LogWriter(path, fsync=False)
        log.append({"b": 1, "a": [2]})
        log.close()
        with open(path) as handle:
            assert handle.read() == '{"a": [2], "b": 1}\n'

    def test_a_bad_final_line_with_its_newline_is_not_torn(self, path):
        # An append writes its newline last, so a crash cannot leave a
        # complete-but-unparsable line: that is corruption.
        with open(path, "w") as handle:
            handle.write('{"a": 1}\n{"b": \n')
        with pytest.raises(CorruptLogError, match=r":2: "):
            read_log(path)

    def test_a_non_object_line_is_corrupt(self, path):
        with open(path, "w") as handle:
            handle.write('[1, 2]\n{"a": 1}\n')
        with pytest.raises(CorruptLogError) as excinfo:
            read_log(path)
        assert (excinfo.value.path, excinfo.value.line) == (path, 1)


def _case() -> ReproCase:
    spec = ScenarioSpec(protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0))
    return ReproCase(name="contract", description="", spec=spec)


def _compacted(directory: str) -> str:
    path = os.path.join(directory, "journal.jsonl")
    journal = JobJournal(path)
    journal.record_submitted("job-0001", [])
    journal.record_job("job-0001", "done")
    journal.close()
    assert compact_journal(path) == 1
    return path


ATOMIC_WRITERS = {
    "sweep-jsonl": lambda d: _sweep_write(os.path.join(d, "s.jsonl"), range(2)),
    "sweep-cache": lambda d: SweepCache(d).put({"k": 1}, {"ok": True}),
    "corpus-case": lambda d: save_case(_case(), d),
    "journal-compaction": _compacted,
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
    def test_leaves_no_tmp_file(self, writer, tmp_path):
        directory = str(tmp_path / "out")
        ATOMIC_WRITERS[writer](directory)
        names = os.listdir(directory)
        assert names and not [name for name in names if ".tmp." in name]

    def test_failed_write_keeps_the_target_and_removes_the_tmp(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        with pytest.raises(OSError):
            write_atomic(str(target), "text")
        assert target.is_dir() and os.listdir(tmp_path) == ["occupied"]


#: Appends 4 MiB records until killed: each write takes long enough that
#: a SIGKILL often lands inside one.
_APPENDER = """
import sys
from repro.jsonlog import LogWriter

log = LogWriter(sys.argv[1], fsync=False)
pad = "x" * (4 << 20)
index = 0
while True:
    log.append({"index": index, "pad": pad})
    index += 1
"""


def test_sigkill_mid_append_leaves_a_log_that_reads_and_repairs(tmp_path):
    path = str(tmp_path / "killed.jsonl")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = subprocess.Popen([sys.executable, "-c", _APPENDER, path], env=env)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(path) and os.path.getsize(path) > (10 << 20):
                break
            time.sleep(0.001)
        else:
            pytest.fail("the appender never wrote 10 MiB")
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
    survivors = read_log(path)
    assert len(survivors) >= 2
    assert [r["index"] for r in survivors] == list(range(len(survivors)))
    assert all(len(r["pad"]) == 4 << 20 for r in survivors)

    log = LogWriter(path, fsync=True)
    log.append({"index": "resumed"})
    log.close()
    assert read_log(path) == survivors + [{"index": "resumed"}]
    with open(path, "rb") as handle:
        for line in handle:
            assert isinstance(json.loads(line), dict)
