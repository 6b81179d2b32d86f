"""The crash-safe job journal: append, replay, tolerance, compaction.

The journal is the service's write-ahead log (``repro.service.journal``);
these tests pin the record shapes, the last-record-wins replay fold and
the atomic compaction that keeps the file bounded by live work.  The
crash contract it shares with the other logs (torn tail, mid-file
garbage, repair on open) is checked in ``tests/test_jsonlog.py``.
"""

import json
import os

import pytest

from repro.service.journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    compact_journal,
    journal_path,
    recoverable_jobs,
    replay_journal,
)


@pytest.fixture
def path(tmp_path):
    return journal_path(str(tmp_path / "data"))


def read_lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestAppend:
    def test_fresh_journal_starts_with_header(self, path):
        journal = JobJournal(path)
        journal.close()
        lines = read_lines(path)
        assert lines == [
            {
                "type": "journal_header",
                "schema_version": JOURNAL_SCHEMA_VERSION,
            }
        ]

    def test_journal_path_uses_the_canonical_name(self, tmp_path):
        assert journal_path(str(tmp_path)) == str(tmp_path / JOURNAL_NAME)

    def test_reopening_does_not_duplicate_the_header(self, path):
        JobJournal(path).close()
        JobJournal(path).close()
        kinds = [record["type"] for record in read_lines(path)]
        assert kinds == ["journal_header"]

    def test_record_shapes(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 7}])
        journal.record_point("job-0001", 0, "done")
        journal.record_point("job-0001", 1, "failed", error="boom")
        journal.record_job("job-0001", "done_with_errors")
        journal.close()
        lines = read_lines(path)[1:]
        assert lines[0] == {
            "type": "job_submitted",
            "job_id": "job-0001",
            "specs": [{"seed": 7}],
        }
        assert lines[1] == {
            "type": "point_terminal",
            "job_id": "job-0001",
            "index": 0,
            "status": "done",
        }
        assert lines[2]["error"] == "boom"
        assert lines[3] == {
            "type": "job_terminal",
            "job_id": "job-0001",
            "status": "done_with_errors",
        }

    def test_close_is_idempotent_and_drops_late_appends(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [])
        journal.close()
        journal.close()
        # A crashed process cannot append either; post-close writes are
        # silently dropped instead of raising into the worker thread.
        journal.record_point("job-0001", 0, "done")
        assert len(read_lines(path)) == 2


class TestReplay:
    def test_folds_points_and_terminal_status(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 1}, {"seed": 2}])
        journal.record_point("job-0001", 0, "done")
        journal.record_point("job-0001", 1, "failed", error="boom")
        journal.record_job("job-0001", "done_with_errors")
        journal.close()
        jobs = replay_journal(path)
        assert list(jobs) == ["job-0001"]
        job = jobs["job-0001"]
        assert job.specs == [{"seed": 1}, {"seed": 2}]
        assert job.point_states == {
            0: ("done", None),
            1: ("failed", "boom"),
        }
        assert job.terminal_status == "done_with_errors"

    def test_last_point_record_wins(self, path):
        # A recovered-and-re-run point journals a second verdict; the
        # fresh outcome must supersede the pre-crash one.
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 1}])
        journal.record_point("job-0001", 0, "failed", error="flaky")
        journal.record_point("job-0001", 0, "done")
        journal.close()
        assert replay_journal(path)["job-0001"].point_states == {
            0: ("done", None)
        }

    def test_orphan_records_without_submission_are_dropped(self, path):
        # If the submission line itself was the torn one, the job's
        # specs are gone: nothing to re-plan, so its records are noise.
        journal = JobJournal(path)
        journal.record_point("ghost", 0, "done")
        journal.record_job("ghost", "done")
        journal.close()
        assert replay_journal(path) == {}

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay_journal(str(tmp_path / "absent.jsonl")) == {}


class TestRecoverable:
    def test_only_non_terminal_jobs_in_submission_order(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 1}])
        journal.record_submitted("job-0002", [{"seed": 2}])
        journal.record_submitted("job-0003", [{"seed": 3}])
        journal.record_job("job-0002", "done")
        journal.close()
        assert [job.job_id for job in recoverable_jobs(path)] == [
            "job-0001",
            "job-0003",
        ]


class TestCompaction:
    def test_drops_terminal_jobs_keeps_live_ones(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 1}])
        journal.record_point("job-0001", 0, "done")
        journal.record_job("job-0001", "done")
        journal.record_submitted("job-0002", [{"seed": 2}])
        journal.record_point("job-0002", 0, "done")
        journal.close()
        assert compact_journal(path) == 1
        lines = read_lines(path)
        assert [record["type"] for record in lines] == [
            "journal_header",
            "job_submitted",
            "point_terminal",
        ]
        assert all(
            record.get("job_id", "job-0002") == "job-0002"
            for record in lines
        )
        # The live job's journaled progress survived intact.
        assert replay_journal(path)["job-0002"].point_states == {
            0: ("done", None)
        }

    def test_noop_when_nothing_is_terminal(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 1}])
        journal.close()
        before = os.stat(path).st_mtime_ns
        assert compact_journal(path) == 0
        assert os.stat(path).st_mtime_ns == before

    def test_missing_journal_is_a_noop(self, tmp_path):
        # A first boot over an empty data dir must not invent files.
        target = str(tmp_path / "never" / "journal.jsonl")
        assert compact_journal(target) == 0
        assert not os.path.exists(os.path.dirname(target))

    def test_appending_after_compaction_works(self, path):
        journal = JobJournal(path)
        journal.record_submitted("job-0001", [{"seed": 1}])
        journal.record_job("job-0001", "done")
        journal.close()
        compact_journal(path)
        journal = JobJournal(path)
        journal.record_submitted("job-0002", [{"seed": 2}])
        journal.close()
        assert [job.job_id for job in recoverable_jobs(path)] == ["job-0002"]
