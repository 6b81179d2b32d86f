"""Crash recovery: journaled jobs survive a dead service process.

The satellite requirement this file pins: kill a service over a
populated data directory and restart it — journaled jobs must resume
under their original ids with already-finished points deduped through
the sweep cache.  Covered twice: in-process (``simulate_crash``, which
leaves the journal exactly the way ``kill -9`` would) and end-to-end
with a real ``repro serve`` subprocess killed with SIGKILL.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.analysis.spec import ScenarioSpec
from repro.jsonlog import read_log
from repro.service import (
    JobJournal,
    JobStore,
    ScenarioService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.chaos import (
    CHAOS_ENV,
    CHAOS_EXECUTOR,
    armed_faults,
    simulate_crash,
)
from repro.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    journal_path,
    replay_journal,
)

POINTS = [
    {
        "protocol": "real-aa",
        "n": 3,
        "t": 0,
        "known_range": 8.0,
        "adversary": "none",
        "seed": 41000 + offset,
    }
    for offset in range(3)
]

PAYLOAD = {"points": POINTS}


def make_config(tmp_path, **overrides):
    settings = dict(
        port=0,
        cache_dir=str(tmp_path / "cache"),
        data_dir=str(tmp_path / "data"),
        executor=CHAOS_EXECUTOR,
        retry_base_delay=0.01,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def wait_for(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestStoreRestore:
    def test_restore_reruns_finished_points_keeps_verdicts(self):
        specs = [
            ScenarioSpec(
                protocol="real-aa", n=3, t=0, known_range=8.0, seed=seed
            )
            for seed in range(4)
        ]
        store = JobStore()
        job = store.restore(
            "job-0007",
            specs,
            {0: ("done", None), 1: ("failed", "boom"), 2: ("cancelled", None)},
        )
        assert job.job_id == "job-0007"
        # done comes back pending (the cache scan re-serves it); spent
        # verdicts — failed, cancelled — are preserved as-is.
        points = store.summary(job)["points"]
        assert [point["status"] for point in points] == [
            "pending",
            "failed",
            "cancelled",
            "pending",
        ]
        assert points[1]["error"] == "boom"
        events = [e["event"] for e in store.events_since(job, 0)]
        assert events == ["job_recovered"]

    def test_restore_advances_the_id_counter(self):
        store = JobStore()
        store.restore("job-0007", [], {})
        fresh = store.create([])
        assert fresh.job_id == "job-0008"


class TestInProcessCrash:
    def test_killed_service_resumes_with_cache_dedupe(self, tmp_path):
        faults = {
            # The last point hangs long enough that the "crashed"
            # worker thread stays parked; the sentinel makes the
            # recovered service's re-run of it clean.
            POINTS[-1]["seed"]: {"kind": "slow", "once": True, "delay": 600.0}
        }
        with armed_faults(faults, str(tmp_path / "sentinels")):
            first = ScenarioService(make_config(tmp_path)).start()
            job_id = first.submit(PAYLOAD)
            job = first.store.get(job_id)
            assert wait_for(
                lambda: first.store.counts(job)["done"]
                + first.store.counts(job)["cached"]
                >= len(POINTS) - 1
            )
            simulate_crash(first)

            # The journal a crash leaves behind: submission plus the
            # finished points' terminal records, no job_terminal line.
            journal = replay_journal(
                journal_path(make_config(tmp_path).data_dir)
            )
            assert journal[job_id].terminal_status is None
            assert len(journal[job_id].point_states) >= len(POINTS) - 1

            with ScenarioService(make_config(tmp_path)) as second:
                assert second.recovered_jobs == [job_id]
                recovered = second.store.get(job_id)
                assert recovered is not None
                assert wait_for(
                    lambda: second.store.job_status(recovered) == "done"
                )
                counts = second.store.counts(recovered)
                # Finished points were not recomputed: the cache scan
                # served them back as `cached`.
                assert counts["cached"] >= len(POINTS) - 1
                assert counts["cached"] + counts["done"] == len(POINTS)
                events = [
                    e["event"]
                    for e in second.store.events_since(recovered, 0)
                ]
                assert events[0] == "job_recovered"
                assert "cache_scan" in events

    def test_third_boot_finds_a_compacted_quiet_journal(self, tmp_path):
        with armed_faults({}, str(tmp_path / "sentinels")):
            with ScenarioService(make_config(tmp_path)) as service:
                job_id = service.submit(PAYLOAD)
                job = service.store.get(job_id)
                assert wait_for(
                    lambda: service.store.job_status(job) == "done"
                )
            # The job is terminal, so the next boot compacts its
            # records away and recovers nothing.
            with ScenarioService(make_config(tmp_path)) as again:
                assert again.recovered_jobs == []
            data_dir = make_config(tmp_path).data_dir
            assert replay_journal(journal_path(data_dir)) == {}

    def test_unplannable_journal_entries_are_failed_not_looped(self, tmp_path):
        # A journal from an incompatible spec schema cannot be
        # re-planned; the service must fail it once, not retry forever.
        data_dir = str(tmp_path / "data")
        journal = JobJournal(journal_path(data_dir))
        journal.record_submitted("job-0001", [{"protocol": "no-such"}])
        journal.close()
        with ScenarioService(make_config(tmp_path)) as service:
            assert service.recovered_jobs == []
        replayed = replay_journal(journal_path(data_dir))
        assert replayed == {} or replayed["job-0001"].terminal_status == (
            "failed"
        )
        with ScenarioService(make_config(tmp_path)) as service:
            assert service.recovered_jobs == []


class TestTornJournalRestart:
    """A crash mid-append leaves a torn journal tail.  The next boot
    must not append its first record onto that fragment, or the record
    is lost on the following replay."""

    def test_job_submitted_after_a_torn_restart_is_recoverable(self, tmp_path):
        config = make_config(tmp_path)
        path = journal_path(config.data_dir)
        journal = JobJournal(path)
        journal.record_submitted("job-0007", [POINTS[0]])
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"type": "point_terminal", "job_id": "job-0007", "in')
        # Boot exactly as a restart does (compact, reopen the journal),
        # then submit before anything else is journaled.
        service = ScenarioService(config)
        job = service.store.create([ScenarioSpec.from_dict(POINTS[1])])
        simulate_crash(service)
        assert list(replay_journal(path)) == ["job-0007", job.job_id]

    def test_a_torn_header_is_replaced_by_a_whole_one(self, tmp_path):
        config = make_config(tmp_path)
        path = journal_path(config.data_dir)
        os.makedirs(config.data_dir)
        with open(path, "w") as handle:
            handle.write('{"schema_version": 1, "type": "journ')
        simulate_crash(ScenarioService(config))
        assert read_log(path) == [
            {"type": "journal_header", "schema_version": JOURNAL_SCHEMA_VERSION}
        ]


class TestSubprocessKill:
    def test_sigkilled_serve_process_resumes_after_restart(self, tmp_path):
        faults = {
            "sentinel_dir": str(tmp_path / "sentinels"),
            "faults": {
                str(POINTS[-1]["seed"]): {
                    "kind": "slow",
                    "once": True,
                    "delay": 600.0,
                }
            },
        }
        env = dict(os.environ)
        env[CHAOS_ENV] = json.dumps(faults)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--data-dir",
            str(tmp_path / "data"),
            "--executor",
            CHAOS_EXECUTOR,
        ]
        root = os.path.join(os.path.dirname(__file__), "..", "..")

        def spawn():
            proc = subprocess.Popen(
                argv,
                cwd=root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            banner = proc.stdout.readline().strip()
            assert banner.startswith("serving on "), banner
            return proc, banner.split()[-1]

        proc, url = spawn()
        try:
            client = ServiceClient(url, timeout=10.0)
            job_id = client.submit(PAYLOAD)["job_id"]
            journal = journal_path(str(tmp_path / "data"))
            # Kill only once the slow point has consumed its "once"
            # fault: a SIGKILL before the sentinel exists would leave the
            # 600 s delay armed for the restarted server.
            sentinel = tmp_path / "sentinels" / f"fault-{POINTS[-1]['seed']}"
            assert wait_for(
                lambda: len(
                    replay_journal(journal).get(job_id).point_states
                    if replay_journal(journal).get(job_id)
                    else {}
                )
                >= len(POINTS) - 1
                and sentinel.exists()
            )
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        proc, url = spawn()
        try:
            recovered_line = proc.stdout.readline() + proc.stdout.readline()
            assert "recovered 1 unfinished job(s)" in recovered_line
            assert job_id in recovered_line
            client = ServiceClient(url, timeout=10.0)
            final = client.wait(job_id, timeout=60.0)
            assert final["status"] == "done"
            counts = final["counts"]
            # SIGKILL can land between a point's journal record and its
            # cache write (the journal is appended first), so the last
            # finished point may be recomputed; every earlier one must
            # dedupe through the cache, and nothing may be lost.
            assert counts["cached"] >= len(POINTS) - 2
            assert counts["cached"] >= 1
            assert counts["cached"] + counts["done"] == len(POINTS)
            client.shutdown()
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
