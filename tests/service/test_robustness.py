"""Fault tolerance at the service surface: retry, quarantine, cancel,
backpressure, and the client-side hardening.

Fault injection reuses the chaos harness's executor
(``repro.service.chaos.chaos_execute``), armed per-seed through the
environment — the same machinery the CI chaos job drives, exercised
here through the HTTP surface the way a client would see it.
"""

import threading
import time

import pytest

from repro.analysis.spec import ScenarioSpec
from repro.jsonlog import read_log
from repro.service import (
    JobStore,
    ScenarioService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    Worker,
)
from repro.service.chaos import CHAOS_EXECUTOR, SLOW_DELAY, armed_faults
from repro.service.journal import (
    journal_path,
    replay_journal,
)
from repro.service.worker import RetryPolicy, resolve_executor


def make_points(base_seed, count=3):
    return [
        {
            "protocol": "real-aa",
            "n": 3,
            "t": 0,
            "known_range": 8.0,
            "adversary": "none",
            "seed": base_seed + offset,
        }
        for offset in range(count)
    ]


def make_service(tmp_path, **overrides):
    settings = dict(
        port=0,
        cache_dir=str(tmp_path / "cache"),
        data_dir=str(tmp_path / "data"),
        executor=CHAOS_EXECUTOR,
        retry_base_delay=0.01,
    )
    settings.update(overrides)
    return ScenarioService(ServiceConfig(**settings))


def wait_for(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0, jitter=0.5)
        first = policy.delay("job-0001", 0, 1)
        assert first == policy.delay("job-0001", 0, 1)
        assert first != policy.delay("job-0001", 1, 1)
        for attempt in range(1, 8):
            delay = policy.delay("job-0001", 0, attempt)
            assert 0 < delay <= 2.0 * 1.5

    def test_backoff_grows_before_the_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=100.0, jitter=0.0)
        delays = [policy.delay("j", 0, attempt) for attempt in (1, 2, 3)]
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
        ]


class TestExecutorResolution:
    def test_default_is_the_real_executor(self):
        from repro.analysis.spec import execute_spec_point

        assert resolve_executor(None) is execute_spec_point

    def test_bad_paths_are_rejected_at_construction(self):
        with pytest.raises(ValueError):
            resolve_executor("no-colon-here")
        with pytest.raises(ValueError):
            resolve_executor("repro.service.worker:DOES_NOT_EXIST")


class TestDoneWithErrors:
    def test_poisoned_point_is_quarantined_not_fatal(self, tmp_path, client_pair):
        service, client = client_pair
        points = make_points(51000)
        faults = {points[1]["seed"]: {"kind": "raise", "once": False}}
        with armed_faults(faults, str(tmp_path / "sentinels")):
            job_id = client.submit({"points": points})["job_id"]
            final = client.wait(job_id, timeout=30.0)
        assert final["status"] == "done_with_errors"
        counts = final["counts"]
        assert counts["failed"] == 1
        assert counts["done"] + counts["cached"] == len(points) - 1
        statuses = [point["status"] for point in final["points"]]
        assert statuses[1] == "failed"
        assert "injected fault" in final["points"][1]["error"]
        kinds = [e["event"] for e in client.events(job_id)]
        assert "point_retry" in kinds and "point_failed" in kinds
        # The healthy points' rows are still served.
        rows = client.results(job_id)
        assert sum(1 for row in rows if row["row"]) == len(points) - 1

    def test_transient_fault_retries_to_done(self, tmp_path, client_pair):
        service, client = client_pair
        points = make_points(52000)
        faults = {points[0]["seed"]: {"kind": "raise", "once": True}}
        with armed_faults(faults, str(tmp_path / "sentinels")):
            job_id = client.submit({"points": points})["job_id"]
            final = client.wait(job_id, timeout=30.0)
        assert final["status"] == "done"
        kinds = [e["event"] for e in client.events(job_id)]
        assert "point_retry" in kinds and "point_failed" not in kinds


class TestCancellation:
    def test_http_cancel_mid_grid_is_consistent(self, tmp_path):
        points = make_points(53000, count=4)
        faults = {
            point["seed"]: {"kind": "slow", "once": False, "delay": SLOW_DELAY}
            for point in points
        }
        with armed_faults(faults, str(tmp_path / "sentinels")):
            with make_service(tmp_path) as service:
                client = ServiceClient(service.url, timeout=10.0)
                job_id = client.submit({"points": points})["job_id"]
                assert wait_for(
                    lambda: client.job(job_id)["status"] != "queued"
                )
                body = client.cancel(job_id)
                assert body["cancel_requested"] is True
                final = client.wait(job_id, timeout=30.0)
                assert final["status"] in ("cancelled", "done")
                counts = final["counts"]
                assert counts["pending"] == 0 and counts["running"] == 0
                kinds = [e["event"] for e in client.events(job_id)]
                assert "cancel_requested" in kinds

                # A second cancel of a terminal job is refused with 409.
                with pytest.raises(ServiceClientError) as excinfo:
                    client.cancel(job_id)
                assert excinfo.value.code == 409

                # Partial-JSONL consistency: the journal records each
                # point's terminal verdict exactly once, and the folded
                # states agree with the store's final counts.
                journal = journal_path(service.config.data_dir)
                folded = replay_journal(journal)[job_id]
                assert len(folded.point_states) == len(points)
                journaled = sorted(
                    state for state, _ in folded.point_states.values()
                )
                from_store = sorted(
                    point["status"] for point in final["points"]
                )
                assert journaled == from_store
                indices = [
                    record["index"]
                    for record in read_log(journal)
                    if record.get("type") == "point_terminal"
                    and record.get("job_id") == job_id
                ]
                assert sorted(indices) == sorted(set(indices))

    def test_cancel_unknown_job_is_404(self, client_pair):
        _, client = client_pair
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel("job-9999")
        assert excinfo.value.code == 404


class TestBackpressure:
    def test_overload_returns_429_while_healthz_stays_green(self, tmp_path):
        points = make_points(54000)
        faults = {
            point["seed"]: {"kind": "slow", "once": True, "delay": SLOW_DELAY}
            for point in points
        }
        with armed_faults(faults, str(tmp_path / "sentinels")):
            with make_service(tmp_path, max_queue_depth=1) as service:
                client = ServiceClient(service.url, timeout=10.0)
                first = client.submit({"points": points})["job_id"]
                assert wait_for(
                    lambda: client.job(first)["status"] != "queued"
                )
                second = client.submit({"points": points})["job_id"]
                with pytest.raises(ServiceClientError) as excinfo:
                    client.submit({"points": points})
                shed = excinfo.value
                assert shed.code == 429
                assert shed.retry_after is not None and shed.retry_after >= 1
                # Overload is not unhealth: liveness must stay green
                # while admission control sheds new jobs.
                assert client.healthy()
                assert client.wait(first, timeout=30.0)["status"] == "done"
                assert client.wait(second, timeout=30.0)["status"] == "done"
                # Once drained, submissions are accepted again.
                third = client.submit({"points": points})["job_id"]
                assert client.wait(third, timeout=30.0)["status"] == "done"

    def test_client_retries_ride_out_the_429(self, tmp_path):
        points = make_points(55000)
        faults = {
            point["seed"]: {"kind": "slow", "once": True, "delay": SLOW_DELAY}
            for point in points
        }
        with armed_faults(faults, str(tmp_path / "sentinels")):
            with make_service(tmp_path, max_queue_depth=1) as service:
                client = ServiceClient(service.url, timeout=10.0, retries=5)
                first = client.submit({"points": points})["job_id"]
                assert wait_for(
                    lambda: client.job(first)["status"] != "queued"
                )
                second = client.submit({"points": points})["job_id"]
                # With retries enabled the shed submission blocks and
                # retransmits until the queue drains, then succeeds.
                third = client.submit({"points": points})["job_id"]
                for job_id in (first, second, third):
                    assert client.wait(job_id, timeout=30.0)["status"] == "done"


class TestClientHardening:
    def test_query_urlencodes_filter_values(self, client_pair):
        _, client = client_pair
        # With f-string query building, '&' and '=' inside the value
        # would split into a bogus second filter and 400; urlencoded,
        # the service sees one (unmatched) filter and returns [].
        assert client.query(adversary="a b&ok=true") == []
        assert client.query(protocol="real-aa&n") == []

    def test_query_rejects_unknown_fields(self, client_pair):
        _, client = client_pair
        with pytest.raises(ServiceClientError) as excinfo:
            client.query(nonsense="1")
        assert excinfo.value.code == 400

    def test_wait_deadline_checked_before_sleeping(self, tmp_path):
        points = make_points(56000)
        faults = {
            point["seed"]: {"kind": "slow", "once": False, "delay": SLOW_DELAY}
            for point in points
        }
        with armed_faults(faults, str(tmp_path / "sentinels")):
            with make_service(tmp_path) as service:
                client = ServiceClient(service.url, timeout=10.0)
                job_id = client.submit({"points": points})["job_id"]
                started = time.monotonic()
                # A huge poll interval must not buy extra time past the
                # deadline: wait() clamps the sleep to the remaining
                # budget and raises as soon as it expires.
                with pytest.raises(TimeoutError) as excinfo:
                    client.wait(job_id, timeout=0.3, interval=30.0)
                elapsed = time.monotonic() - started
                assert elapsed < 5.0
                # The error carries the last observed status.
                assert job_id in str(excinfo.value)
                assert (
                    "queued" in str(excinfo.value)
                    or "running" in str(excinfo.value)
                )
                service.cancel_job(job_id)

    def test_retries_recover_from_a_connection_error(self, tmp_path):
        # Nothing listens on the target port for the first ~0.2s; a
        # retrying client must absorb the connection refusals.
        with make_service(tmp_path) as service:
            host, port = service.address
            probe = ServiceClient(f"http://{host}:{port}", timeout=5.0)
            assert probe.healthy()
        # Service is now down; port is free again.
        late = ScenarioService(
            ServiceConfig(
                host=host,
                port=port,
                cache_dir=str(tmp_path / "cache"),
                data_dir=str(tmp_path / "data"),
            )
        )
        starter = threading.Timer(0.3, late.start)
        starter.start()
        try:
            client = ServiceClient(
                f"http://{host}:{port}", timeout=5.0, retries=8, backoff=0.1
            )
            assert client.info()["service"]
        finally:
            starter.join()
            late.shutdown()

    def test_zero_retries_fail_fast(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=1.0)
        with pytest.raises(OSError):
            client.info()


class TestWorkerDrainLoop:
    def test_job_level_crash_fails_the_job_not_the_thread(self):
        specs = [
            ScenarioSpec(
                protocol="real-aa", n=3, t=0, known_range=8.0, seed=seed
            )
            for seed in range(57000, 57002)
        ]
        store = JobStore()
        worker = Worker(store, no_cache=True)
        original = worker._serve_cached
        calls = []

        def boom(job):
            if not calls:
                calls.append(job.job_id)
                raise RuntimeError("job-level explosion")
            return original(job)

        worker._serve_cached = boom
        worker.start()
        try:
            doomed = store.create(specs)
            worker.submit(doomed)
            assert wait_for(lambda: store.job_status(doomed) == "failed")
            kinds = [e["event"] for e in store.events_since(doomed, 0)]
            assert "error" in kinds
            assert store.counts(doomed)["cancelled"] == len(specs)
            # The drain loop survived: the next job runs to completion.
            healthy = store.create(specs)
            worker.submit(healthy)
            assert wait_for(lambda: store.job_status(healthy) == "done")
        finally:
            worker.stop()
            worker.join(timeout=15)
        assert not worker.is_alive()


@pytest.fixture
def client_pair(tmp_path):
    with make_service(tmp_path) as service:
        yield service, ServiceClient(service.url, timeout=10.0)
