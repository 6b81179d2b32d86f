"""The scenario service end to end: HTTP round trips, dedupe, shutdown."""

import json

import pytest

from repro.service import (
    PlanError,
    ScenarioService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
)

#: A small mixed-backend grid (4 points) used by most round-trip tests.
GRID_PAYLOAD = {
    "base": {
        "protocol": "real-aa",
        "n": 4,
        "t": 1,
        "known_range": 8.0,
        "adversary": "silent",
        "seed": 3,
    },
    "grid": {"t": [0, 1], "backend": ["reference", "batch"]},
}

#: Two recorded points whose traces the diff/report endpoints serve.
RECORDED_PAYLOAD = {
    "points": [
        {
            "protocol": "real-aa",
            "n": 4,
            "t": 1,
            "known_range": 8.0,
            "adversary": "none",
            "seed": 1,
            "record": True,
        },
        {
            "protocol": "real-aa",
            "n": 4,
            "t": 1,
            "known_range": 8.0,
            "adversary": "crash:2",
            "corrupt": [0],
            "seed": 1,
            "record": True,
        },
    ]
}


@pytest.fixture
def service(tmp_path):
    """A running service on a free loopback port with isolated dirs."""
    config = ServiceConfig(
        port=0,
        cache_dir=str(tmp_path / "cache"),
        data_dir=str(tmp_path / "data"),
    )
    with ScenarioService(config) as running:
        yield running


@pytest.fixture
def client(service):
    """An HTTP client bound to the running test service."""
    return ServiceClient(service.url, timeout=10.0)


class TestEndpoints:
    def test_info_and_health(self, client):
        info = client.info()
        assert info["service"]
        assert any("/jobs" in endpoint for endpoint in info["endpoints"])
        assert client.healthy()

    def test_submit_poll_results_round_trip(self, client):
        accepted = client.submit(GRID_PAYLOAD)
        assert accepted["points"] == 4
        status = client.wait(accepted["job_id"], timeout=60.0)
        assert status["status"] == "done"
        assert status["counts"]["done"] + status["counts"]["cached"] == 4

        records = client.results(accepted["job_id"])
        assert len(records) == 4
        assert {record["row"]["backend"] for record in records} == {
            "reference",
            "batch",
        }
        assert all(record["row"]["ok"] for record in records)

    def test_jobs_listing_and_events(self, client):
        accepted = client.submit(GRID_PAYLOAD)
        client.wait(accepted["job_id"], timeout=60.0)
        listed = client.jobs()
        assert [job["job_id"] for job in listed] == [accepted["job_id"]]

        events = client.events(accepted["job_id"])
        kinds = [event["event"] for event in events]
        assert "cache_scan" in kinds
        assert "results_persisted" in kinds
        later = client.events(accepted["job_id"], since=len(events))
        assert later == []

    def test_trace_report_and_diff(self, client):
        accepted = client.submit(RECORDED_PAYLOAD)
        client.wait(accepted["job_id"], timeout=60.0)
        job_id = accepted["job_id"]

        trace = client.trace(job_id, 0)
        assert '"type": "run_header"' in trace
        report = client.report(job_id, 0)
        assert "real-aa" in report

        same = client.diff(job_id, 0, 0)
        assert same["equivalent"] is True
        different = client.diff(job_id, 0, 1)
        assert different["equivalent"] is False
        assert different["differences"]

    def test_query_accumulates_rows(self, client):
        accepted = client.submit(GRID_PAYLOAD)
        client.wait(accepted["job_id"], timeout=60.0)
        everything = client.query()
        assert len(everything) == 4
        batch_only = client.query(backend="batch")
        assert len(batch_only) == 2
        assert client.query(ok="true", n="4") == everything

    def test_query_survives_restart(self, tmp_path):
        config = ServiceConfig(
            port=0,
            cache_dir=str(tmp_path / "cache"),
            data_dir=str(tmp_path / "data"),
        )
        with ScenarioService(config) as first:
            client = ServiceClient(first.url, timeout=10.0)
            accepted = client.submit(GRID_PAYLOAD)
            client.wait(accepted["job_id"], timeout=60.0)
        with ScenarioService(config) as second:
            rows = ServiceClient(second.url, timeout=10.0).query()
            assert len(rows) == 4
            assert {row["job_id"] for row in rows} == {accepted["job_id"]}


class TestDedupe:
    def test_identical_resubmission_is_cached(self, client):
        first = client.submit(GRID_PAYLOAD)
        done = client.wait(first["job_id"], timeout=60.0)
        assert done["counts"]["cached"] == 0

        second = client.submit(GRID_PAYLOAD)
        status = client.wait(second["job_id"], timeout=60.0)
        assert status["status"] == "done"
        # The dedupe contract: at least 90% of a repeat grid is served
        # from the cache (here: all of it).
        assert status["counts"]["cached"] >= 0.9 * 4

        first_rows = [r["row"] for r in client.results(first["job_id"])]
        second_rows = [r["row"] for r in client.results(second["job_id"])]
        assert first_rows == second_rows

    def test_cache_shared_with_local_sweeps(self, tmp_path, client, service):
        """Rows computed by ``run_grid`` directly are service cache hits."""
        from repro.analysis import run_grid
        from repro.analysis.spec import SPEC_RUNNER, SPEC_SWEEP_NAME
        from repro.service import plan_points

        specs = plan_points(GRID_PAYLOAD)
        run_grid(
            SPEC_SWEEP_NAME,
            SPEC_RUNNER,
            [spec.to_dict() for spec in specs],
            jobs=1,
            cache_dir=service.config.cache_dir,
        )
        accepted = client.submit(GRID_PAYLOAD)
        status = client.wait(accepted["job_id"], timeout=60.0)
        assert status["counts"]["cached"] == 4


class TestShutdown:
    def test_graceful_shutdown_mid_job(self, tmp_path):
        config = ServiceConfig(
            port=0, cache_dir=str(tmp_path / "cache"), no_cache=True
        )
        payload = {
            "base": {
                "protocol": "tree-aa",
                "n": 6,
                "t": 1,
                "tree": "caterpillar:6x3",
            },
            "grid": {"seed": list(range(12))},
        }
        service = ScenarioService(config).start()
        try:
            job_id = service.submit(payload)
            service.shutdown()
        finally:
            service.shutdown()
        job = service.store.get(job_id)
        assert job.status in ("done", "cancelled")
        for point in job.points:
            assert point.status in ("done", "cached", "cancelled")

    def test_http_shutdown_stops_worker(self, tmp_path):
        config = ServiceConfig(port=0, no_cache=True)
        with ScenarioService(config) as service:
            client = ServiceClient(service.url, timeout=10.0)
            client.shutdown()
            service.worker.join(timeout=10)
            assert not service.worker.is_alive()

    def test_submissions_after_stop_are_rejected(self, tmp_path):
        config = ServiceConfig(port=0, no_cache=True)
        with ScenarioService(config) as service:
            client = ServiceClient(service.url, timeout=10.0)
            service.worker.stop()
            service.worker.join(timeout=10)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(RECORDED_PAYLOAD)
            assert excinfo.value.status == 503


class TestErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("job-9999")
        assert excinfo.value.status == 404

    def test_bad_payload_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"points": []})
        assert excinfo.value.status == 400

    def test_file_tree_is_400(self, client, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text("{}")
        spec = {"protocol": "tree-aa", "n": 4, "t": 1, "tree": f"@{path}"}
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"points": [spec]})
        assert excinfo.value.status == 400
        assert "file trees" in str(excinfo.value)

    def test_bad_filter_field_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.query(colour="red")
        assert excinfo.value.status == 400

    def test_unrecorded_point_trace_is_400(self, client):
        accepted = client.submit(GRID_PAYLOAD)
        client.wait(accepted["job_id"], timeout=60.0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.trace(accepted["job_id"], 0)
        assert excinfo.value.status == 400
        assert "record" in str(excinfo.value)

    def test_in_process_submit_validates(self, service):
        with pytest.raises(PlanError):
            service.submit({"nothing": True})


class TestPoolMode:
    def test_pool_execution_matches_inline(self, tmp_path):
        inline_rows = _run_rows(tmp_path / "inline", pool_jobs=1)
        pooled_rows = _run_rows(tmp_path / "pool", pool_jobs=2)
        assert inline_rows == pooled_rows


def _run_rows(root, pool_jobs):
    """Run the standard grid on a fresh service; return its result rows."""
    config = ServiceConfig(
        port=0,
        cache_dir=str(root / "cache"),
        data_dir=str(root / "data"),
        pool_jobs=pool_jobs,
    )
    with ScenarioService(config) as service:
        client = ServiceClient(service.url, timeout=10.0)
        accepted = client.submit(GRID_PAYLOAD)
        client.wait(accepted["job_id"], timeout=120.0)
        records = client.results(accepted["job_id"])
    return [json.dumps(record["row"], sort_keys=True) for record in records]
