"""Soak mode: the seeded stream through the service, judged like the flywheel."""

from __future__ import annotations

import pytest

from repro.analysis.spec import ScenarioSpec, execute_spec_point
from repro.analysis.strategies import spec_stream
from repro.flywheel import run_soak
from repro.flywheel.oracles import batch_replayable, evaluate_point
from repro.flywheel.selftest import PERTURBATIONS, perturb_batch_verdicts
from repro.service import ScenarioService, ServiceClient, ServiceConfig

pytest.importorskip("numpy")


class LocalClient:
    """The client surface ``run_soak`` uses, executing points in-process.

    Batch rows pass through ``perturb`` — a stand-in for an engine (or a
    service) that returns a different row than the reference.
    """

    def __init__(self, perturb):
        self.perturb = perturb
        self.results_by_job = {}

    def submit(self, payload):
        job_id = f"job-{len(self.results_by_job)}"
        records = []
        for index, point in enumerate(payload["points"]):
            spec = ScenarioSpec.from_dict(point)
            row = execute_spec_point(spec)
            if spec.backend == "batch":
                row = self.perturb(dict(row))
            status = "done" if row is not None else "failed"
            records.append(
                {"type": "point", "index": index, "row": row, "status": status}
            )
        self.results_by_job[job_id] = records
        return {"job_id": job_id}

    def wait(self, job_id, timeout):
        return {"status": "done"}

    def results(self, job_id):
        return self.results_by_job[job_id]


def test_service_soak_has_no_divergences(tmp_path):
    config = ServiceConfig(
        port=0,
        cache_dir=str(tmp_path / "cache"),
        data_dir=str(tmp_path / "data"),
    )
    with ScenarioService(config) as service:
        client = ServiceClient(service.url, timeout=30.0)
        report = run_soak(client, seed=0, count=40, batch=20, timeout=120.0)
    assert (report.executed, report.compared, report.reference_only) == (40, 32, 8)
    assert report.divergences == []
    assert report.ok
    assert len(report.jobs) == 6  # per batch: reference, batch, reference-only


def test_perturbed_rows_diverge_with_the_flywheel_detail():
    report = run_soak(
        LocalClient(perturb_batch_verdicts), seed=0, count=10, batch=5
    )
    specs = list(spec_stream(0, 10))
    paired = [index for index, spec in enumerate(specs) if batch_replayable(spec)]
    assert report.compared == len(paired) > 0
    assert [record["index"] for record in report.divergences] == paired
    for record in report.divergences:
        spec = specs[record["index"]]
        cell = evaluate_point(spec, perturb=PERTURBATIONS["verdicts"])
        assert record["spec"] == spec.to_dict()
        assert record["oracles"] == ["backend-parity"]
        assert record["detail"] == cell["oracles"]["backend-parity"]["detail"]
    assert not report.ok


def test_unperturbed_local_soak_is_clean():
    report = run_soak(LocalClient(lambda row: row), seed=0, count=10, batch=5)
    assert report.compared > 0 and report.ok


def test_point_without_a_row_diverges_as_an_error_side():
    report = run_soak(LocalClient(lambda row: None), seed=0, count=10, batch=5)
    assert report.compared > 0
    assert len(report.divergences) == report.compared
    assert all(
        record["detail"].endswith("batch=('error', 'point failed')")
        for record in report.divergences
    )
