"""Soak mode: drive the flywheel's differential load through the service.

Where :func:`~repro.flywheel.engine.run_flywheel` executes points
in-process, :func:`run_soak` feeds the same seeded stream to a running
scenario service (:mod:`repro.service`) as batches of paired jobs — each
batch-replayable point submitted once per backend — and judges each pair
of result rows with the flywheel's own ``backend-parity`` cell, detail
and all (a point the service could not run is an error side).  That makes
one campaign serve two purposes: a differential sweep *and* a sustained
load/recovery test of the service itself (combine with the chaos
harness's fault injection to soak a service that is being killed and
restarted underneath the campaign).

Reference-only points (``noise``/``asym`` adversaries) are submitted on
the reference backend alone: they exercise the service's execution path
but have no batch twin to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

from ..analysis.strategies import spec_stream
from .oracles import Side, _check_backend_parity, batch_replayable

#: Points per submitted job; small enough that service restarts mid-soak
#: re-run little, large enough to amortise HTTP round trips.
DEFAULT_BATCH = 50


@dataclass
class SoakReport:
    """What one soak pass observed."""

    executed: int = 0
    compared: int = 0
    reference_only: int = 0
    jobs: List[str] = field(default_factory=list)
    divergences: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        return (
            f"soak: {self.executed} points over {len(self.jobs)} jobs, "
            f"{self.compared} backend pairs compared, "
            f"{self.reference_only} reference-only, "
            f"{len(self.divergences)} divergences"
        )


def _side(record: Dict[str, Any]) -> Side:
    """A service point record as one engine's side of the parity check."""
    row = record.get("row")
    if row is None:
        return ("error", f"point {record.get('status')}")
    return ("ok", row)


def run_soak(
    client: Any,
    *,
    seed: int,
    count: int,
    batch: int = DEFAULT_BATCH,
    timeout: float = 300.0,
) -> SoakReport:
    """Stream ``count`` seeded points through the service, comparing engines.

    ``client`` is a :class:`~repro.service.client.ServiceClient` (any
    object with ``submit``/``wait``/``results`` will do).  Each batch
    becomes two jobs — the reference points and their batch twins — so
    the comparison is between rows computed by *separate* service jobs,
    which is exactly the replayability claim the service makes.
    """
    report = SoakReport()
    specs = list(spec_stream(seed, count))
    for start in range(0, len(specs), batch):
        chunk = specs[start : start + batch]
        paired_at = [
            (start + i, s) for i, s in enumerate(chunk) if batch_replayable(s)
        ]
        paired = [s for _, s in paired_at]
        solo = [s for s in chunk if not batch_replayable(s)]
        jobs: List[tuple] = []
        if paired:
            for backend in ("reference", "batch"):
                payload = {
                    "points": [
                        replace(s, backend=backend).to_dict() for s in paired
                    ]
                }
                jobs.append((backend, client.submit(payload)["job_id"]))
        if solo:
            payload = {"points": [s.to_dict() for s in solo]}
            jobs.append(("reference-only", client.submit(payload)["job_id"]))
        rows: Dict[str, List[Dict[str, Any]]] = {}
        for backend, job_id in jobs:
            client.wait(job_id, timeout=timeout)
            rows[backend] = [
                r
                for r in client.results(job_id)
                if r.get("type") == "point"
            ]
            report.jobs.append(job_id)
        report.executed += len(chunk)
        report.reference_only += len(solo)
        for offset, (index, spec) in enumerate(paired_at):
            cell = _check_backend_parity(
                _side(rows["reference"][offset]), _side(rows["batch"][offset])
            )
            report.compared += 1
            if cell["status"] == "divergence":
                report.divergences.append(
                    {
                        "index": index,
                        "spec": spec.to_dict(),
                        "oracles": ["backend-parity"],
                        "detail": cell["detail"],
                    }
                )
    return report
