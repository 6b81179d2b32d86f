"""The resilience interpreter: execute a spec, capture what happened as data.

Every resilience experiment is a :class:`~repro.analysis.spec.ScenarioSpec`
— the campaign generator draws them from a seeded RNG, the delta-debugger
edits them, and ``tests/corpus/`` files store them.  :func:`run_scenario`
runs one over the same code path as :func:`~repro.analysis.spec
.execute_spec_point` and records everything the invariant oracles judge:
outputs, the round budget, fault counters, the chaos behaviour log, and
the spec's result row.

:func:`execute_scenario` never raises for protocol-level failures —
unhandled exceptions are captured into the result, where the
``no-exception`` oracle turns them into violations.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.spec import ScenarioSpec, SpecError, run_spec_point
from ..engine.errors import UnsupportedBackendError
from ..net.messages import PartyId


@dataclass
class ScenarioResult:
    """What happened when a spec ran: outputs, verdict inputs, faults.

    Everything the invariant oracles need is here — including a captured
    unhandled exception, so a crashing execution is a *result* (for the
    ``no-exception`` oracle) rather than a crashed campaign.
    """

    spec: ScenarioSpec
    honest_inputs: Dict[PartyId, Any] = field(default_factory=dict)
    honest_outputs: Dict[PartyId, Any] = field(default_factory=dict)
    #: Synchronous rounds executed, or asynchronous delivery steps.
    rounds: int = 0
    #: The bound the ``round-bound`` oracle checks ``rounds`` against
    #: (:func:`round_budget`; ``None`` = none recorded).
    round_limit: Optional[int] = None
    #: Async completion (synchronous executions always complete).
    completed: bool = True
    #: One-line stall diagnosis for incomplete async runs.
    stall: Optional[str] = None
    #: ``"ExcType: message"`` plus final traceback line, if the run crashed.
    error: Optional[str] = None
    #: The chaos adversary's behaviour log (the shrinker scripts from it).
    chaos_log: List[Tuple[int, int, str]] = field(default_factory=list)
    #: Fault-injection counters (all zero without a fault plan).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: The reconstructed tree (tree protocols only; oracles need it).
    tree_obj: Any = None
    #: The spec's JSON result row (:func:`~repro.analysis.spec
    #: .execute_spec_point`'s), empty if the run crashed.
    row: Dict[str, Any] = field(default_factory=dict)


def _capture_error(exc: BaseException) -> str:
    """``"ExcType: message @ file:line"`` for the result's error field."""
    frames = traceback.extract_tb(exc.__traceback__)
    location = ""
    if frames:
        last = frames[-1]
        location = f" @ {last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
    return f"{type(exc).__name__}: {exc}{location}"


def round_budget(spec: ScenarioSpec) -> int:
    """The most rounds (async: delivery steps) a run of ``spec`` may take:
    its protocol row's :attr:`~repro.analysis.spec.SpecProtocol.budget`."""
    return spec.entry.budget(spec)


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute a spec and capture its result; exceptions propagate."""
    adversary = spec.make_adversary()
    outcome, row = run_spec_point(spec, adversary)
    execution = outcome.execution
    result = ScenarioResult(
        spec=spec,
        honest_inputs=dict(outcome.honest_inputs),
        honest_outputs=dict(outcome.honest_outputs),
        rounds=outcome.rounds,
        round_limit=round_budget(spec),
        fault_counts={
            "dropped": execution.trace.faults_dropped,
            "duplicated": execution.trace.faults_duplicated,
            "corrupted": execution.trace.faults_corrupted,
        },
        tree_obj=getattr(outcome, "tree", None),
        row=row,
    )
    if spec.entry.asynchronous:
        result.completed = execution.completed
        if execution.stall is not None:
            result.stall = execution.stall.summary()
    log = getattr(adversary, "log", None)
    if log is not None:
        result.chaos_log = [tuple(entry) for entry in log]
    return result


def execute_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Interpret a spec; capture any unhandled exception as data.

    The only exceptions that escape are :class:`~repro.analysis.spec
    .SpecError` (malformed data — a bug in the caller, not an execution
    outcome) and :class:`~repro.engine.errors.UnsupportedBackendError`
    (``spec.backend`` cannot replay this spec at all — a dispatch
    problem, not an execution outcome).
    """
    try:
        return run_scenario(spec)
    except (SpecError, UnsupportedBackendError):
        raise
    except Exception as exc:  # noqa: BLE001 - captured for the oracle
        return ScenarioResult(
            spec=spec, error=_capture_error(exc), completed=False
        )
