"""The resilience interpreter: execute a spec, capture what happened as data.

Every resilience experiment is a :class:`~repro.analysis.spec.ScenarioSpec`
— the campaign generator draws them from a seeded RNG, the delta-debugger
edits them, and ``tests/corpus/`` files store them.  :func:`run_scenario`
runs one over the same code path as :func:`~repro.analysis.spec
.execute_spec_point` and keeps what that run returns — the protocol
outcome, which holds the execution and its one AA judgement, and the
spec's result row — next to the round budget and the chaos behaviour
log.

:func:`execute_scenario` never raises for protocol-level failures —
unhandled exceptions are captured into the result, where the
``no-exception`` oracle turns them into violations.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis.spec import ScenarioSpec, SpecError, run_spec_point
from ..core.api import RealAAOutcome, TreeAAOutcome
from ..engine.errors import UnsupportedBackendError

#: What a spec's protocol row returns: judged on a tree or on ℝ.
Outcome = Union[TreeAAOutcome, RealAAOutcome]


@dataclass
class ScenarioResult:
    """What happened when a spec ran: its outcome and its result row.

    Everything the invariant oracles need is here — including a captured
    unhandled exception, so a crashing execution is a *result* (for the
    ``no-exception`` oracle) rather than a crashed campaign.
    """

    spec: ScenarioSpec
    #: The protocol outcome (``None`` if the run raised): the execution,
    #: the honest inputs and outputs, the rounds and the AA judgement.
    outcome: Optional[Outcome] = None
    #: The spec's JSON result row (:func:`~repro.analysis.spec
    #: .execute_spec_point`'s), empty if the run crashed.
    row: Dict[str, Any] = field(default_factory=dict)
    #: The bound the ``round-bound`` oracle checks the outcome's rounds
    #: against (:func:`round_budget`; ``None`` = none recorded).
    round_limit: Optional[int] = None
    #: The chaos adversary's behaviour log (the shrinker scripts from it).
    chaos_log: List[Tuple[int, int, str]] = field(default_factory=list)
    #: ``"ExcType: message"`` plus final traceback line, if the run crashed.
    error: Optional[str] = None


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
    log = getattr(adversary, "log", None)
    return ScenarioResult(
        spec=spec,
        outcome=outcome,
        row=row,
        round_limit=round_budget(spec),
        chaos_log=[tuple(entry) for entry in log or ()],
    )


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
        return ScenarioResult(spec=spec, error=_capture_error(exc))
