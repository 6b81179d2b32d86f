"""Invariant oracles: turn a scenario result into a list of violations.

Each oracle checks one clause of the AA contract (plus execution hygiene)
over a finished :class:`~repro.resilience.scenario.ScenarioResult`:

``no-exception``
    The execution must not have died on an unhandled exception — whatever
    the adversary, scheduler, or fault plan did, crashing is never an
    admissible outcome for the simulator.
``termination``
    Every honest party produced an output (for async runs: the execution
    completed within its step budget).
``validity``
    Convex-hull validity: every honest output lies within the honest
    inputs' hull — the interval ``[min, max]`` on ℝ, the metric convex
    hull on trees.
``agreement``
    ε-agreement on ℝ (output spread ≤ ε), 1-agreement on trees (pairwise
    output distance ≤ 1).
``round-bound``
    The execution finished within the budget recorded at execution time
    (:func:`~repro.resilience.scenario.round_budget`: Theorem 3 / Theorem
    4, or the async step budget).

:func:`evaluate` runs them all and returns the violations — an empty list
is a healthy run; every flywheel and campaign point is judged by it, and
:func:`check_violations` is the one "execute a spec, name what it
violates" call the shrinker and the corpus share.  ``termination``,
``validity`` and ``agreement`` format the findings of the AA judgement
the outcome holds (``outcome.judgement``, made once per execution by
:func:`repro.core.api.judge_real` / :func:`~repro.core.api.judge_tree`),
which the outcome verdicts read too, so a row's ``ok`` and its oracles
cannot disagree.  The judgement is
total: it never raises on garbage outputs (``NaN``, ``None``,
non-vertices, ints too large for a float); garbage surfaces as violations
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..analysis.spec import ScenarioSpec
from .scenario import Outcome, ScenarioResult, execute_scenario

#: Every oracle name, in evaluation order.
ORACLE_NAMES = (
    "no-exception",
    "termination",
    "validity",
    "agreement",
    "round-bound",
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which oracle tripped, and why."""

    oracle: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        """JSON form for campaign rows and corpus files."""
        return {"oracle": self.oracle, "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "Violation":
        """Rebuild from :meth:`to_dict` output."""
        return cls(oracle=str(payload["oracle"]), detail=str(payload["detail"]))


def _check_termination(result: ScenarioResult, outcome: Outcome) -> List[Violation]:
    """Every honest party has an output; async runs completed."""
    violations: List[Violation] = []
    execution: Any = outcome.execution
    if result.spec.entry.asynchronous and not execution.completed:
        stall = execution.stall
        detail = stall.summary() if stall is not None else "execution did not complete"
        violations.append(Violation("termination", detail))
    judgement = outcome.judgement
    if judgement.missing:
        violations.append(
            Violation("termination", f"honest parties {list(judgement.missing)} have no output")
        )
    if not judgement.honest:
        violations.append(Violation("termination", "no honest outputs at all"))
    return violations


def _check_contract(outcome: Outcome, on_tree: bool) -> List[Violation]:
    """Validity and agreement: ε on ℝ, 1 on trees."""
    judgement = outcome.judgement
    violations: List[Violation] = []
    if judgement.garbage:
        kind = "non-vertices" if on_tree else "non-real values"
        outputs = [outcome.honest_outputs[pid] for pid in judgement.garbage]
        detail = f"honest parties {list(judgement.garbage)} output {kind} {outputs!r}"
        violations.append(Violation("validity", detail))
    if judgement.outside:
        lo, hi = judgement.hull
        hull = "the honest inputs' hull" if on_tree else f"honest input hull [{lo:g}, {hi:g}]"
        detail = f"outputs of {list(judgement.outside)} outside {hull}"
        violations.append(Violation("validity", detail))
    if judgement.spread > judgement.bound:
        if on_tree:
            detail = f"honest output diameter {judgement.spread} exceeds 1"
        else:
            detail = f"output spread {judgement.spread:g} exceeds epsilon {judgement.bound:g}"
        violations.append(Violation("agreement", detail))
    return violations


def _check_round_bound(result: ScenarioResult, outcome: Outcome) -> List[Violation]:
    """The execution stayed within its recorded round/step budget."""
    if result.round_limit is None or outcome.rounds <= result.round_limit:
        return []
    return [
        Violation(
            "round-bound",
            f"ran {outcome.rounds} rounds, budget was {result.round_limit}",
        )
    ]


def evaluate(result: ScenarioResult) -> List[Violation]:
    """All violations of one finished scenario execution.

    A captured exception short-circuits: a crashed run has no outputs
    worth judging, so only ``no-exception`` fires.  Likewise validity and
    agreement are only judged when at least one honest output exists —
    a fully stalled run is a termination violation, not four.  The AA
    findings format the judgement the outcome already holds; nothing is
    judged twice.
    """
    outcome = result.outcome
    if outcome is None:  # the run raised
        return [Violation("no-exception", str(result.error))]
    violations = _check_termination(result, outcome)
    if outcome.judgement.honest > len(outcome.judgement.missing):
        violations.extend(_check_contract(outcome, result.spec.entry.on_tree))
    violations.extend(_check_round_bound(result, outcome))
    return violations


def check_violations(spec: ScenarioSpec) -> Tuple[str, ...]:
    """Execute a spec and return the violated oracle names (sorted)."""
    return tuple(violated_oracles(evaluate(execute_scenario(spec))))


def violated_oracles(violations: List[Violation]) -> List[str]:
    """The sorted, de-duplicated oracle names of a violation list."""
    return sorted({violation.oracle for violation in violations})
