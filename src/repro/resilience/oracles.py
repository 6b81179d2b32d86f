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
is a healthy run; every flywheel and campaign point is judged by it.
``termination``, ``validity`` and ``agreement`` format the findings of the
one AA judgement (:func:`repro.core.api.judge_real` /
:func:`~repro.core.api.judge_tree`) that the outcome verdicts read too,
so a row's ``ok`` and its oracles cannot disagree.  The judgement is
total: it never raises on garbage outputs (``NaN``, ``None``,
non-vertices, ints too large for a float); garbage surfaces as violations
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.api import AAJudgement, judge_real, judge_tree
from .scenario import ScenarioResult

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


def _check_termination(result: ScenarioResult, judgement: AAJudgement) -> List[Violation]:
    """Every honest party has an output; async runs completed."""
    violations: List[Violation] = []
    if not result.completed:
        violations.append(
            Violation("termination", result.stall or "execution did not complete")
        )
    if judgement.missing:
        violations.append(
            Violation("termination", f"honest parties {list(judgement.missing)} have no output")
        )
    if not judgement.honest:
        violations.append(Violation("termination", "no honest outputs at all"))
    return violations


def _check_contract(
    result: ScenarioResult, judgement: AAJudgement, on_tree: bool
) -> List[Violation]:
    """Validity and agreement: ε on ℝ, 1 on trees."""
    if on_tree and result.tree_obj is None:
        return [Violation("validity", "no tree attached to a tree-protocol result")]
    violations: List[Violation] = []
    if judgement.garbage:
        kind = "non-vertices" if on_tree else "non-real values"
        outputs = [result.honest_outputs[pid] for pid in judgement.garbage]
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


def _check_round_bound(result: ScenarioResult) -> List[Violation]:
    """The execution stayed within its recorded round/step budget."""
    if result.round_limit is None:
        return []
    if result.rounds <= result.round_limit:
        return []
    return [
        Violation(
            "round-bound",
            f"ran {result.rounds} rounds, budget was {result.round_limit}",
        )
    ]


def evaluate(result: ScenarioResult) -> List[Violation]:
    """All violations of one finished scenario execution.

    A captured exception short-circuits: a crashed run has no outputs
    worth judging, so only ``no-exception`` fires.  Likewise validity and
    agreement are only judged when at least one honest output exists —
    a fully stalled run is a termination violation, not four.
    """
    if result.error is not None:
        return [Violation("no-exception", result.error)]
    inputs, outputs = result.honest_inputs, result.honest_outputs
    on_tree = result.spec.entry.on_tree
    if on_tree:
        judgement = judge_tree(result.tree_obj, inputs, outputs)
    else:
        judgement = judge_real(inputs, outputs, result.spec.epsilon)
    violations = _check_termination(result, judgement)
    if judgement.honest > len(judgement.missing):
        violations.extend(_check_contract(result, judgement, on_tree))
    violations.extend(_check_round_bound(result))
    return violations


def violated_oracles(violations: List[Violation]) -> List[str]:
    """The sorted, de-duplicated oracle names of a violation list."""
    return sorted({violation.oracle for violation in violations})
