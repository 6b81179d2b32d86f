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
    The execution finished within the theoretical bound recorded at
    execution time (Theorem 3 / Theorem 4 budgets, or the async step
    budget).

:func:`evaluate` runs them all and returns the violations — an empty list
is the campaign engine's definition of a healthy run.  Oracles are total:
they never raise on garbage outputs (``NaN``, ``None``, non-vertices);
garbage surfaces as violations instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.spec import BASELINE_PROTOCOL
from .scenario import ScenarioResult

#: Protocols judged by the tree oracles (convex-hull validity, 1-agreement).
TREE_PROTOCOLS = ("path-aa", "tree-aa", BASELINE_PROTOCOL)

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


def _is_real(value: Any) -> bool:
    """A finite real number (bools excluded — they are not outputs)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(float(value))
    )


def _check_termination(result: ScenarioResult) -> List[Violation]:
    """Every honest party has an output; async runs completed."""
    violations: List[Violation] = []
    if not result.completed:
        violations.append(
            Violation(
                "termination",
                result.stall or "execution did not complete",
            )
        )
    missing = sorted(
        pid for pid, value in result.honest_outputs.items() if value is None
    )
    if missing:
        violations.append(
            Violation("termination", f"honest parties {missing} have no output")
        )
    if not result.honest_outputs:
        violations.append(Violation("termination", "no honest outputs at all"))
    return violations


def _check_real(result: ScenarioResult) -> List[Violation]:
    """Validity and ε-agreement on ℝ.

    ``None`` outputs are the termination oracle's finding, not a validity
    one, so they are excluded here.
    """
    violations: List[Violation] = []
    outputs = {
        pid: v for pid, v in result.honest_outputs.items() if v is not None
    }
    bad = sorted(pid for pid, v in outputs.items() if not _is_real(v))
    if bad:
        violations.append(
            Violation(
                "validity",
                f"honest parties {bad} output non-real values "
                f"{[outputs[pid] for pid in bad]!r}",
            )
        )
    values = {pid: float(v) for pid, v in outputs.items() if _is_real(v)}
    if not values:
        return violations
    inputs = [float(v) for v in result.honest_inputs.values()]
    lo, hi = min(inputs), max(inputs)
    outside = sorted(pid for pid, v in values.items() if not lo <= v <= hi)
    if outside:
        violations.append(
            Violation(
                "validity",
                f"outputs of {outside} outside honest input hull "
                f"[{lo:g}, {hi:g}]",
            )
        )
    spread = max(values.values()) - min(values.values())
    epsilon = result.spec.epsilon
    if spread > epsilon:
        violations.append(
            Violation(
                "agreement",
                f"output spread {spread:g} exceeds epsilon {epsilon:g}",
            )
        )
    return violations


def _in_tree(tree: Any, value: Any) -> bool:
    """Tree membership that tolerates unhashable garbage outputs."""
    try:
        return value in tree
    except TypeError:
        return False


def _check_tree(result: ScenarioResult) -> List[Violation]:
    """Convex-hull validity and 1-agreement on the tree."""
    from ..trees.convex import in_convex_hull
    from ..trees.paths import distance

    violations: List[Violation] = []
    tree = result.tree_obj
    if tree is None:
        return [Violation("validity", "no tree attached to a tree-protocol result")]
    outputs = {
        pid: v for pid, v in result.honest_outputs.items() if v is not None
    }
    bad = sorted(pid for pid, v in outputs.items() if not _in_tree(tree, v))
    if bad:
        violations.append(
            Violation(
                "validity",
                f"honest parties {bad} output non-vertices "
                f"{[outputs[pid] for pid in bad]!r}",
            )
        )
    vertices = {pid: v for pid, v in outputs.items() if _in_tree(tree, v)}
    anchors = [v for v in result.honest_inputs.values() if _in_tree(tree, v)]
    if not vertices or not anchors:
        return violations
    outside = sorted(
        pid
        for pid, v in vertices.items()
        if not in_convex_hull(tree, v, anchors)
    )
    if outside:
        violations.append(
            Violation(
                "validity",
                f"outputs of {outside} outside the honest inputs' hull",
            )
        )
    values = sorted(set(vertices.values()), key=repr)
    diameter = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            diameter = max(diameter, distance(tree, values[i], values[j]))
    if diameter > 1:
        violations.append(
            Violation(
                "agreement",
                f"honest output diameter {diameter} exceeds 1",
            )
        )
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
    violations = _check_termination(result)
    has_outputs = any(v is not None for v in result.honest_outputs.values())
    if has_outputs:
        if result.spec.protocol in TREE_PROTOCOLS:
            violations.extend(_check_tree(result))
        else:
            violations.extend(_check_real(result))
    violations.extend(_check_round_bound(result))
    return violations


def violated_oracles(violations: List[Violation]) -> List[str]:
    """The sorted, de-duplicated oracle names of a violation list."""
    return sorted({violation.oracle for violation in violations})
