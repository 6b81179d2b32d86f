"""Convergence statistics for executions.

The per-iteration convergence series that the T3 benchmark compares
against Lemma 5.  AA's three properties (Definition 1 on ℝ, Definition 2
on trees) are judged by :func:`repro.core.api.judge_real` and
:func:`~repro.core.api.judge_tree`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..net.network import ExecutionResult


def honest_value_ranges(execution: ExecutionResult) -> List[float]:
    """Per-iteration honest value spread for RealAA-style executions.

    Entry ``i`` is the spread of honest values *after* iteration ``i``; the
    list is prefixed with the spread of the honest inputs, so consecutive
    ratios are the per-iteration convergence factors of Lemma 5.
    """
    histories = []
    inputs = []
    for pid in sorted(execution.honest):
        party = execution.parties[pid]
        history = getattr(party, "history", None)
        start = getattr(party, "input_value", None)
        if history is None or start is None:
            raise ValueError(f"party {pid} records no value history")
        histories.append(history)
        inputs.append(float(start))
    iterations = min(len(h) for h in histories)
    ranges = [max(inputs) - min(inputs)]
    for i in range(iterations):
        values = [h[i].new_value for h in histories]
        ranges.append(max(values) - min(values))
    return ranges


def convergence_factors(ranges: Sequence[float]) -> List[float]:
    """Consecutive ratios ``range_{i+1} / range_i`` (0 once converged)."""
    factors: List[float] = []
    for before, after in zip(ranges, ranges[1:]):
        factors.append(after / before if before > 0 else 0.0)
    return factors


def overall_factor(ranges: Sequence[float]) -> float:
    """Total shrink ``range_final / range_initial`` (Lemma 5's left side)."""
    if not ranges or ranges[0] <= 0:
        return 0.0
    return ranges[-1] / ranges[0]
