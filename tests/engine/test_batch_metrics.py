"""``BatchMetrics`` judges hull estimates once per distinct label.

The final row's hull depends only on the *set* of honest estimates (an
output that is a vertex, else the input), so ``BatchMetrics`` tests each
distinct label against the tree once, however many parties hold it.
The hull must still be the one the per-party fallback gives.
"""

from __future__ import annotations

import pytest

from repro.observability import MetricsCollector
from repro.trees import LabeledTree, figure_tree
from repro.trees.convex import steiner_diameter

pytest.importorskip("numpy")

from repro.engine.metrics import BatchMetrics  # noqa: E402


class CountingTree(LabeledTree):
    """A tree that records every membership test."""

    def __init__(self, edges) -> None:
        super().__init__(edges=edges)
        self.lookups = []

    def __contains__(self, vertex) -> bool:
        self.lookups.append(vertex)
        return super().__contains__(vertex)


def per_party_hull(tree, inputs, outputs):
    """The reference collector's estimate fallback, party by party."""
    estimates = []
    for index, inp in enumerate(inputs):
        out = outputs[index] if index < len(outputs) else None
        if out is not None and out in tree:
            estimates.append(out)
        elif inp is not None and inp in tree:
            estimates.append(inp)
    return steiner_diameter(tree, estimates) if estimates else None


@pytest.mark.parametrize(
    "outputs",
    [
        lambda n: ["v5"] * n,
        lambda n: [None] * n,
        lambda n: ["not-a-vertex" if pid % 3 else "v1" for pid in range(n)],
        lambda n: [None, "v2"] * (n // 4),  # shorter than the inputs
    ],
)
def test_final_hull_tests_each_label_once(outputs):
    n = 1_000
    tree = CountingTree(list(figure_tree().edges()))
    inputs = ["v3" if pid % 2 else "v8" for pid in range(n)]
    outs = outputs(n)
    collector = MetricsCollector(tree=tree)
    metrics = BatchMetrics(
        collector,
        n=n,
        corrupted=[],
        total_rounds=1,
        track_value_spread=False,
        honest_estimates=inputs,
    )
    assert sorted(tree.lookups) == ["v3", "v8"]
    metrics.emit(0, 0, 0, 0, 0)
    tree.lookups.clear()
    metrics.finalize(outs)
    assert len(tree.lookups) == len(set(tree.lookups))
    assert set(tree.lookups) <= set(inputs) | set(outs)
    expected = per_party_hull(figure_tree(), inputs, outs)
    assert collector.rounds[-1].hull_diameter == expected
