#!/usr/bin/env python3
"""Synchronous TreeAA vs the asynchronous state of the art, side by side.

The paper's headline compares against the O(log D(T))-round asynchronous
tree protocol of Nowak–Rybicki.  This example runs both stacks on the same
instance:

* the asynchronous protocol: Bracha reliable broadcast + witness technique
  + safe-area midpoints, under adversarially scheduled delivery;
* TreeAA: gradecast + RealAA with detection, in lockstep rounds.

Run:  python examples/async_vs_sync.py
"""

import random

from repro.analysis import format_table
from repro.asynchrony import (
    AsyncNoiseAdversary,
    AsyncTreeAAParty,
    RandomScheduler,
    run_async_protocol,
)
from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.core import judge_tree, run_tree_aa
from repro.trees import diameter, path_tree


def main() -> None:
    n, t = 7, 2
    rows = []
    for size in (16, 64, 256):
        tree = path_tree(size)
        rng = random.Random(size)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]

        async_result = run_async_protocol(
            n,
            t,
            lambda pid: AsyncTreeAAParty(pid, n, t, tree, inputs[pid]),
            adversary=AsyncNoiseAdversary(seed=1),
            scheduler=RandomScheduler(1),
            max_steps=2_000_000,
        )
        honest_inputs = {p: inputs[p] for p in sorted(async_result.honest)}
        assert async_result.completed
        assert judge_tree(tree, honest_inputs, async_result.honest_outputs).achieved_aa

        sync_outcome = run_tree_aa(
            tree, inputs, t, adversary=BurnScheduleAdversary([1, 1])
        )
        assert sync_outcome.achieved_aa

        rows.append(
            [
                diameter(tree),
                async_result.parties[0].iterations,
                async_result.trace.honest_message_count,
                sync_outcome.rounds,
                sync_outcome.execution.trace.honest_message_count,
            ]
        )

    print(
        format_table(
            [
                "D(T)",
                "async iterations",
                "async messages",
                "TreeAA rounds",
                "TreeAA messages",
            ],
            rows,
            title=f"Both protocols achieve AA (n={n}, t={t}); costs compared:",
        )
    )
    print(
        "\nThe asynchronous protocol needs Theta(log D) iterations (each a\n"
        "reliable-broadcast round trip); TreeAA's synchronous round count is\n"
        "flat in D at this (n, t) — the separation the paper establishes."
    )


if __name__ == "__main__":
    main()
