"""Experiment T9: the asynchronous state of the art ([33]) vs TreeAA.

The paper positions TreeAA against the asynchronous tree protocol of
Nowak–Rybicki: ``O(log D)`` iterations there (each a reliable-broadcast +
witness exchange) vs ``O(log V / log log V)`` synchronous rounds here.
This bench runs the *actual* asynchronous protocol — Bracha RBC, witness
technique, safe-area midpoints, adversarial scheduling — and tabulates its
iteration counts and traffic against TreeAA's.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import SilentAdversary
from repro.asynchrony import (
    AsyncNoiseAdversary,
    AsyncTreeAAParty,
    RandomScheduler,
    run_async_protocol,
)
from repro.core import judge_tree, run_tree_aa
from repro.trees import diameter, path_tree

N, T = 7, 2


def run_async_tree(tree, inputs, seed=0):
    return run_async_protocol(
        N,
        T,
        lambda pid: AsyncTreeAAParty(pid, N, T, tree, inputs[pid]),
        adversary=AsyncNoiseAdversary(seed=seed),
        scheduler=RandomScheduler(seed),
        max_steps=2_000_000,
    )


def test_t9_table(report, benchmark):
    def sweep():
        rows = []
        for size in (16, 64, 256):
            tree = path_tree(size)
            rng = random.Random(size)
            inputs = [rng.choice(tree.vertices) for _ in range(N)]

            async_result = run_async_tree(tree, inputs)
            assert async_result.completed
            honest_inputs = {p: inputs[p] for p in sorted(async_result.honest)}
            assert judge_tree(
                tree, honest_inputs, async_result.honest_outputs
            ).achieved_aa
            iterations = async_result.parties[0].iterations

            sync_outcome = run_tree_aa(tree, inputs, T, adversary=SilentAdversary())
            assert sync_outcome.achieved_aa

            rows.append(
                [
                    size - 1,
                    iterations,
                    async_result.trace.honest_message_count,
                    sync_outcome.rounds,
                    sync_outcome.execution.trace.honest_message_count,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.table(
        "T9",
        f"Async [33]-style tree AA vs synchronous TreeAA (n={N}, t={T})",
        [
            "D(T)",
            "async iterations",
            "async messages",
            "TreeAA rounds",
            "TreeAA messages",
        ],
        rows,
        notes=(
            "Paper context: O(log D) iterations is the asynchronous state\n"
            "of the art; TreeAA's synchronous rounds saturate at 6(t+1)\n"
            "here.  Expected shape: async iterations grow by +2 per 4x\n"
            "diameter (log2), TreeAA rounds stay flat; the async protocol\n"
            "pays heavily in messages for its reliable-broadcast substrate."
        ),
    )
    assert rows[-1][1] > rows[0][1]  # async grows with D
    assert rows[-1][3] == rows[0][3]  # TreeAA saturated at this (n, t)


def test_bench_async_tree_run(benchmark):
    tree = path_tree(33)
    rng = random.Random(0)
    inputs = [rng.choice(tree.vertices) for _ in range(N)]
    result = benchmark.pedantic(
        lambda: run_async_tree(tree, inputs), rounds=1, iterations=1
    )
    assert result.completed
