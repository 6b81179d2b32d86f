"""Experiment T1 (Theorem 4): TreeAA round complexity vs the O(log D) baseline.

Regenerates the paper's headline comparison: TreeAA terminates within
``O(log |V| / log log |V|)`` rounds while the prior state of the art [33]
needs ``Θ(log D)`` iterations.  On large-diameter trees (paths,
caterpillars) TreeAA wins by a growing factor; on tiny-diameter trees
(stars) the baseline's log D is already constant and the crossover shows.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.analysis import (
    BASELINE_PROTOCOL,
    SPEC_RUNNER,
    SPEC_SWEEP_NAME,
    ScenarioSpec,
    spread_inputs,
    tree_spec_for,
)
from repro.core import run_tree_aa
from repro.protocols import tree_aa_round_bound
from repro.trees import diameter, parse_tree_spec, path_tree, random_tree

N, T = 7, 2

FAMILIES = ["path", "caterpillar", "random", "star"]

SIZES = [15, 63, 255, 1023]

#: The T1 points: (family, TreeAA spec).  The per-point seed ``size``
#: derives the same worst-case inputs as the historical serial sweep.
T1_POINTS = [
    (
        family,
        ScenarioSpec(
            protocol="tree-aa",
            n=N,
            t=T,
            tree=tree_spec_for(family, size),
            adversary="burn",
            trace_level="aggregate",
            seed=size,
        ),
    )
    for family in FAMILIES
    for size in SIZES
]

#: The grid as engine data: each TreeAA spec, then the baseline on the
#: same instance.
T1_GRID = [
    spec.to_dict()
    for _, tree_aa in T1_POINTS
    for spec in (tree_aa, replace(tree_aa, protocol=BASELINE_PROTOCOL))
]


def test_t1_table(report, benchmark, sweep_config):
    rows = []

    def sweep():
        return sweep_config.run(SPEC_SWEEP_NAME, SPEC_RUNNER, T1_GRID).rows

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for (family, spec), ours, theirs in zip(T1_POINTS, points[0::2], points[1::2]):
        tree = parse_tree_spec(spec.tree)
        bound = tree_aa_round_bound(tree.n_vertices, diameter(tree))
        winner = (
            "TreeAA"
            if ours["rounds"] < theirs["rounds"]
            else "baseline"
            if theirs["rounds"] < ours["rounds"]
            else "tie"
        )
        rows.append(
            [
                family,
                tree.n_vertices,
                diameter(tree),
                ours["rounds"],
                bound,
                theirs["rounds"],
                winner,
                ours["ok"] and theirs["ok"],
            ]
        )
        assert ours["ok"] and theirs["ok"]
        assert ours["rounds"] <= bound
    report.table(
        "T1",
        "TreeAA rounds vs iterated-safe-area baseline (n=7, t=2, burn adversary)",
        [
            "family",
            "|V(T)|",
            "D(T)",
            "TreeAA rounds",
            "Thm-4 bound",
            "baseline rounds",
            "winner",
            "AA ok",
        ],
        rows,
        notes=(
            "Paper claim: TreeAA needs O(log V / log log V) rounds vs the\n"
            "baseline's O(log D).  Expected shape: TreeAA wins on paths and\n"
            "caterpillars (D ~ V), loses on stars (D = 2), with its round\n"
            "count growing visibly slower than the baseline's in D."
        ),
    )


def test_t1b_asymptotic_budgets(report, benchmark):
    """Theorem 4's growth claim needs t ∈ Θ(n) scaling jointly with |V|:
    for fixed small t the protocol saturates at 6(t+1) rounds (every clean
    iteration collapses the range exactly), which is *better* than the
    asymptotic bound but hides its shape.  This table evaluates the exact
    deterministic protocol durations — TreeAA's two-phase round count vs
    the baseline's 3·(⌈log2 D⌉ + 2) — for path input spaces with n = 3t + 1
    growing alongside |V|.  Durations are what the synchronous protocol
    runs by construction; executions at the smaller sizes (T1) confirm they
    are exact."""
    from repro.baselines import tree_halving_iterations
    from repro.core.tree_aa import projection_phase_iterations
    from repro.core.paths_finder import paths_finder_duration
    from repro.protocols import ROUNDS_PER_ITERATION

    def sweep():
        rows = []
        for exponent, t in ((6, 4), (10, 8), (14, 16), (18, 32), (22, 64)):
            size = 2**exponent
            n = 3 * t + 1
            tree = path_tree(size + 1)
            tree_rounds = paths_finder_duration(tree, n, t) + (
                ROUNDS_PER_ITERATION * projection_phase_iterations(tree, n, t)
            )
            baseline_rounds = ROUNDS_PER_ITERATION * tree_halving_iterations(size)
            bound = tree_aa_round_bound(size + 1, size)
            rows.append(
                [
                    f"2^{exponent}",
                    f"n={n},t={t}",
                    tree_rounds,
                    bound,
                    baseline_rounds,
                    "TreeAA" if tree_rounds < baseline_rounds else "baseline",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.table(
        "T1b",
        "Asymptotic round budgets on paths, t = Θ(n) scaling with D",
        [
            "D(T)",
            "network",
            "TreeAA rounds",
            "Thm-4 bound",
            "baseline rounds",
            "winner",
        ],
        rows,
        notes=(
            "Theorem 4 (vs [33]): with t = Theta(n) growing alongside D,\n"
            "TreeAA is O(log V / log log V) vs the baseline's O(log D).\n"
            "Measured shape: this implementation's PROVABLE budget (the\n"
            "conservative worst_burn_factor DP of DESIGN.md finding 1) grows\n"
            "at the same slope as the baseline here and stays a ~1.2x\n"
            "constant above it — the asymptotic separation is given away to\n"
            "the core-shrinkage accounting, not to the protocol: the\n"
            "*measured* rounds under the strongest implemented adversaries\n"
            "(T2's measured column) sit well below both."
        ),
    )
    # the budget tracks the baseline within a modest constant factor
    ratios = [row[2] / row[4] for row in rows]
    assert all(ratio < 1.5 for ratio in ratios)


@pytest.mark.parametrize("size", [63, 1023])
def test_bench_tree_aa_path(benchmark, size):
    """Time one full TreeAA execution on a path of the given size."""
    tree = path_tree(size)
    rng = random.Random(0)
    inputs = spread_inputs(tree, N, rng)

    def run():
        return run_tree_aa(
            tree, inputs, T, adversary=BurnScheduleAdversary([1] * T)
        )

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    assert outcome.achieved_aa


def test_bench_tree_aa_random(benchmark):
    tree = random_tree(255, seed=7)
    rng = random.Random(1)
    inputs = spread_inputs(tree, N, rng)
    outcome = benchmark.pedantic(
        lambda: run_tree_aa(tree, inputs, T), rounds=3, iterations=1
    )
    assert outcome.achieved_aa
