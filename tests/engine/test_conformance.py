"""Property-based differential tests: batch backend ≡ reference simulator.

Two layers of generation feed :func:`~tests.engine.conformance.differential_check`:

* Hypothesis properties drawing trees, inputs, supported adversaries
  (including the equivocating chaos/burn streams), and fault plans from
  :mod:`tests.strategies` — these shrink, so a divergence arrives
  minimised;
* a deterministic seeded sweep of 240 mixed configurations across all
  three protocols (RealAA / PathAA / TreeAA) with fault plans and
  metrics collectors in the mix, guaranteeing the ``>= 200 generated
  cases`` coverage floor regardless of the active Hypothesis profile.

Metrics conformance is exact: whenever a case attaches collectors, both
backends' per-round rows must match field for field (only the wall-clock
column is excluded).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.adversary.base import NoAdversary, PassiveAdversary
from repro.adversary.chaos import ChaosAdversary
from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.adversary.strategies import CrashAdversary, SilentAdversary
from repro.core.api import run_path_aa, run_real_aa, run_tree_aa
from repro.net.faults import FaultPlan
from repro.observability import MetricsCollector
from repro.trees.generators import random_tree
from repro.trees.paths import diameter_path

from ..strategies import (
    batch_supported_adversaries,
    fault_plans,
    real_inputs,
    small_trees,
)
from .conformance import differential_check

pytest.importorskip("numpy")


@st.composite
def real_aa_cases(draw):
    """(inputs, t, epsilon, adversary, plan) for a RealAA differential run."""
    n = draw(st.integers(min_value=1, max_value=10))
    t = draw(st.integers(min_value=0, max_value=3))
    inputs = draw(real_inputs(n))
    epsilon = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    adversary = draw(batch_supported_adversaries(n, t))
    plan = draw(fault_plans())
    return inputs, t, epsilon, adversary, plan


class TestRealAAConformance:
    @given(real_aa_cases())
    def test_identical_behaviour(self, case):
        inputs, t, epsilon, adversary, plan = case
        differential_check(
            run_real_aa,
            inputs=inputs,
            t=t,
            epsilon=epsilon,
            adversary=adversary,
            fault_plan=plan,
        )

    @given(real_aa_cases(), st.integers(min_value=0, max_value=3))
    def test_identical_behaviour_with_t_assumed(self, case, t_assumed):
        inputs, t, epsilon, adversary, plan = case
        differential_check(
            run_real_aa,
            inputs=inputs,
            t=t,
            epsilon=epsilon,
            adversary=adversary,
            fault_plan=plan,
            t_assumed=t_assumed,
        )

    @given(real_aa_cases())
    def test_identical_metrics_rows(self, case):
        inputs, t, epsilon, adversary, plan = case
        differential_check(
            run_real_aa,
            observer_factory=MetricsCollector,
            inputs=inputs,
            t=t,
            epsilon=epsilon,
            adversary=adversary,
            fault_plan=plan,
        )


@st.composite
def tree_aa_cases(draw):
    """(tree, inputs, t, adversary) for a TreeAA differential run."""
    tree = draw(small_trees(max_vertices=9))
    n = draw(st.integers(min_value=1, max_value=8))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=tree.n_vertices - 1),
            min_size=n,
            max_size=n,
        )
    )
    t = draw(st.integers(min_value=0, max_value=2))
    adversary = draw(batch_supported_adversaries(n, t))
    return tree, [tree.vertices[i] for i in indices], t, adversary


class TestTreeAAConformance:
    @given(tree_aa_cases())
    def test_identical_behaviour(self, case):
        tree, inputs, t, adversary = case
        differential_check(
            run_tree_aa, tree=tree, inputs=inputs, t=t, adversary=adversary
        )

    @given(tree_aa_cases(), fault_plans())
    def test_identical_metrics_rows_with_faults(self, case, plan):
        tree, inputs, t, adversary = case
        differential_check(
            run_tree_aa,
            observer_factory=lambda: MetricsCollector(tree=tree),
            tree=tree,
            inputs=inputs,
            t=t,
            adversary=adversary,
            fault_plan=plan,
        )


class TestPathAAConformance:
    @given(tree_aa_cases(), st.booleans())
    def test_identical_behaviour(self, case, project):
        tree, inputs, t, adversary = case
        path = diameter_path(tree)
        if not project:
            # Plain PathAA requires inputs on the path itself; remap the
            # drawn vertices onto it deterministically.
            vertices = list(path.vertices)
            order = {v: i for i, v in enumerate(tree.vertices)}
            inputs = [vertices[order[v] % len(vertices)] for v in inputs]
        differential_check(
            run_path_aa,
            tree=tree,
            path=path,
            inputs=inputs,
            t=t,
            adversary=adversary,
            project=project,
        )


def _seeded_adversary(rng: random.Random, n: int, t: int):
    """One supported adversary (or None) from a seeded generator."""
    corrupt = None
    if n and rng.random() < 0.5:
        corrupt = set(rng.sample(range(n), rng.randint(0, min(n, t + 1))))
    kind = rng.choice(
        ["none", "no-adversary", "silent", "passive", "crash", "chaos", "burn"]
    )
    if kind == "none":
        return None
    if kind == "no-adversary":
        return NoAdversary(corrupt)
    if kind == "silent":
        return SilentAdversary(corrupt)
    if kind == "passive":
        return PassiveAdversary(corrupt)
    if kind == "chaos":
        weights = None
        if rng.random() < 0.5:
            weights = {
                name: rng.uniform(0.1, 3.0) for name in ChaosAdversary.BEHAVIOURS
            }
        return ChaosAdversary(
            seed=rng.randint(0, 2**20), weights=weights, corrupt=corrupt
        )
    if kind == "burn":
        schedule = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        return BurnScheduleAdversary(
            schedule,
            corrupt=corrupt,
            direction=rng.choice(["up", "down", "alternate"]),
            reuse_burners=rng.random() < 0.5,
        )
    return CrashAdversary(
        rng.randint(0, 12), partial_to=rng.randint(0, n), corrupt=corrupt
    )


def _seeded_fault_plan(rng: random.Random):
    """``None`` most of the time, otherwise a seeded moderate-rate plan."""
    if rng.random() < 0.6:
        return None
    return FaultPlan(
        drop=rng.choice([0.0, 0.1, 0.25]),
        duplicate=rng.choice([0.0, 0.1, 0.2]),
        corrupt=rng.choice([0.0, 0.1, 0.2]),
        seed=rng.randint(0, 2**20),
        allow_model_violations=True,
    )


#: Deterministic case count — the suite's generated-coverage floor.
SEEDED_CASES = 240


def seeded_case(seed: int):
    """``(call, observer_factory, kwargs)``: the deterministic
    mixed-protocol configuration of *seed*, for :func:`differential_check`."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    t = rng.randint(0, 4)
    adversary = _seeded_adversary(rng, n, t)
    plan = _seeded_fault_plan(rng)
    with_metrics = rng.random() < 0.5
    protocol = rng.choice(["real", "tree", "path", "projected-path"])
    t_assumed = rng.choice([None, None, rng.randint(0, 3)])
    common = dict(t=t, adversary=adversary, fault_plan=plan, t_assumed=t_assumed)
    if protocol == "real":
        inputs = [round(rng.uniform(-5.0, 5.0), 3) for _ in range(n)]
        return (
            run_real_aa,
            MetricsCollector if with_metrics else None,
            dict(common, inputs=inputs, epsilon=rng.choice([0.25, 0.5, 1.0])),
        )
    tree = random_tree(rng.randint(1, 9), seed=seed)
    observer_factory = (
        (lambda: MetricsCollector(tree=tree)) if with_metrics else None
    )
    inputs = [rng.choice(tree.vertices) for _ in range(n)]
    if protocol == "tree":
        return run_tree_aa, observer_factory, dict(common, tree=tree, inputs=inputs)
    path = diameter_path(tree)
    if protocol == "path":
        inputs = [rng.choice(list(path.vertices)) for _ in range(n)]
    return (
        run_path_aa,
        observer_factory,
        dict(
            common,
            tree=tree,
            path=path,
            inputs=inputs,
            project=(protocol == "projected-path"),
        ),
    )


@pytest.mark.parametrize("seed", range(SEEDED_CASES))
def test_seeded_differential_case(seed):
    """One deterministic mixed-protocol configuration per seed.

    Unlike the Hypothesis properties these cases never vary run to run,
    so CI replays the exact same 240 comparisons every time.
    """
    call, observer_factory, kwargs = seeded_case(seed)
    differential_check(call, observer_factory=observer_factory, **kwargs)
