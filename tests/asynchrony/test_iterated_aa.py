"""Tests for asynchronous iterated AA (witness technique) on ℝ and trees."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import judge_tree
from repro.asynchrony import (
    AsyncLiarAdversary,
    AsyncNoiseAdversary,
    AsyncPassiveAdversary,
    AsyncRealAAParty,
    AsyncSilentAdversary,
    AsyncTreeAAParty,
    DelaySendersScheduler,
    FIFOScheduler,
    RandomScheduler,
    SplitScheduler,
    run_async_protocol,
)
from repro.trees import figure_tree, path_tree, random_tree, star_tree

from ..strategies import trees_with_vertex_choices


def run_real(inputs, t, epsilon=0.5, adversary=None, scheduler=None, **kwargs):
    n = len(inputs)
    known = max(inputs) - min(inputs) if "iterations" not in kwargs else None
    return run_async_protocol(
        n,
        t,
        lambda pid: AsyncRealAAParty(
            pid, n, t, inputs[pid], epsilon=epsilon, known_range=known, **kwargs
        ),
        adversary=adversary,
        scheduler=scheduler,
        max_steps=400_000,
    )


def run_tree(tree, inputs, t, adversary=None, scheduler=None):
    n = len(inputs)
    return run_async_protocol(
        n,
        t,
        lambda pid: AsyncTreeAAParty(pid, n, t, tree, inputs[pid]),
        adversary=adversary,
        scheduler=scheduler,
        max_steps=400_000,
    )


class TestConstruction:
    def test_resilience(self):
        with pytest.raises(ValueError):
            AsyncRealAAParty(0, 6, 2, 0.0, iterations=2)

    def test_real_input_validated(self):
        with pytest.raises(ValueError):
            AsyncRealAAParty(0, 4, 1, float("inf"), iterations=1)

    def test_tree_input_validated(self):
        with pytest.raises(KeyError):
            AsyncTreeAAParty(0, 4, 1, figure_tree(), "zzz")

    def test_needs_budget_spec(self):
        with pytest.raises(ValueError):
            AsyncRealAAParty(0, 4, 1, 0.0)


class TestAsyncRealAA:
    INPUTS = [0.0, 10.0, 2.0, 8.0, 5.0, 0.0, 10.0]

    @pytest.mark.parametrize(
        "scheduler_factory",
        [
            lambda: FIFOScheduler(),
            lambda: RandomScheduler(4),
            lambda: DelaySendersScheduler([0, 1]),
            lambda: SplitScheduler([0, 1, 2]),
        ],
    )
    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: AsyncSilentAdversary(),
            lambda: AsyncPassiveAdversary(),
            lambda: AsyncNoiseAdversary(seed=6),
        ],
    )
    def test_aa_properties(self, scheduler_factory, adversary_factory):
        result = run_real(
            self.INPUTS,
            t=2,
            adversary=adversary_factory(),
            scheduler=scheduler_factory(),
        )
        assert result.completed
        values = list(result.honest_outputs.values())
        honest_inputs = [self.INPUTS[p] for p in sorted(result.honest)]
        assert min(honest_inputs) <= min(values) <= max(values) <= max(honest_inputs)
        assert max(values) - min(values) <= 0.5

    def test_liar_within_range_tolerated(self):
        n, t = 7, 2
        liar = AsyncLiarAdversary(
            lambda pid: AsyncRealAAParty(pid, n, t, 123.0, iterations=6)
        )
        result = run_real(self.INPUTS, t=2, adversary=liar, iterations=6)
        values = list(result.honest_outputs.values())
        assert all(0.0 <= v <= 10.0 for v in values)

    def test_iteration_records(self):
        result = run_real(self.INPUTS, t=2, adversary=AsyncSilentAdversary())
        for pid in result.honest:
            history = result.parties[pid].history
            assert len(history) == result.parties[pid].iterations
            for record in history:
                assert record.value_count >= 5  # n - t
                assert record.witness_count >= 5

    def test_halving_convergence(self):
        result = run_real(
            [0.0, 16.0, 0.0, 16.0, 8.0, 0.0, 16.0],
            t=2,
            epsilon=0.5,
            adversary=AsyncSilentAdversary(),
        )
        # with silent Byzantine, every party uses the same 5 honest values
        values = list(result.honest_outputs.values())
        assert max(values) - min(values) <= 0.5


class TestAsyncTreeAA:
    @pytest.mark.parametrize(
        "tree_factory",
        [
            lambda: figure_tree(),
            lambda: path_tree(17),
            lambda: star_tree(6),
            lambda: random_tree(20, seed=11),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_aa_across_families(self, tree_factory, seed):
        tree = tree_factory()
        n, t = 7, 2
        rng = random.Random(seed)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        result = run_tree(
            tree,
            inputs,
            t,
            adversary=AsyncNoiseAdversary(seed=seed),
            scheduler=RandomScheduler(seed),
        )
        assert result.completed
        honest_inputs = {p: inputs[p] for p in sorted(result.honest)}
        assert judge_tree(tree, honest_inputs, result.honest_outputs).achieved_aa

    @given(
        trees_with_vertex_choices(n_choices=7, min_vertices=2),
        st.sampled_from(["silent", "noise", "passive"]),
        st.integers(min_value=0, max_value=3),
    )
    def test_property_random_trees(self, tree_and_inputs, adversary_kind, seed):
        tree, inputs = tree_and_inputs
        adversary = {
            "silent": lambda: AsyncSilentAdversary(),
            "noise": lambda: AsyncNoiseAdversary(seed=seed),
            "passive": lambda: AsyncPassiveAdversary(),
        }[adversary_kind]()
        result = run_tree(
            tree, inputs, 2, adversary=adversary, scheduler=RandomScheduler(seed)
        )
        assert result.completed
        honest_inputs = {p: inputs[p] for p in sorted(result.honest)}
        assert judge_tree(tree, honest_inputs, result.honest_outputs).achieved_aa

    def test_iterations_scale_with_log_diameter(self):
        short = AsyncTreeAAParty(0, 4, 1, path_tree(16), path_tree(16).vertices[0])
        long = AsyncTreeAAParty(0, 4, 1, path_tree(256), path_tree(256).vertices[0])
        assert long.iterations == short.iterations + 4

    def test_witnesses_guarantee_overlap(self):
        """Any two honest parties' witness sets overlap in ≥ n − 2t
        reporters — the property the witness technique exists for."""
        tree = random_tree(15, seed=2)
        n, t = 7, 2
        rng = random.Random(5)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        result = run_tree(
            tree, inputs, t, adversary=AsyncSilentAdversary(),
            scheduler=RandomScheduler(1),
        )
        for pid in result.honest:
            for record in result.parties[pid].history:
                assert record.witness_count >= n - t
