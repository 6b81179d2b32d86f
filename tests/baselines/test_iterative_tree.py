"""Tests for the iterated safe-area baseline on trees ([33]-style)."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary import (
    CrashAdversary,
    PassiveAdversary,
    RandomNoiseAdversary,
    SilentAdversary,
)
from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.core import judge_tree
from repro.baselines import IterativeTreeAAParty, tree_halving_iterations
from repro.net import run_protocol
from repro.trees import (
    binary_tree,
    diameter,
    distance,
    figure_tree,
    path_tree,
    random_tree,
    star_tree,
)

from ..strategies import trees_with_vertex_choices


def run_baseline(tree, inputs, t, adversary=None, iterations=None):
    n = len(inputs)
    return run_protocol(
        n,
        t,
        lambda pid: IterativeTreeAAParty(pid, n, t, tree, inputs[pid], iterations),
        adversary=adversary,
    )


class TestIterationCount:
    def test_trivial_diameter(self):
        assert tree_halving_iterations(0) == 1
        assert tree_halving_iterations(1) == 1

    def test_logarithmic_growth(self):
        assert tree_halving_iterations(64) == 8  # log2(64) + 2
        assert tree_halving_iterations(1024) == 12

    def test_duration(self):
        tree = path_tree(9)
        party = IterativeTreeAAParty(0, 4, 1, tree, tree.vertices[0])
        assert party.duration == 3 * tree_halving_iterations(8)


class TestConstruction:
    def test_resilience(self):
        with pytest.raises(ValueError):
            IterativeTreeAAParty(0, 3, 1, figure_tree(), "v1")

    def test_input_validated(self):
        with pytest.raises(KeyError):
            IterativeTreeAAParty(0, 4, 1, figure_tree(), "zzz")


class TestAAProperties:
    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: None,
            lambda: SilentAdversary(),
            lambda: PassiveAdversary(),
            lambda: RandomNoiseAdversary(seed=4),
            lambda: CrashAdversary(crash_round=5, partial_to=1),
            lambda: BurnScheduleAdversary([1, 1]),
        ],
    )
    @pytest.mark.parametrize(
        "tree_factory",
        [
            lambda: figure_tree(),
            lambda: path_tree(20),
            lambda: star_tree(8),
            lambda: binary_tree(3),
            lambda: random_tree(25, seed=17),
        ],
    )
    def test_validity_and_agreement(self, adversary_factory, tree_factory):
        tree = tree_factory()
        n, t = 7, 2
        rng = random.Random(11)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        result = run_baseline(tree, inputs, t, adversary=adversary_factory())
        honest_inputs = {p: inputs[p] for p in sorted(result.honest)}
        assert judge_tree(tree, honest_inputs, result.honest_outputs).achieved_aa

    @given(trees_with_vertex_choices(n_choices=7, min_vertices=2))
    def test_property_random_trees(self, tree_and_inputs):
        tree, inputs = tree_and_inputs
        result = run_baseline(tree, inputs, 2, adversary=BurnScheduleAdversary([2]))
        honest_inputs = {p: inputs[p] for p in sorted(result.honest)}
        assert judge_tree(tree, honest_inputs, result.honest_outputs).achieved_aa


class TestConvergenceBehaviour:
    def test_vertex_spread_shrinks_per_iteration(self):
        tree = path_tree(33)
        inputs = [tree.vertices[0], tree.vertices[32]] * 3 + [tree.vertices[16]]
        result = run_baseline(tree, inputs, 2, adversary=SilentAdversary())
        # reconstruct per-iteration honest vertex spreads
        histories = [result.parties[p].history for p in sorted(result.honest)]
        iterations = len(histories[0])
        previous = None
        for i in range(iterations):
            vertices = [h[i].new_vertex for h in histories]
            spread = max(
                distance(tree, a, b) for a in vertices for b in vertices
            )
            if previous is not None:
                assert spread <= previous
            previous = spread
        assert previous <= 1

    def test_rounds_scale_with_log_diameter(self):
        """The baseline's defining cost: Θ(log D) iterations — so a path
        four times as long needs visibly more rounds."""
        short = IterativeTreeAAParty(0, 4, 1, path_tree(16), path_tree(16).vertices[0])
        long = IterativeTreeAAParty(0, 4, 1, path_tree(256), path_tree(256).vertices[0])
        assert long.duration > short.duration
        assert long.duration == short.duration + 3 * 4  # log2 ratio = 4
