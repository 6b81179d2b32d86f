"""Tests for PathsFinder — Lemma 3 and Lemma 4 (Section 6)."""

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
from repro.core import PathsFinderParty, paths_finder_duration
from repro.core.paths_finder import paths_finder_duration as duration_fn
from repro.net import run_protocol
from repro.trees import (
    convex_hull,
    figure_tree,
    list_construction,
    path_tree,
    random_tree,
)

from ..strategies import small_trees, trees_with_vertex_choices


def run_paths_finder(tree, inputs, t, adversary=None):
    n = len(inputs)
    return run_protocol(
        n,
        t,
        lambda pid: PathsFinderParty(pid, n, t, tree, inputs[pid]),
        adversary=adversary,
    )


def check_lemma4(tree, honest_inputs, paths):
    """Assert both Lemma-4 properties on the honest parties' paths."""
    hull = convex_hull(tree, honest_inputs)
    # Property 1: every path intersects the honest inputs' convex hull.
    for path in paths:
        assert any(v in hull for v in path.vertices), (path, sorted(hull))
    # Property 2: all paths share a prefix; at most one trailing edge differs.
    longest = max(paths, key=len)
    for path in paths:
        assert path == longest or (
            len(path) == len(longest) - 1 and path.is_prefix_of(longest)
        ), (list(path.vertices), list(longest.vertices))


class TestBasics:
    def test_input_validated(self):
        with pytest.raises(KeyError):
            PathsFinderParty(0, 4, 1, figure_tree(), "zzz")

    def test_input_index_is_min_occurrence(self):
        party = PathsFinderParty(0, 4, 1, figure_tree(), "v3")
        euler = list_construction(figure_tree())
        assert party.input_value == float(euler.first_occurrence("v3"))

    def test_paths_start_at_root(self):
        result = run_paths_finder(figure_tree(), ["v6", "v5", "v3", "v6"], t=0)
        for path in result.honest_outputs.values():
            assert path.start == "v1"

    def test_duration_formula(self):
        tree = figure_tree()
        assert duration_fn(tree, 7, 2) == PathsFinderParty(0, 7, 2, tree, "v1").duration

    @given(small_trees(), st.data())
    def test_duration_closed_form_matches_every_rooted_list(self, tree, data):
        """The duration reads ``|L| = 2·|V(T)| − 1`` without building the
        list; every root's list has that length, so it matches the party's
        own rooted list."""
        root = data.draw(st.sampled_from(tree.vertices))
        assert len(list_construction(tree, root)) == 2 * tree.n_vertices - 1
        party = PathsFinderParty(0, 4, 1, tree, root, root=root)
        assert duration_fn(tree, 4, 1) == party.duration

    def test_selected_vertex_recorded(self):
        result = run_paths_finder(figure_tree(), ["v6", "v6", "v6", "v6"], t=0)
        for pid, path in result.honest_outputs.items():
            assert result.parties[pid].selected_vertex == path.end


class TestFigure4Scenario:
    """Honest inputs v3, v6, v5: RealAA may land on indices of v4/v8, which
    are invalid vertices — but their root paths still cross the hull."""

    def test_all_possible_landings_yield_hull_crossing_paths(self):
        tree = figure_tree()
        euler = list_construction(tree)
        honest = ["v3", "v6", "v5"]
        hull = convex_hull(tree, honest)
        indices = [euler.first_occurrence(v) for v in honest]
        lo, hi = min(indices), max(indices)
        rooted = euler.rooted
        for i in range(lo, hi + 1):
            landing = euler[i]
            root_path = rooted.root_path(landing)
            assert any(v in hull for v in root_path)  # Lemma 3

    def test_execution_on_figure_inputs(self):
        tree = figure_tree()
        inputs = ["v3", "v6", "v5", "v3", "v6", "v5", "v3"]
        result = run_paths_finder(tree, inputs, t=2, adversary=BurnScheduleAdversary([1, 1]))
        honest_inputs = [inputs[p] for p in sorted(result.honest)]
        check_lemma4(tree, honest_inputs, list(result.honest_outputs.values()))


class TestLemma4:
    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: None,
            lambda: SilentAdversary(),
            lambda: PassiveAdversary(),
            lambda: RandomNoiseAdversary(seed=12),
            lambda: CrashAdversary(crash_round=5, partial_to=2),
            lambda: BurnScheduleAdversary(schedule=[1, 1]),
            lambda: BurnScheduleAdversary(schedule=[2], direction="down"),
        ],
    )
    def test_lemma4_random_tree(self, adversary_factory):
        tree = random_tree(30, seed=21)
        rng = random.Random(7)
        inputs = [rng.choice(tree.vertices) for _ in range(7)]
        result = run_paths_finder(tree, inputs, t=2, adversary=adversary_factory())
        honest_inputs = [inputs[p] for p in sorted(result.honest)]
        check_lemma4(tree, honest_inputs, list(result.honest_outputs.values()))

    @given(
        trees_with_vertex_choices(n_choices=7, min_vertices=2),
        st.sampled_from(["silent", "noise", "burn", "burn-down"]),
    )
    def test_lemma4_property(self, tree_and_inputs, kind):
        tree, inputs = tree_and_inputs
        adversary = {
            "silent": lambda: SilentAdversary(),
            "noise": lambda: RandomNoiseAdversary(seed=1),
            "burn": lambda: BurnScheduleAdversary([1, 1]),
            "burn-down": lambda: BurnScheduleAdversary([2], direction="down"),
        }[kind]()
        result = run_paths_finder(tree, inputs, t=2, adversary=adversary)
        honest_inputs = [inputs[p] for p in sorted(result.honest)]
        check_lemma4(tree, honest_inputs, list(result.honest_outputs.values()))

    def test_split_paths_execution(self):
        """A pinned execution where the adversary forces two different
        (prefix-coherent) paths — Lemma 4 property 2's non-trivial case.
        Requires the burn budget to cover every iteration (small tree,
        larger t), since any clean iteration collapses the range exactly."""
        from repro.protocols import realaa_iterations

        n, t, seed = 13, 4, 9
        tree = random_tree(11, seed)
        euler = list_construction(tree)
        iterations = realaa_iterations(float(len(euler) - 1), 1.0, n, t)
        assert iterations <= t  # the regime in which splits are reachable
        rng = random.Random(seed)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        result = run_protocol(
            n,
            t,
            lambda pid: PathsFinderParty(pid, n, t, tree, inputs[pid]),
            adversary=BurnScheduleAdversary([1] * iterations, direction="down"),
        )
        paths = list(result.honest_outputs.values())
        assert len({p.vertices for p in paths}) == 2
        honest_inputs = [inputs[p] for p in sorted(result.honest)]
        check_lemma4(tree, honest_inputs, paths)

    def test_termination_within_declared_rounds(self):
        tree = path_tree(50)
        inputs = [tree.vertices[0], tree.vertices[49]] * 3 + [tree.vertices[25]]
        result = run_paths_finder(tree, inputs, t=2, adversary=SilentAdversary())
        assert result.trace.rounds_executed == duration_fn(tree, 7, 2)
