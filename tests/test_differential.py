"""Differential tests: independent implementations must agree.

Several behaviours in this library are implemented twice (a fast path and
a reference, or a synchronous and an asynchronous variant).  These tests
pit them against each other on random instances — the cheapest way to
catch a bug in exactly one of them.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from .strategies import small_trees, trees_with_vertex_choices


class TestSafeAreaImplementations:
    @given(trees_with_vertex_choices(n_choices=6))
    def test_fast_vs_per_vertex_rule(self, tree_and_values):
        from repro.trees import is_safe_vertex, safe_area

        tree, values = tree_and_values
        for t in (0, 1, 2):
            if len(values) - t < 1:
                continue
            fast = safe_area(tree, values, t)
            slow = frozenset(
                v for v in tree.vertices if is_safe_vertex(tree, v, values, t)
            )
            assert fast == slow

    @given(trees_with_vertex_choices(n_choices=5))
    def test_fast_vs_brute_force_subsets(self, tree_and_values):
        from repro.trees import brute_force_safe_area, safe_area

        tree, values = tree_and_values
        assert safe_area(tree, values, 1) == brute_force_safe_area(tree, values, 1)


class TestDistanceImplementations:
    @given(small_trees(min_vertices=2))
    def test_bfs_vs_lca_distance(self, tree):
        from repro.trees import RootedTree, distance

        rooted = RootedTree(tree)
        for u in tree.vertices:
            for v in tree.vertices:
                assert distance(tree, u, v) == rooted.distance(u, v)


class TestEulerVsRootedSubtrees:
    @given(small_trees())
    def test_interval_vs_traversal(self, tree):
        from repro.trees import list_construction

        euler = list_construction(tree)
        rooted = euler.rooted
        for v in tree.vertices:
            via_interval = {
                u for u in tree.vertices if euler.vertex_in_subtree(u, v)
            }
            assert via_interval == set(rooted.subtree_vertices(v))


class TestSyncVsAsyncAA:
    """The two models must both achieve AA on the same instance; outputs
    need not match (different protocols), but both verdicts must."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real_values(self, seed):
        from repro.asynchrony import (
            AsyncRealAAParty,
            AsyncSilentAdversary,
            RandomScheduler,
            run_async_protocol,
        )
        from repro.adversary import SilentAdversary
        from repro.core import run_real_aa

        rng = random.Random(seed)
        n, t = 7, 2
        inputs = [rng.uniform(0, 20) for _ in range(n)]
        lo = min(inputs[: n - t])
        hi = max(inputs[: n - t])

        sync = run_real_aa(
            inputs, t, epsilon=0.5, known_range=20.0, adversary=SilentAdversary()
        )
        assert sync.achieved_aa

        async_result = run_async_protocol(
            n,
            t,
            lambda pid: AsyncRealAAParty(
                pid, n, t, inputs[pid], epsilon=0.5, known_range=20.0
            ),
            adversary=AsyncSilentAdversary(),
            scheduler=RandomScheduler(seed),
        )
        assert async_result.completed
        values = list(async_result.honest_outputs.values())
        assert max(values) - min(values) <= 0.5
        assert all(lo <= v <= hi for v in values)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trees(self, seed):
        from repro.asynchrony import (
            AsyncSilentAdversary,
            AsyncTreeAAParty,
            RandomScheduler,
            run_async_protocol,
        )
        from repro.adversary import SilentAdversary
        from repro.core import judge_tree, run_tree_aa
        from repro.trees import random_tree

        tree = random_tree(20, seed)
        rng = random.Random(seed)
        n, t = 7, 2
        inputs = [rng.choice(tree.vertices) for _ in range(n)]

        sync = run_tree_aa(tree, inputs, t, adversary=SilentAdversary())
        assert sync.achieved_aa

        async_result = run_async_protocol(
            n,
            t,
            lambda pid: AsyncTreeAAParty(pid, n, t, tree, inputs[pid]),
            adversary=AsyncSilentAdversary(),
            scheduler=RandomScheduler(seed),
            max_steps=400_000,
        )
        assert async_result.completed
        honest_inputs = {p: inputs[p] for p in sorted(async_result.honest)}
        assert judge_tree(tree, honest_inputs, async_result.honest_outputs).achieved_aa


class TestGoldenExecutions:
    """Pinned outputs of deterministic executions: any protocol drift that
    changes behaviour must update these intentionally."""

    def test_figure_tree_burn_execution(self):
        from repro.adversary.realaa_attacks import BurnScheduleAdversary
        from repro.core import judge_tree, run_tree_aa
        from repro.trees import figure_tree

        outcome = run_tree_aa(
            figure_tree(),
            ["v3", "v6", "v5", "v6", "v3", "v8", "v8"],
            2,
            adversary=BurnScheduleAdversary([1, 1]),
        )
        assert outcome.honest_outputs == {pid: "v3" for pid in range(5)}
        assert outcome.rounds == 18

    def test_fault_free_realaa_exact_value(self):
        from repro.core import run_real_aa

        outcome = run_real_aa([1.0, 2.0, 3.0, 4.0], t=0, epsilon=0.5)
        assert set(outcome.honest_outputs.values()) == {2.5}

    def test_euler_list_golden(self):
        from repro.trees import figure_tree, list_construction

        euler = list_construction(figure_tree())
        assert "".join(v[1] for v in euler.entries) == "123637324842521"

    def test_burned_realaa_trace_golden(self):
        from repro.adversary.realaa_attacks import BurnScheduleAdversary
        from repro.analysis import honest_value_ranges
        from repro.net import run_protocol
        from repro.protocols import RealAAParty

        n, t = 7, 2
        inputs = [0.0, 0.0, 0.0, 10.0, 10.0, 0.0, 0.0]
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=3),
            adversary=BurnScheduleAdversary([1, 1]),
        )
        ranges = honest_value_ranges(result)
        assert ranges[0] == 10.0
        assert ranges[1] == pytest.approx(10 / 3)
        assert ranges[2] == pytest.approx(10 / 6)
        assert ranges[3] == pytest.approx(0.0, abs=1e-12)


class TestBatchPartySurface:
    """Batch party views expose exactly the attributes the reference
    parties do: ``hasattr`` answers the same for every public name either
    side has, on the top-level party and on the TreeAA sub-phases."""

    @staticmethod
    def _runs():
        from repro.core import run_path_aa, run_real_aa, run_tree_aa
        from repro.trees import LabeledTree, diameter_path, figure_tree

        tree = figure_tree()
        path = diameter_path(tree)
        edge = LabeledTree.from_parent_map({"b": "a"})
        return {
            "real-aa": lambda b: run_real_aa([0.0, 1.0, 2.0, 3.0, 4.0], 1, epsilon=0.5, backend=b),
            "path-aa": lambda b: run_path_aa(tree, path, ["v6", "v3", "v2", "v4", "v8"], 1, backend=b),
            "known-path-aa": lambda b: run_path_aa(
                tree, path, ["v1", "v5", "v7", "v3", "v8"], 1, project=True, backend=b
            ),
            "tree-aa": lambda b: run_tree_aa(tree, ["v1", "v5", "v7", "v3", "v8"], 1, backend=b),
            "trivial-tree-aa": lambda b: run_tree_aa(edge, ["a", "b", "b", "a"], 1, backend=b),
        }

    @staticmethod
    def _surfaces(party):
        """(label, party) for the party and each TreeAA sub-phase it has."""
        found = [("party", party)]
        for name in ("paths_finder", "projection_phase"):
            phase = getattr(party, name, None)
            if phase is not None:
                found.append((name, phase))
        return found

    @pytest.mark.parametrize(
        "run", ["real-aa", "path-aa", "known-path-aa", "tree-aa", "trivial-tree-aa"]
    )
    def test_same_public_attributes(self, run):
        pytest.importorskip("numpy")
        call = self._runs()[run]
        reference = call("reference").execution.parties
        batch = call("batch").execution.parties
        for pid in sorted(reference):
            ref_surfaces = self._surfaces(reference[pid])
            batch_surfaces = dict(self._surfaces(batch[pid]))
            assert [label for label, _ in ref_surfaces] == list(batch_surfaces)
            for label, ref_party in ref_surfaces:
                names = {
                    name for name in vars(ref_party) if not name.startswith("_")
                } | {"duration", "path", "bad", "history", "paths_finder", "euler"}
                mismatched = sorted(
                    name
                    for name in names
                    if hasattr(ref_party, name) != hasattr(batch_surfaces[label], name)
                )
                assert mismatched == [], (run, pid, label)
