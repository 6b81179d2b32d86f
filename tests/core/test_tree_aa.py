"""Tests for TreeAA — Theorem 4 (Section 7)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary import (
    AdaptiveCrashAdversary,
    CrashAdversary,
    EchoAdversary,
    PassiveAdversary,
    RandomNoiseAdversary,
    SilentAdversary,
)
from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.core import (
    TreeAAParty,
    projection_phase_iterations,
    run_tree_aa,
)
from repro.core.paths_finder import paths_finder_duration
from repro.protocols import ROUNDS_PER_ITERATION, tree_aa_round_bound
from repro.trees import (
    LabeledTree,
    binary_tree,
    caterpillar_tree,
    diameter,
    figure_tree,
    path_tree,
    random_tree,
    spider_tree,
    star_tree,
)

from ..strategies import trees_with_vertex_choices

ADVERSARIES = {
    "none": lambda t: None,
    "silent": lambda t: SilentAdversary(),
    "passive": lambda t: PassiveAdversary(),
    "noise": lambda t: RandomNoiseAdversary(seed=3),
    "crash": lambda t: CrashAdversary(crash_round=6, partial_to=2),
    "echo": lambda t: EchoAdversary(),
    "burn": lambda t: BurnScheduleAdversary([1] * t),
    "burn-down": lambda t: BurnScheduleAdversary([t], direction="down"),
    "burn-late": lambda t: BurnScheduleAdversary([0, 0, 0, 0, 1] + [0] * 5 + [1]),
}


class TestTrivialTrees:
    def test_single_vertex(self):
        tree = LabeledTree(vertices=["only"])
        outcome = run_tree_aa(tree, ["only"] * 4, t=1)
        assert outcome.achieved_aa
        assert outcome.rounds == 0

    def test_single_edge(self):
        tree = LabeledTree(edges=[("a", "b")])
        outcome = run_tree_aa(tree, ["a", "b", "a", "b"], t=1)
        assert outcome.achieved_aa
        assert outcome.rounds == 0
        # each party returns its own input (the paper's trivial case)
        assert outcome.honest_outputs == {0: "a", 1: "b", 2: "a", 3: "b"}


class TestConstruction:
    def test_resilience_enforced(self):
        with pytest.raises(ValueError):
            TreeAAParty(0, 6, 2, figure_tree(), "v1")

    def test_input_validated(self):
        with pytest.raises(KeyError):
            TreeAAParty(0, 4, 1, figure_tree(), "zzz")

    def test_duration_is_sum_of_phases(self):
        tree = figure_tree()
        n, t = 7, 2
        party = TreeAAParty(0, n, t, tree, "v1")
        expected = paths_finder_duration(tree, n, t) + (
            ROUNDS_PER_ITERATION * projection_phase_iterations(tree, n, t)
        )
        assert party.duration == expected


class TestTheorem4AcrossFamilies:
    @pytest.mark.parametrize("adversary_name", sorted(ADVERSARIES))
    @pytest.mark.parametrize(
        "tree_factory",
        [
            lambda: figure_tree(),
            lambda: path_tree(17),
            lambda: star_tree(9),
            lambda: binary_tree(3),
            lambda: spider_tree(3, 4),
            lambda: caterpillar_tree(6, 2),
            lambda: random_tree(24, seed=5),
        ],
    )
    def test_aa_achieved(self, adversary_name, tree_factory):
        tree = tree_factory()
        n, t = 7, 2
        rng = random.Random(hash(adversary_name) % 1000)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        adversary = ADVERSARIES[adversary_name](t)
        outcome = run_tree_aa(tree, inputs, t, adversary=adversary)
        assert outcome.terminated
        assert outcome.valid, (adversary_name, outcome.honest_outputs)
        assert outcome.agreement, (adversary_name, outcome.output_diameter)

    @given(
        trees_with_vertex_choices(n_choices=7, min_vertices=2),
        st.sampled_from(["silent", "noise", "burn", "burn-down"]),
    )
    def test_property_random_trees(self, tree_and_inputs, adversary_name):
        tree, inputs = tree_and_inputs
        t = 2
        outcome = run_tree_aa(
            tree, inputs, t, adversary=ADVERSARIES[adversary_name](t)
        )
        assert outcome.achieved_aa

    def test_various_network_sizes(self):
        tree = random_tree(20, seed=13)
        rng = random.Random(4)
        for n in (4, 7, 10, 13):
            t = (n - 1) // 3
            inputs = [rng.choice(tree.vertices) for _ in range(n)]
            outcome = run_tree_aa(
                tree, inputs, t, adversary=BurnScheduleAdversary([1] * t)
            )
            assert outcome.achieved_aa, n

    def test_adaptive_corruption_mid_protocol(self):
        tree = random_tree(20, seed=2)
        rng = random.Random(8)
        n, t = 7, 2
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        outcome = run_tree_aa(
            tree,
            inputs,
            t,
            adversary=AdaptiveCrashAdversary(schedule={4: [1], 9: [5]}),
        )
        assert outcome.terminated and outcome.agreement
        # validity w.r.t. the remaining honest parties' inputs
        assert outcome.valid


class TestFigure5Scenario:
    """The short/long path clamp of TreeAA line 6."""

    def figure5_tree(self):
        """A spine v1..v7 where v6 also has a second neighbor (the red
        vertex) and honest inputs sit near the far end."""
        spine = [f"v{i}" for i in range(1, 8)]
        edges = [(spine[i], spine[i + 1]) for i in range(6)]
        edges.append(("v6", "w_red"))
        edges += [("v5", "u1"), ("v7", "u2"), ("v6", "u3")]
        return LabeledTree(edges=edges)

    def test_outputs_cluster_on_adjacent_spine_vertices(self):
        tree = self.figure5_tree()
        inputs = ["u1", "u2", "u3", "v6", "v7", "u1", "u2"]
        for schedule in ([2], [1, 1], [0, 1, 1]):
            outcome = run_tree_aa(
                tree, inputs, 2, adversary=BurnScheduleAdversary(schedule)
            )
            assert outcome.achieved_aa
            # the red vertex is never output: it lies outside the hull
            assert "w_red" not in set(outcome.honest_outputs.values())

    @pytest.mark.parametrize("engine", ["core", "authenticated"])
    def test_clamp_path_exercised(self, engine):
        """Drive the projection phase's clamp directly, on both engines:
        closestInt beyond the own (shorter) path outputs its last vertex."""
        from repro.authenticated import AuthProjectionPhaseParty, SignatureAuthority
        from repro.core.tree_aa import ProjectionPhaseParty
        from repro.trees import TreePath

        tree = self.figure5_tree()
        path = TreePath(["v1", "v2", "v3"])
        if engine == "core":
            party = ProjectionPhaseParty(0, 4, 1, tree, path, "v1", iterations=1)
        else:
            party = AuthProjectionPhaseParty(
                0, 4, 1, SignatureAuthority(), tree, path, "v1"
            )
        party.value = 3.2  # beyond the path's last position (2)
        assert party._final_output() == "v3"


class TestAdjacentOutputExecutions:
    """Executions where honest parties output two *different* (adjacent)
    vertices — 1-agreement's boundary, reachable only when the adversary
    can afford a burn in the very last iteration of both phases."""

    @pytest.mark.parametrize(
        "seed,direction",
        [(9, "up"), (10, "down"), (17, "down"), (39, "down")],
    )
    def test_split_outputs_still_satisfy_aa(self, seed, direction):
        from repro.core import projection_phase_iterations
        from repro.protocols import realaa_iterations
        from repro.trees import list_construction

        n, t = 13, 4
        tree = random_tree(11, seed)
        euler = list_construction(tree)
        it1 = realaa_iterations(float(len(euler) - 1), 1.0, n, t)
        it2 = projection_phase_iterations(tree, n, t)
        rng = random.Random(seed)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        # spend every burn in phase 2 so the final range stays just under 1
        schedule = [0] * it1 + [1] * min(t, it2)
        outcome = run_tree_aa(
            tree,
            inputs,
            t,
            adversary=BurnScheduleAdversary(schedule, direction=direction),
        )
        assert outcome.achieved_aa
        # (whether the split materialises depends on rounding landings; the
        # known-split configurations below pin one down)

    def test_known_split_execution(self):
        """A pinned execution with two adjacent honest outputs."""
        from repro.core import projection_phase_iterations
        from repro.protocols import realaa_iterations
        from repro.trees import list_construction

        n, t, seed = 13, 4, 9
        tree = random_tree(11, seed)
        euler = list_construction(tree)
        it1 = realaa_iterations(float(len(euler) - 1), 1.0, n, t)
        it2 = projection_phase_iterations(tree, n, t)
        rng = random.Random(seed)
        inputs = [rng.choice(tree.vertices) for _ in range(n)]
        schedule = [0] * it1 + [1] * min(4, it2)
        outcome = run_tree_aa(
            tree, inputs, t, adversary=BurnScheduleAdversary(schedule, direction="up")
        )
        outputs = set(outcome.honest_outputs.values())
        assert len(outputs) == 2
        u, v = sorted(outputs)
        assert tree.adjacent(u, v)
        assert outcome.achieved_aa


class TestRoundComplexity:
    def test_within_theorem4_budget(self):
        for tree in (path_tree(63), random_tree(63, seed=1), star_tree(62)):
            n, t = 7, 2
            rng = random.Random(0)
            inputs = [rng.choice(tree.vertices) for _ in range(n)]
            outcome = run_tree_aa(tree, inputs, t, adversary=SilentAdversary())
            assert outcome.rounds <= tree_aa_round_bound(
                tree.n_vertices, diameter(tree)
            )

    def test_sublogarithmic_scaling(self):
        """Rounds grow like log V / log log V: quadrupling the exponent of
        |V| must far less than quadruple the rounds."""
        rounds = {}
        for k in (2**4, 2**10):
            tree = path_tree(k)
            inputs = [tree.vertices[0], tree.vertices[k - 1]] * 3 + [
                tree.vertices[0]
            ]
            outcome = run_tree_aa(tree, inputs, 2, adversary=SilentAdversary())
            rounds[k] = outcome.rounds
        assert rounds[2**10] < 2.6 * rounds[2**4]

    def test_all_honest_agree_simultaneously_by_design(self):
        """Every honest party runs the same fixed number of rounds (the
        synchronized barrier of TreeAA line 4)."""
        tree = random_tree(15, seed=3)
        n, t = 7, 2
        durations = {
            TreeAAParty(pid, n, t, tree, tree.vertices[0]).duration
            for pid in range(n)
        }
        assert len(durations) == 1


class TestDiameterWalkedOnce:
    def test_one_walk_per_tree_object(self, monkeypatch):
        """Every party and the round budget read one memoised diameter;
        a second run on the same tree walks it zero times and outputs the
        same vertices."""
        from repro.trees import paths

        walks = []
        farthest = paths.farthest_vertex

        def counting(tree, source):
            walks.append(tree)
            return farthest(tree, source)

        monkeypatch.setattr(paths, "farthest_vertex", counting)
        tree = random_tree(31, seed=4)
        rng = random.Random(2)
        inputs = [rng.choice(tree.vertices) for _ in range(10)]
        first = run_tree_aa(tree, inputs, 3, adversary=SilentAdversary())
        # One diameter walk is a double BFS: two farthest-vertex searches.
        assert [w for w in walks if w is tree] == [tree, tree]
        second = run_tree_aa(tree, inputs, 3, adversary=SilentAdversary())
        assert [w for w in walks if w is tree] == [tree, tree]
        assert first.execution.outputs == second.execution.outputs
        fresh = LabeledTree(tree.edges())
        assert fresh == tree and fresh._diameter_path is None
        assert run_tree_aa(
            fresh, inputs, 3, adversary=SilentAdversary()
        ).execution.outputs == first.execution.outputs
