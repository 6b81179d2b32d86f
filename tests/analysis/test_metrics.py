"""Tests for the AA judgement's property verdicts and convergence statistics."""

import pytest

from repro.adversary import SilentAdversary
from repro.analysis import (
    convergence_factors,
    honest_value_ranges,
    overall_factor,
)
from repro.core import judge_real, judge_tree
from repro.net import run_protocol
from repro.protocols import RealAAParty
from repro.trees import figure_tree, path_tree


def _by_pid(values):
    """A value list as the pid-keyed map the judgement reads."""
    return dict(enumerate(values))


class TestRealCheckers:
    def test_validity(self):
        inputs = _by_pid([0.0, 10.0])
        assert judge_real(inputs, _by_pid([5.0, 0.0, 10.0]), 10.0).valid
        judgement = judge_real(inputs, _by_pid([10.5]), 10.0)
        assert not judgement.valid
        assert judgement.outside == (0,)

    def test_agreement(self):
        inputs = _by_pid([0.0, 2.0])
        assert judge_real(inputs, _by_pid([1.0, 1.4]), 0.5).agreement
        assert not judge_real(inputs, _by_pid([1.0, 1.6]), 0.5).agreement


class TestTreeCheckers:
    def test_validity_on_figure_tree(self):
        tree = figure_tree()
        inputs = _by_pid(["v3", "v6", "v5"])
        assert judge_tree(tree, inputs, _by_pid(["v2", "v3"])).valid
        judgement = judge_tree(tree, inputs, _by_pid(["v4"]))
        assert not judgement.valid
        assert judgement.outside == (0,)

    def test_output_diameter(self):
        tree = figure_tree()

        def diameter(outputs):
            return judge_tree(tree, _by_pid(outputs), _by_pid(outputs)).spread

        assert diameter(["v6", "v6"]) == 0
        assert diameter(["v6", "v3"]) == 1
        assert diameter(["v6", "v5"]) == 3

    def test_agreement(self):
        tree = figure_tree()
        outputs = _by_pid(["v3", "v3", "v6"])
        assert judge_tree(tree, outputs, outputs).agreement
        siblings = _by_pid(["v6", "v7"])  # distance 2
        assert not judge_tree(tree, siblings, siblings).agreement


class TestConvergenceSeries:
    def _run(self):
        n, t = 7, 2
        inputs = [0.0, 10.0, 5.0, 0.0, 10.0, 0.0, 0.0]
        return run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=3),
            adversary=SilentAdversary(),
        )

    def test_ranges_start_with_input_spread(self):
        ranges = honest_value_ranges(self._run())
        assert ranges[0] == 10.0
        assert len(ranges) == 4  # inputs + 3 iterations

    def test_factors(self):
        assert convergence_factors([8.0, 4.0, 1.0]) == [0.5, 0.25]
        assert convergence_factors([8.0, 0.0, 0.0]) == [0.0, 0.0]

    def test_overall_factor(self):
        assert overall_factor([8.0, 1.0]) == pytest.approx(0.125)
        assert overall_factor([0.0, 0.0]) == 0.0
        assert overall_factor([]) == 0.0

    def test_missing_history_rejected(self):
        from repro.net.protocol import SilentParty
        from repro.net.network import ExecutionResult, ExecutionTrace

        result = ExecutionResult(
            outputs={0: None},
            honest={0},
            corrupted=set(),
            trace=ExecutionTrace(),
            parties={0: SilentParty(0, 1, 0)},
        )
        with pytest.raises(ValueError):
            honest_value_ranges(result)


class TestTables:
    def test_format_table_alignment(self):
        from repro.analysis import format_table

        text = format_table(
            ["name", "value"], [["alpha", 1.0], ["b", 123456.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_cell_floats(self):
        from repro.analysis.tables import format_cell

        assert format_cell(0.0) == "0"
        assert "e" in format_cell(1.23e-9)
        assert format_cell(True) == "yes"
        assert format_cell(3) == "3"

    def test_row_width_mismatch_rejected(self):
        from repro.analysis import format_table

        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestSweepHelpers:
    def test_spread_inputs_include_diameter_endpoints(self):
        import random

        from repro.analysis import spread_inputs
        from repro.trees import diameter_path

        tree = path_tree(9)
        longest = diameter_path(tree)
        inputs = spread_inputs(tree, 7, random.Random(0))
        assert longest.start in inputs
        assert longest.end in inputs
        assert len(inputs) == 7

    def test_spread_inputs_n1_returns_one_input(self):
        import random

        from repro.analysis import spread_inputs
        from repro.trees import diameter_path

        tree = path_tree(9)
        inputs = spread_inputs(tree, 1, random.Random(0))
        assert len(inputs) == 1
        longest = diameter_path(tree)
        assert inputs[0] in (longest.start, longest.end)

    def test_spread_inputs_n2_returns_both_endpoints(self):
        import random

        from repro.analysis import spread_inputs
        from repro.trees import diameter_path

        tree = path_tree(9)
        inputs = spread_inputs(tree, 2, random.Random(0))
        longest = diameter_path(tree)
        assert sorted(inputs) == sorted([longest.start, longest.end])

    def test_spread_inputs_n0_returns_empty(self):
        import random

        from repro.analysis import spread_inputs

        assert spread_inputs(path_tree(9), 0, random.Random(0)) == []

    def test_spread_inputs_negative_n_rejected(self):
        import random

        import pytest

        from repro.analysis import spread_inputs

        with pytest.raises(ValueError):
            spread_inputs(path_tree(9), -1, random.Random(0))

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("tree_spec", ["path:1", "path:2", "figure", "random:23:5"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 3000])
    def test_spread_inputs_draws_as_a_choice_loop(self, seed, tree_spec, n):
        import random

        from repro.analysis import spread_inputs
        from repro.trees import diameter_path, parse_tree_spec

        def choice_loop(tree, n, rng):
            # The draw spread_inputs pins: one rng.choice per pick, then
            # one shuffle.
            longest = diameter_path(tree)
            picks = [longest.start, longest.end][:n]
            while len(picks) < n:
                picks.append(rng.choice(tree.vertices))
            rng.shuffle(picks)
            return picks

        tree = parse_tree_spec(tree_spec)
        expected_rng, rng = random.Random(seed), random.Random(seed)
        assert spread_inputs(tree, n, rng) == choice_loop(tree, n, expected_rng)
        assert rng.getstate() == expected_rng.getstate()

    def test_tree_aa_and_baseline_spec_smoke(self):
        from dataclasses import replace

        from repro.analysis import BASELINE_PROTOCOL, ScenarioSpec

        spec = ScenarioSpec(protocol="tree-aa", n=4, t=1, tree="path:9")
        ours = spec.run()
        theirs = replace(spec, protocol=BASELINE_PROTOCOL).run()
        assert ours.achieved_aa and theirs.achieved_aa
        assert ours.rounds > 0 and theirs.rounds > 0
        # the same instance: identical honest inputs
        assert ours.honest_inputs == theirs.honest_inputs

    def test_realaa_spec_measured_rounds_smoke(self):
        from repro.analysis import ScenarioSpec

        outcome = ScenarioSpec(
            protocol="real-aa", n=7, t=2, epsilon=1.0, known_range=64.0
        ).run()
        assert outcome.achieved_aa
        assert outcome.rounds > 0
        assert (
            outcome.measured_rounds is None
            or outcome.measured_rounds <= outcome.rounds
        )
