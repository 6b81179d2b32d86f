"""Tests for the AA property checkers and convergence statistics."""

import pytest

from repro.adversary import SilentAdversary
from repro.analysis import (
    convergence_factors,
    honest_value_ranges,
    overall_factor,
    real_agreement,
    real_validity,
    tree_agreement,
    tree_output_diameter,
    tree_validity,
)
from repro.net import run_protocol
from repro.protocols import RealAAParty
from repro.trees import figure_tree, path_tree


class TestRealCheckers:
    def test_validity(self):
        assert real_validity([0.0, 10.0], [5.0, 0.0, 10.0])
        assert not real_validity([0.0, 10.0], [10.5])

    def test_agreement(self):
        assert real_agreement([1.0, 1.4], 0.5)
        assert not real_agreement([1.0, 1.6], 0.5)


class TestTreeCheckers:
    def test_validity_on_figure_tree(self):
        tree = figure_tree()
        assert tree_validity(tree, ["v3", "v6", "v5"], ["v2", "v3"])
        assert not tree_validity(tree, ["v3", "v6", "v5"], ["v4"])

    def test_output_diameter(self):
        tree = figure_tree()
        assert tree_output_diameter(tree, ["v6", "v6"]) == 0
        assert tree_output_diameter(tree, ["v6", "v3"]) == 1
        assert tree_output_diameter(tree, ["v6", "v5"]) == 3

    def test_agreement(self):
        tree = figure_tree()
        assert tree_agreement(tree, ["v3", "v3", "v6"])
        assert not tree_agreement(tree, ["v6", "v7"])  # siblings: distance 2


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
