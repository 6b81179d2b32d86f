"""Tests for the high-level run_* API and its AA verdicts."""

import pytest

from repro.adversary import Adversary, SilentAdversary
from repro.core import run_path_aa, run_real_aa, run_tree_aa
from repro.net.faults import FaultPlan
from repro.net.network import TraceLevel
from repro.trees import TreePath, figure_tree, path_tree


class TestRunTreeAA:
    def test_outcome_fields(self):
        tree = figure_tree()
        outcome = run_tree_aa(tree, ["v3", "v6", "v5", "v3"], t=1, adversary=SilentAdversary())
        assert outcome.tree is tree
        assert sorted(outcome.honest_inputs) == [0, 1, 2]
        assert set(outcome.honest_outputs) == {0, 1, 2}
        assert outcome.rounds > 0
        assert outcome.achieved_aa

    def test_no_adversary_means_everyone_honest(self):
        outcome = run_tree_aa(figure_tree(), ["v3", "v6", "v5", "v3"], t=1)
        assert len(outcome.honest_outputs) == 4

    def test_verdicts_detect_invalid_outputs(self):
        """Force a bogus output and check the verdict machinery catches it."""
        from repro.core import judge_tree

        tree = figure_tree()
        judgement = judge_tree(tree, {0: "v6", 1: "v6"}, {0: "v6", 1: "v5"})
        assert judgement.terminated
        assert not judgement.valid  # v5 outside hull {v6}
        assert judgement.outside == (1,)
        assert judgement.spread == 3
        assert not judgement.agreement

    def test_verdicts_detect_missing_output(self):
        from repro.core import judge_tree

        judgement = judge_tree(figure_tree(), {0: "v6"}, {0: None})
        assert judgement.missing == (0,)
        assert not judgement.terminated
        assert not judgement.valid


class TestRunPathAA:
    def test_project_flag_controls_party_type(self):
        tree = figure_tree()
        # v6 is not on the v1..v5 spine, so project=False must fail...
        spine = TreePath(["v1", "v2", "v5"])
        with pytest.raises(KeyError):
            run_path_aa(tree, spine, ["v6", "v5", "v1", "v2"], t=1)
        # ...while project=True projects it onto the spine.
        outcome = run_path_aa(
            tree, spine, ["v6", "v5", "v1", "v2"], t=1, project=True
        )
        assert outcome.terminated


class TestRunPathAAResilienceHooks:
    """Regression: ``run_path_aa`` threads the resilience-lab hooks.

    The reference route used to lack ``fault_plan`` / ``trace_level`` /
    ``t_assumed`` entirely, and the batch route silently dropped the
    fault plan and hardcoded the trace level — so a degradation sweep
    over PathAA ran clean while claiming to inject faults.  Both routes
    must accept the hooks and agree on their effect.
    """

    TREE = figure_tree()
    SPINE = TreePath(["v1", "v2", "v5"])
    INPUTS = ["v1", "v5", "v1", "v2", "v5"]

    def _run(self, backend, plan):
        return run_path_aa(
            self.TREE,
            self.SPINE,
            self.INPUTS,
            t=2,
            trace_level=TraceLevel.FULL,
            fault_plan=plan,
            t_assumed=1,
            backend=backend,
        )

    def test_hooks_accepted_and_backends_agree(self):
        plans = {
            backend: FaultPlan(
                drop=0.3, duplicate=0.2, seed=11, allow_model_violations=True
            )
            for backend in ("reference", "batch")
        }
        outcomes = {b: self._run(b, plans[b]) for b in plans}
        reference, batch = outcomes["reference"], outcomes["batch"]
        ref_trace, bat_trace = reference.execution.trace, batch.execution.trace
        # The plan actually reached the network on both routes...
        assert ref_trace.faults_dropped + ref_trace.faults_duplicated > 0
        # ...and the routes agree on everything observable.
        assert batch.honest_outputs == reference.honest_outputs
        assert bat_trace.faults_dropped == ref_trace.faults_dropped
        assert bat_trace.faults_duplicated == ref_trace.faults_duplicated
        assert bat_trace.faults_corrupted == ref_trace.faults_corrupted
        assert bat_trace.rounds_executed == ref_trace.rounds_executed

    def test_t_assumed_changes_the_party_tolerance(self):
        # With n = 5 parties a tolerance of t = 2 is over the n/3 bound
        # the parties enforce; t_assumed = 1 is how degradation sweeps
        # cross it.  Omitting t_assumed must therefore raise on both
        # routes, and supplying it must succeed on both.
        for backend in ("reference", "batch"):
            with pytest.raises(ValueError):
                run_path_aa(
                    self.TREE, self.SPINE, self.INPUTS, t=2, backend=backend
                )
            outcome = run_path_aa(
                self.TREE,
                self.SPINE,
                self.INPUTS,
                t=2,
                t_assumed=1,
                backend=backend,
            )
            assert outcome.terminated


class TestRunRealAA:
    def test_default_known_range_is_input_spread(self):
        outcome = run_real_aa([0.0, 4.0, 2.0, 3.0], t=1, epsilon=0.5)
        assert outcome.achieved_aa

    def test_explicit_iterations(self):
        outcome = run_real_aa([0.0, 4.0, 2.0, 3.0], t=1, epsilon=0.5, iterations=3)
        assert outcome.rounds == 9

    def test_spread_and_agreement_fields(self):
        outcome = run_real_aa(
            [0.0, 10.0, 5.0, 5.0, 5.0, 5.0, 5.0],
            t=2,
            epsilon=0.5,
            adversary=SilentAdversary(),
        )
        assert outcome.output_spread <= 0.5
        assert outcome.agreement
        assert outcome.valid

    def test_measured_rounds_none_until_observed(self):
        """Local termination fires when a party *observes* its accepted
        trimmed range ≤ ε.  In iteration 1 the observed range is still the
        input spread, so a 1-iteration run records no local termination;
        a second iteration observes the collapse."""
        one = run_real_aa(
            [0.0, 100.0, 0.0, 100.0], t=1, epsilon=1e-9, iterations=1
        )
        assert one.measured_rounds is None
        assert one.agreement  # outputs coincide even though unobserved

        two = run_real_aa(
            [0.0, 100.0, 0.0, 100.0], t=1, epsilon=1e-9, iterations=2
        )
        assert two.measured_rounds == 6
