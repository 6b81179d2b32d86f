"""Counterexample shrinking: the weakened-guard-to-minimal-repro pipeline.

The acceptance path: a spec whose corruption exceeds the ``t < n/3``
threshold (parties' assumed tolerance stays legal — the network just
hands the adversary more parties) violates ε-agreement; the shrinker
reduces it while preserving that violation; the minimal spec replays the
same verdict deterministically, ready to freeze as a corpus case.
"""

import dataclasses

import pytest

from repro.analysis.spec import ScenarioSpec
from repro.resilience import (
    NotViolatingError,
    check_violations,
    cost,
    shrink,
    shrink_report,
)
from repro.resilience.shrink import _shrink_tree_spec, explicit

#: Over-threshold silent corruption: 3 of 7 parties, assumed t = 2.
#: Honest inputs are spread (0/10 alternating) so halting the corrupted
#: echoes reliably leaves the honest outputs > epsilon apart.
VIOLATING = ScenarioSpec(
    protocol="real-aa",
    n=7,
    t=3,
    t_assumed=2,
    epsilon=0.5,
    inputs=(0.0, 5.0, 10.0, 5.0, 0.0, 5.0, 10.0),
    adversary="silent",
    corrupt=(1, 3, 5),
)

#: Same shape driven by a free-running chaos adversary (seed chosen so
#: the drawn behaviour stream actually breaks agreement).
CHAOS_VIOLATING = dataclasses.replace(VIOLATING, adversary="chaos:8")


class TestPreconditions:
    def test_the_violating_scenario_actually_violates(self):
        assert check_violations(VIOLATING) == ("agreement",)

    def test_clean_scenarios_are_rejected(self):
        clean = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
            adversary="silent", corrupt=(2,),
        )
        with pytest.raises(NotViolatingError):
            shrink(clean)


class TestEndToEndPipeline:
    def test_shrink_reduces_and_preserves_the_failure(self):
        result = shrink(VIOLATING)
        assert result.reduced
        assert cost(result.minimal) < cost(VIOLATING)
        assert result.minimal.n <= VIOLATING.n
        assert len(result.minimal.corrupt) < len(VIOLATING.corrupt)
        assert "agreement" in result.minimal_violations
        # the network budget keeps covering the corrupted set
        assert result.minimal.t >= len(result.minimal.corrupt)

    def test_minimal_scenario_replays_deterministically(self):
        result = shrink(VIOLATING)
        first = check_violations(result.minimal)
        second = check_violations(result.minimal)
        assert first == second == result.minimal_violations

    def test_minimal_scenario_survives_json(self):
        import json

        result = shrink(VIOLATING)
        payload = json.loads(json.dumps(result.minimal.to_dict()))
        rebuilt = ScenarioSpec.from_dict(payload)
        assert check_violations(rebuilt) == result.minimal_violations

    def test_report_is_human_readable(self):
        result = shrink(VIOLATING)
        text = shrink_report(result)
        assert "reductions" in text
        assert "agreement" in text


class TestChaosScriptCapture:
    def test_chaos_violation_becomes_a_scripted_reproduction(self):
        result = shrink(CHAOS_VIOLATING)
        minimal = result.minimal
        # The free-running RNG stream was pinned to an explicit script
        # and then ddmin-truncated to a handful of scripted misbehaviours.
        assert minimal.chaos_script is not None
        assert len(minimal.chaos_script) <= 5
        assert "agreement" in result.minimal_violations

    def test_scripted_minimum_replays_deterministically(self):
        result = shrink(CHAOS_VIOLATING)
        assert (
            check_violations(result.minimal)
            == check_violations(result.minimal)
            == result.minimal_violations
        )


class TestShrinkBudget:
    def test_check_budget_is_respected(self):
        result = shrink(VIOLATING, max_checks=3)
        assert result.checks <= 3

    def test_fixpoint_needs_no_budget_backstop(self):
        # Termination is structural (cost strictly decreases); the
        # default budget should never be the binding constraint here.
        result = shrink(VIOLATING)
        assert result.checks < 400


class TestTreeSpecShrinking:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("path:12", "path:6"),
            ("path:3", "path:2"),
            ("path:2", None),
            ("star:8", "star:4"),
            ("random:16:7", "random:8:7"),
            ("caterpillar:4x3", "caterpillar:4x2"),
            ("caterpillar:4x1", "caterpillar:2x1"),
            ("caterpillar:2x1", None),
        ],
    )
    def test_specs_shrink_within_their_family(self, spec, expected):
        assert _shrink_tree_spec(spec) == expected

    def test_tree_scenario_shrinks_the_tree(self):
        spec = ScenarioSpec(
            protocol="tree-aa", n=7, t=3, t_assumed=2, tree="path:9",
            inputs=("v00", "v08", "v04", "v00", "v08", "v04", "v00"),
            adversary="silent", corrupt=(1, 3, 5),
        )
        assert check_violations(spec) == ("agreement",)
        result = shrink(spec)
        assert result.reduced
        assert "agreement" in result.minimal_violations
        # labels are remapped by vertex index onto the shrunken tree
        # instead of invalidating the spec
        minimal = result.minimal
        assert minimal.tree is not None
        vertices = minimal.build_tree().vertices
        assert all(label in vertices for label in minimal.inputs)


class TestFaultPlanShrinking:
    def test_fault_plan_is_weakened_or_dropped(self):
        # Heavy drop rate on every honest channel starves the protocol:
        # over-threshold corruption plus faults, shrinker must keep the
        # failure while simplifying the plan.
        spec = dataclasses.replace(
            VIOLATING,
            fault_plan={
                "drop": 0.0,
                "duplicate": 0.9,
                "corrupt": 0.0,
                "seed": 3,
                "allow_model_violations": True,
            },
        )
        violations = check_violations(spec)
        assert violations  # still violating with the plan attached
        result = shrink(spec)
        # Either the plan vanished entirely or it got strictly cheaper.
        minimal_plan = result.minimal.fault_plan
        assert minimal_plan is None or cost(result.minimal) < cost(spec)
        assert set(result.minimal_violations) & set(violations)


class TestExplicitSpec:
    def test_derived_inputs_become_explicit(self):
        derived = ScenarioSpec(
            protocol="tree-aa", n=5, t=1, tree="caterpillar:3x2",
            adversary="silent", corrupt=(2,), seed=11,
        )
        spelled = explicit(derived)
        assert spelled.inputs == tuple(derived.make_inputs())
        assert spelled.t_assumed == derived.t
        assert dict(spelled.run().honest_outputs) == dict(
            derived.run().honest_outputs
        )

    def test_path_aa_specs_shrink(self):
        # path-aa inputs live on the commonly known path; the shrinker
        # edits the spec directly, so this protocol shrinks like the rest.
        spec = ScenarioSpec(
            protocol="path-aa", n=7, t=3, t_assumed=2, tree="path:9",
            adversary="silent", corrupt=(1, 3, 5), seed=4,
        )
        violations = check_violations(spec)
        assert violations == ("agreement",)
        result = shrink(spec)
        assert result.reduced
        assert cost(result.minimal) < cost(spec)
        assert check_violations(result.minimal) == result.minimal_violations
