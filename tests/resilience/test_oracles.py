"""Invariant oracles judged over hand-crafted scenario results.

The oracles must be *total*: whatever garbage an execution produces —
``NaN`` outputs, ``None`` outputs, unhashable non-vertices — evaluation
returns violations, it never raises.
"""

import math

from repro.analysis.spec import ScenarioSpec
from repro.resilience import (
    ORACLE_NAMES,
    ScenarioResult,
    Violation,
    evaluate,
    violated_oracles,
)
from repro.trees import parse_tree_spec


def real_result(**overrides):
    spec = ScenarioSpec(
        protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
        adversary="silent", corrupt=(3,), epsilon=0.5,
    )
    result = ScenarioResult(
        spec=spec,
        honest_inputs={0: 0.0, 1: 1.0, 2: 2.0},
        honest_outputs={0: 1.0, 1: 1.2, 2: 1.4},
        rounds=5,
        round_limit=10,
    )
    for key, value in overrides.items():
        setattr(result, key, value)
    return result


def tree_result(**overrides):
    tree = parse_tree_spec("path:5")
    a, b, c, d, e = tree.vertices
    spec = ScenarioSpec(
        protocol="tree-aa", n=4, t=1, inputs=(a, e, c, b),
        adversary="silent", corrupt=(3,), tree="path:5",
    )
    result = ScenarioResult(
        spec=spec,
        honest_inputs={0: a, 1: e, 2: c},
        honest_outputs={0: c, 1: c, 2: d},
        rounds=3,
        round_limit=12,
        tree_obj=tree,
    )
    for key, value in overrides.items():
        setattr(result, key, value)
    return result


class TestCleanResults:
    def test_clean_real_result_has_no_violations(self):
        assert evaluate(real_result()) == []

    def test_clean_tree_result_has_no_violations(self):
        assert evaluate(tree_result()) == []

    def test_oracle_names_cover_all_violations(self):
        assert set(ORACLE_NAMES) == {
            "no-exception", "termination", "validity", "agreement",
            "round-bound",
        }


class TestNoException:
    def test_error_short_circuits_to_single_violation(self):
        result = real_result(error="ValueError: boom @ x.py:3",
                             honest_outputs={})
        violations = evaluate(result)
        assert violated_oracles(violations) == ["no-exception"]
        assert "boom" in violations[0].detail


class TestTermination:
    def test_stalled_async_run(self):
        result = real_result(completed=False, stall="step budget exhausted")
        assert "termination" in violated_oracles(evaluate(result))

    def test_none_outputs_are_termination_not_validity(self):
        result = real_result(honest_outputs={0: 1.0, 1: None, 2: 1.2})
        assert violated_oracles(evaluate(result)) == ["termination"]

    def test_no_outputs_at_all_skips_validity_and_agreement(self):
        result = real_result(honest_outputs={})
        assert violated_oracles(evaluate(result)) == ["termination"]


class TestRealValidityAndAgreement:
    def test_nan_output_is_a_validity_violation_not_a_crash(self):
        result = real_result(honest_outputs={0: 1.0, 1: math.nan, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))

    def test_infinite_output_is_a_validity_violation(self):
        result = real_result(honest_outputs={0: 1.0, 1: math.inf, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))

    def test_int_too_large_for_a_float_is_a_validity_violation(self):
        result = real_result(honest_outputs={0: 1.0, 1: 10**400, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))

    def test_output_outside_input_hull(self):
        result = real_result(honest_outputs={0: 1.0, 1: 1.2, 2: 9.0})
        names = violated_oracles(evaluate(result))
        assert "validity" in names

    def test_spread_beyond_epsilon_is_agreement(self):
        result = real_result(honest_outputs={0: 0.0, 1: 1.0, 2: 2.0})
        assert "agreement" in violated_oracles(evaluate(result))

    def test_boolean_output_is_not_a_real_number(self):
        result = real_result(honest_outputs={0: 1.0, 1: True, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))


class TestTreeValidityAndAgreement:
    def test_non_vertex_output(self):
        result = tree_result()
        result.honest_outputs[0] = "not-a-vertex"
        assert "validity" in violated_oracles(evaluate(result))

    def test_unhashable_output_does_not_crash(self):
        result = tree_result()
        result.honest_outputs[0] = ["unhashable"]
        assert "validity" in violated_oracles(evaluate(result))

    def test_output_outside_convex_hull(self):
        tree = parse_tree_spec("path:5")
        a, b, c, d, e = tree.vertices
        result = tree_result(
            honest_inputs={0: a, 1: b, 2: a},
            honest_outputs={0: a, 1: b, 2: e},
        )
        assert "validity" in violated_oracles(evaluate(result))

    def test_output_diameter_beyond_one_is_agreement(self):
        tree = parse_tree_spec("path:5")
        a, b, c, d, e = tree.vertices
        result = tree_result(honest_outputs={0: a, 1: c, 2: e})
        assert "agreement" in violated_oracles(evaluate(result))

    def test_missing_tree_object_is_reported(self):
        result = tree_result(tree_obj=None)
        assert "validity" in violated_oracles(evaluate(result))


class TestRoundBound:
    def test_rounds_over_budget(self):
        result = real_result(rounds=11, round_limit=10)
        assert violated_oracles(evaluate(result)) == ["round-bound"]

    def test_no_limit_means_no_check(self):
        result = real_result(rounds=10_000, round_limit=None)
        assert evaluate(result) == []


class TestViolationPlumbing:
    def test_violation_round_trips_through_json(self):
        violation = Violation("agreement", "spread 3 exceeds epsilon 0.5")
        assert Violation.from_dict(violation.to_dict()) == violation

    def test_violated_oracles_deduplicates_and_sorts(self):
        names = violated_oracles(
            [
                Violation("validity", "a"),
                Violation("agreement", "b"),
                Violation("validity", "c"),
            ]
        )
        assert names == ["agreement", "validity"]
