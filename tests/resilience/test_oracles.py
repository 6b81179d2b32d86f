"""Invariant oracles judged over hand-crafted scenario results.

Each result holds an outcome built by :func:`~repro.core.api.real_aa_outcome`
or :func:`~repro.core.api.tree_aa_outcome` over a stub execution, so the
oracles format the very judgement a real run carries.  They must be
*total*: whatever garbage an execution produces — ``NaN`` outputs,
``None`` outputs, unhashable non-vertices — evaluation returns
violations, it never raises.
"""

import math

from repro.analysis.spec import ScenarioSpec
from repro.asynchrony.network import AsyncExecutionResult, AsyncTrace
from repro.core.api import real_aa_outcome, tree_aa_outcome
from repro.net.network import ExecutionResult, ExecutionTrace
from repro.resilience import (
    ORACLE_NAMES,
    ScenarioResult,
    Violation,
    evaluate,
    violated_oracles,
)
from repro.trees import parse_tree_spec

REAL_SPEC = ScenarioSpec(
    protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
    adversary="silent", corrupt=(3,), epsilon=0.5,
)
TREE = parse_tree_spec("path:5")
A, B, C, D, E = TREE.vertices
TREE_SPEC = ScenarioSpec(
    protocol="tree-aa", n=4, t=1, inputs=(A, E, C, B),
    adversary="silent", corrupt=(3,), tree="path:5",
)


def _execution(outputs):
    """A finished synchronous execution whose honest parties output *outputs*."""
    return ExecutionResult(
        outputs=dict(outputs), honest=set(outputs), corrupted={3},
        trace=ExecutionTrace(), parties={},
    )


def _stalled(outputs):
    """An asynchronous execution that ran out of steps."""
    return AsyncExecutionResult(
        outputs=dict(outputs), honest=set(outputs), corrupted={3},
        trace=AsyncTrace(), parties={}, completed=False,
    )


def real_result(
    outputs=None, *, spec=REAL_SPEC, execution=_execution, rounds=5, round_limit=10
):
    if outputs is None:
        outputs = {0: 1.0, 1: 1.2, 2: 1.4}
    outcome = real_aa_outcome(execution(outputs), spec.inputs, spec.epsilon, rounds)
    return ScenarioResult(spec=spec, outcome=outcome, round_limit=round_limit)


def tree_result(outputs=None, *, inputs=TREE_SPEC.inputs, tree=TREE):
    if outputs is None:
        outputs = {0: C, 1: C, 2: D}
    outcome = tree_aa_outcome(_execution(outputs), tree, inputs)
    return ScenarioResult(spec=TREE_SPEC, outcome=outcome, round_limit=12)


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
        result = ScenarioResult(spec=REAL_SPEC, error="ValueError: boom @ x.py:3")
        violations = evaluate(result)
        assert violated_oracles(violations) == ["no-exception"]
        assert "boom" in violations[0].detail


class TestTermination:
    def test_stalled_async_run(self):
        spec = ScenarioSpec(
            protocol="async-real-aa", n=4, t=1, inputs=REAL_SPEC.inputs,
            adversary="silent", corrupt=(3,), epsilon=0.5,
        )
        result = real_result(spec=spec, execution=_stalled)
        assert "termination" in violated_oracles(evaluate(result))

    def test_none_outputs_are_termination_not_validity(self):
        result = real_result({0: 1.0, 1: None, 2: 1.2})
        assert violated_oracles(evaluate(result)) == ["termination"]

    def test_no_outputs_at_all_skips_validity_and_agreement(self):
        result = real_result({})
        assert violated_oracles(evaluate(result)) == ["termination"]


class TestRealValidityAndAgreement:
    def test_nan_output_is_a_validity_violation_not_a_crash(self):
        result = real_result({0: 1.0, 1: math.nan, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))

    def test_infinite_output_is_a_validity_violation(self):
        result = real_result({0: 1.0, 1: math.inf, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))

    def test_int_too_large_for_a_float_is_a_validity_violation(self):
        result = real_result({0: 1.0, 1: 10**400, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))

    def test_output_outside_input_hull(self):
        result = real_result({0: 1.0, 1: 1.2, 2: 9.0})
        names = violated_oracles(evaluate(result))
        assert "validity" in names

    def test_spread_beyond_epsilon_is_agreement(self):
        result = real_result({0: 0.0, 1: 1.0, 2: 2.0})
        assert "agreement" in violated_oracles(evaluate(result))

    def test_boolean_output_is_not_a_real_number(self):
        result = real_result({0: 1.0, 1: True, 2: 1.2})
        assert "validity" in violated_oracles(evaluate(result))


class TestTreeValidityAndAgreement:
    def test_non_vertex_output(self):
        result = tree_result({0: "not-a-vertex", 1: C, 2: D})
        assert "validity" in violated_oracles(evaluate(result))

    def test_unhashable_output_does_not_crash(self):
        result = tree_result({0: ["unhashable"], 1: C, 2: D})
        assert "validity" in violated_oracles(evaluate(result))

    def test_output_outside_convex_hull(self):
        result = tree_result({0: A, 1: B, 2: E}, inputs=(A, B, A, B))
        assert "validity" in violated_oracles(evaluate(result))

    def test_output_diameter_beyond_one_is_agreement(self):
        result = tree_result({0: A, 1: C, 2: E})
        assert "agreement" in violated_oracles(evaluate(result))

    def test_missing_tree_object_is_reported(self):
        # Judged without a tree, no output is a vertex.
        result = tree_result(tree=None)
        assert violated_oracles(evaluate(result)) == ["validity"]


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
