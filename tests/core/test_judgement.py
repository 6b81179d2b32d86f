"""One AA judgement: the outcome verdicts and the resilience oracles agree.

:func:`repro.core.judge_real` / :func:`repro.core.judge_tree` are the only
implementation of Definitions 1–2.  The outcomes
(:func:`~repro.core.api.real_aa_outcome`, :func:`~repro.core.api
.tree_aa_outcome`) keep the judgement, and their verdicts and the
invariant oracles (:func:`repro.resilience.oracles.evaluate`) both read
it, so on any honest-output map — garbage included — neither side raises
and ``achieved_aa`` holds exactly when the oracles report no termination,
validity or agreement violation.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.spec import ScenarioSpec
from repro.core import judge_real, judge_tree
from repro.core.api import real_aa_outcome, tree_aa_outcome
from repro.net.network import ExecutionResult, ExecutionTrace
from repro.protocols.realaa import is_real
from repro.resilience.oracles import evaluate
from repro.resilience.scenario import ScenarioResult
from repro.trees import convex_hull, distance, figure_tree

#: The oracles that judge the AA contract itself.
CONTRACT = {"termination", "validity", "agreement"}

TREE = figure_tree()
EPSILON = 0.5

#: Outputs no honest party may produce, on either domain.
GARBAGE = st.sampled_from(
    [
        math.nan,
        math.inf,
        -math.inf,
        True,
        False,
        10**400,
        -(10**400),
        "not-a-vertex",
        ["v1"],
        {"v": 1},
        {1, 2},
    ]
)

REAL_OUTPUTS = st.one_of(
    st.none(),
    st.floats(-2.0, 10.0, allow_nan=False),
    st.integers(-2, 10),
    GARBAGE,
)

TREE_OUTPUTS = st.one_of(
    st.none(),
    st.sampled_from(TREE.vertices),
    st.integers(-2, 10),
    GARBAGE,
)


def _execution(outputs):
    """A finished execution whose honest parties output *outputs*."""
    return ExecutionResult(
        outputs=dict(outputs),
        honest=set(outputs),
        corrupted=set(),
        trace=ExecutionTrace(),
        parties={},
    )


def _instance(draw, inputs, outputs):
    """Draw honest inputs and an honest-output map over the same parties."""
    pids = draw(st.lists(st.integers(0, 7), unique=True, max_size=6))
    vector = [draw(inputs) for _ in range(8)]
    return vector, {pid: draw(outputs) for pid in pids}


@st.composite
def real_instances(draw):
    return _instance(draw, st.floats(0.0, 8.0), REAL_OUTPUTS)


@st.composite
def tree_instances(draw):
    return _instance(draw, st.sampled_from(TREE.vertices), TREE_OUTPUTS)


def _contract_findings(spec, outcome):
    result = ScenarioResult(spec=spec, outcome=outcome)
    return {violation.oracle for violation in evaluate(result)} & CONTRACT


class TestOutcomeMatchesOracles:
    @given(real_instances())
    def test_real(self, instance):
        inputs, outputs = instance
        outcome = real_aa_outcome(_execution(outputs), inputs, EPSILON, 0)
        spec = ScenarioSpec(protocol="real-aa", n=8, t=0, epsilon=EPSILON)
        assert outcome.achieved_aa == (not _contract_findings(spec, outcome))

    @given(tree_instances())
    def test_tree(self, instance):
        inputs, outputs = instance
        outcome = tree_aa_outcome(_execution(outputs), TREE, inputs)
        spec = ScenarioSpec(protocol="tree-aa", n=8, t=0, tree="figure")
        assert outcome.achieved_aa == (not _contract_findings(spec, outcome))


def _groups(outputs, well_formed):
    """Definition-by-definition grouping, one party at a time."""
    missing = tuple(sorted(p for p, v in outputs.items() if v is None))
    garbage = tuple(
        sorted(p for p, v in outputs.items() if v is not None and not well_formed(v))
    )
    good = {p: v for p, v in outputs.items() if v is not None and well_formed(v)}
    return missing, garbage, good


def _vertex(value):
    try:
        return value in TREE
    except TypeError:
        return False


class TestJudgementMatchesDefinitions:
    """The judgement's shortcuts against a party-by-party reading."""

    @given(real_instances())
    def test_real(self, instance):
        inputs, outputs = instance
        honest_inputs = {pid: inputs[pid] for pid in outputs}
        missing, garbage, good = _groups(outputs, is_real)
        values = {pid: float(v) for pid, v in good.items()}
        lo = min(honest_inputs.values(), default=math.inf)
        hi = max(honest_inputs.values(), default=-math.inf)
        judgement = judge_real(honest_inputs, outputs, EPSILON)
        assert (judgement.missing, judgement.garbage) == (missing, garbage)
        assert judgement.outside == tuple(
            sorted(pid for pid, v in values.items() if not lo <= v <= hi)
        )
        spread = max(values.values()) - min(values.values()) if values else 0.0
        assert judgement.spread == spread

    @given(tree_instances())
    def test_tree(self, instance):
        inputs, outputs = instance
        honest_inputs = {pid: inputs[pid] for pid in outputs}
        missing, garbage, good = _groups(outputs, _vertex)
        hull = convex_hull(TREE, honest_inputs.values()) if honest_inputs else set()
        judgement = judge_tree(TREE, honest_inputs, outputs)
        assert (judgement.missing, judgement.garbage) == (missing, garbage)
        assert judgement.outside == tuple(
            sorted(pid for pid, v in good.items() if v not in hull)
        )
        assert judgement.spread == max(
            (distance(TREE, a, b) for a in good.values() for b in good.values()),
            default=0,
        )


class TestTotalSemantics:
    """The cases where the outcome verdicts once disagreed with the oracles."""

    def test_int_real_output_is_valid(self):
        judgement = judge_real({0: 0.0, 1: 2.0}, {0: 1, 1: 1.0}, EPSILON)
        assert judgement.achieved_aa

    def test_unhashable_tree_output_is_garbage(self):
        outcome = tree_aa_outcome(
            _execution({0: "v3", 1: ["v3"]}), TREE, ["v3", "v3"]
        )
        assert outcome.terminated and not outcome.valid
        assert not outcome.achieved_aa

    def test_empty_honest_set_has_not_terminated(self):
        real = real_aa_outcome(_execution({}), [], EPSILON, 0)
        tree = tree_aa_outcome(_execution({}), TREE, [])
        for outcome in (real, tree):
            assert not outcome.terminated and not outcome.achieved_aa
        assert real.output_spread == math.inf
        assert tree.output_diameter == 0

    def test_non_finite_reals_are_garbage(self):
        outputs = {0: math.nan, 1: math.inf, 2: -math.inf, 3: True, 4: 1.0}
        judgement = judge_real({4: 0.0, 5: 2.0}, outputs, EPSILON)
        assert judgement.garbage == (0, 1, 2, 3)
        assert judgement.outside == ()
        assert judgement.spread == 0.0
        assert judgement.terminated and not judgement.valid

    def test_non_vertex_output_is_garbage(self):
        judgement = judge_tree(TREE, {0: "v3"}, {0: "v3", 1: "zz", 2: None})
        assert judgement.missing == (2,)
        assert judgement.garbage == (1,)
        assert judgement.spread == 0

    def test_groups_and_hull(self):
        judgement = judge_real({0: 0.0, 1: 4.0}, {0: 5.0, 1: 4.0, 2: None}, 0.5)
        assert judgement.hull == (0.0, 4.0)
        assert judgement.outside == (0,)
        assert judgement.spread == 1.0
        assert not judgement.terminated

    def test_shortcuts_keep_bools_and_huge_floats_apart(self):
        # True == 1 and hash(True) == hash(1), but only 1 is a real output.
        judgement = judge_real({0: 0.0, 1: 2.0}, {0: 1, 1: True}, EPSILON)
        assert judgement.garbage == (1,)
        # Finite outputs whose float sum overflows are still well formed.
        big = {0: 1e308, 1: 1e308}
        assert judge_real(big, big, EPSILON).achieved_aa
