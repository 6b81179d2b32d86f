"""Replay the regression corpus on the batch backend.

Every case under ``tests/corpus/`` is classified here as either
*batch-supported* (its spec replays on the batch engine and must
reproduce the reference execution — outputs, rounds, and oracle verdict
— exactly) or *expected-unsupported* (its spec uses a feature the
batch engine deliberately refuses, and the refusal must be the typed
:class:`~repro.engine.UnsupportedBackendError`, not a silent wrong
answer).  A new hand-written corpus case lands in neither set and fails
``test_every_case_is_classified`` until someone decides which behaviour
it gets.

Flywheel-filed cases (``repro flywheel`` divergences) classify
*themselves*: their ``flywheel`` extra records whether the minimal
spec's adversary is batch-replayable (``batch_supported``), so the
campaign can keep growing the corpus without editing this file.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.engine import UnsupportedBackendError
from repro.resilience import iter_corpus
from repro.resilience.oracles import check_violations, evaluate, violated_oracles
from repro.resilience.scenario import execute_scenario

pytest.importorskip("numpy")

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "corpus"
)
CORPUS_CASES = {case.name: case for case in iter_corpus(CORPUS_DIR)}

#: Cases whose spec the batch engine replays bit-identically.
BATCH_SUPPORTED = (
    "chaos-scripted-agreement",
    "crash-partial-broadcast-agreement",
    "faultplan-duplicate-storm",
    "legal-silent-stays-clean",
    "silent-over-threshold-agreement",
    "tree-silent-over-threshold",
)

#: Cases exercising features outside the batch engine's scope
#: (asynchronous delivery) — replay must refuse, loudly.
EXPECTED_UNSUPPORTED = (
    "async-split-noise-stays-clean",
)


def _flywheel_classification(case):
    """``True``/``False`` from a flywheel-filed case's own metadata."""
    flywheel = case.extras.get("flywheel")
    if isinstance(flywheel, dict) and "batch_supported" in flywheel:
        return bool(flywheel["batch_supported"])
    return None


FLYWHEEL_SUPPORTED = tuple(
    sorted(
        name
        for name, case in CORPUS_CASES.items()
        if _flywheel_classification(case) is True
    )
)
FLYWHEEL_UNSUPPORTED = tuple(
    sorted(
        name
        for name, case in CORPUS_CASES.items()
        if _flywheel_classification(case) is False
    )
)

ALL_SUPPORTED = BATCH_SUPPORTED + FLYWHEEL_SUPPORTED

#: The fault-injection counters of an execution's trace.
FAULT_COUNTERS = ("faults_dropped", "faults_duplicated", "faults_corrupted")


def test_every_case_is_classified():
    classified = (
        set(BATCH_SUPPORTED)
        | set(EXPECTED_UNSUPPORTED)
        | set(FLYWHEEL_SUPPORTED)
        | set(FLYWHEEL_UNSUPPORTED)
    )
    assert set(CORPUS_CASES) == classified
    assert not set(ALL_SUPPORTED) & set(EXPECTED_UNSUPPORTED)


@pytest.mark.parametrize("name", ALL_SUPPORTED)
def test_supported_case_replays_identically(name):
    case = CORPUS_CASES[name]
    reference = execute_scenario(replace(case.spec, backend="reference"))
    batch = execute_scenario(replace(case.spec, backend="batch"))
    assert batch.error == reference.error
    ours, theirs = batch.outcome, reference.outcome
    assert ours.honest_inputs == theirs.honest_inputs
    assert ours.honest_outputs == theirs.honest_outputs
    assert ours.rounds == theirs.rounds
    assert ours.judgement == theirs.judgement
    for counter in FAULT_COUNTERS:
        assert getattr(ours.execution.trace, counter) == getattr(
            theirs.execution.trace, counter
        )
    assert batch.round_limit == reference.round_limit
    assert batch.chaos_log == reference.chaos_log
    assert violated_oracles(evaluate(batch)) == violated_oracles(
        evaluate(reference)
    )


@pytest.mark.parametrize("name", ALL_SUPPORTED)
def test_supported_case_verdict_matches_recording(name):
    case = CORPUS_CASES[name]
    assert check_violations(replace(case.spec, backend="batch")) == tuple(
        sorted(case.expected_violations)
    )


@pytest.mark.parametrize(
    "name", EXPECTED_UNSUPPORTED + FLYWHEEL_UNSUPPORTED
)
def test_unsupported_case_refuses_loudly(name):
    case = CORPUS_CASES[name]
    with pytest.raises(UnsupportedBackendError):
        execute_scenario(replace(case.spec, backend="batch"))
