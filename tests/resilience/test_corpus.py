"""Regression corpus: format round-trips and the tier-1 replay gate.

Every JSON case under ``tests/corpus/`` replays through the resilience
interpreter and must reproduce its recorded oracle verdict *exactly* —
violating cases must keep violating the same way (the shrunken
reproductions stay alive), clean cases must stay clean (the guards keep
holding).  A failure here means some layer the scenario touches changed
behaviour; regenerate or fix, but never delete silently.
"""

import json
import os

import pytest

from repro.analysis.spec import ScenarioSpec
from repro.resilience import (
    CORPUS_SCHEMA_VERSION,
    CorpusFormatError,
    ReproCase,
    case_from_scenario,
    check_violations,
    execute_scenario,
    iter_corpus,
    load_case,
    save_case,
    verify,
    verify_corpus,
)

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")

CORPUS_CASES = iter_corpus(CORPUS_DIR)


class TestCaseFormat:
    def test_round_trip(self, tmp_path):
        case = ReproCase(
            name="round-trip",
            description="format check",
            spec=ScenarioSpec(
                protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
                adversary="silent", corrupt=(2,),
            ),
            expected_violations=(),
        )
        path = save_case(case, str(tmp_path))
        assert load_case(path) == case
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == CORPUS_SCHEMA_VERSION

    def test_case_from_scenario_freezes_current_verdict(self):
        clean = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
        )
        case = case_from_scenario("clean", "freeze check", clean)
        assert case.expected_violations == ()
        assert verify(case)

    def test_verify_detects_a_wrong_expectation(self):
        clean = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
        )
        wrong = ReproCase(
            name="wrong", description="", spec=clean,
            expected_violations=("agreement",),
        )
        assert not verify(wrong)

    def test_verify_corpus_lists_failures(self, tmp_path):
        clean = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
        )
        save_case(
            ReproCase("good", "", clean, ()), str(tmp_path)
        )
        save_case(
            ReproCase("bad", "", clean, ("validity",)), str(tmp_path)
        )
        assert verify_corpus(str(tmp_path)) == ["bad"]

    def test_missing_directory_is_an_empty_corpus(self, tmp_path):
        assert iter_corpus(str(tmp_path / "nope")) == []

    @pytest.mark.parametrize("version", [1, 3, None])
    def test_unknown_schema_version_names_the_file(self, tmp_path, version):
        case = ReproCase(
            "versioned", "", ScenarioSpec(protocol="real-aa", n=4, t=1)
        )
        payload = case.to_dict()
        payload["schema_version"] = version
        path = tmp_path / "versioned.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError) as excinfo:
            load_case(str(path))
        assert str(path) in str(excinfo.value)
        assert "schema_version" in str(excinfo.value)

    def test_a_case_without_a_spec_names_the_file(self, tmp_path):
        path = tmp_path / "headless.json"
        path.write_text(json.dumps(
            {"schema_version": CORPUS_SCHEMA_VERSION, "name": "headless"}
        ))
        with pytest.raises(CorpusFormatError, match="headless.json"):
            load_case(str(path))


class TestShippedCorpus:
    def test_corpus_is_not_empty(self):
        assert len(CORPUS_CASES) >= 5

    def test_corpus_has_both_violating_and_clean_cases(self):
        verdicts = {bool(case.expected_violations) for case in CORPUS_CASES}
        assert verdicts == {True, False}

    def test_names_match_filenames_and_are_unique(self):
        names = [case.name for case in CORPUS_CASES]
        assert len(set(names)) == len(names)
        on_disk = sorted(
            name[: -len(".json")]
            for name in os.listdir(CORPUS_DIR)
            if name.endswith(".json")
        )
        assert sorted(names) == on_disk

    def test_every_case_has_a_description(self):
        for case in CORPUS_CASES:
            assert case.description, case.name

    @pytest.mark.parametrize(
        "case", CORPUS_CASES, ids=[case.name for case in CORPUS_CASES]
    )
    def test_replay_reproduces_recorded_verdict(self, case):
        found = check_violations(case.spec)
        assert found == tuple(sorted(case.expected_violations)), (
            f"corpus case {case.name!r} no longer reproduces: expected "
            f"{case.expected_violations}, replayed {found} "
            f"(error={execute_scenario(case.spec).error!r})"
        )
