"""The campaign engine: shard, checkpoint, shrink-and-file, self-test.

The oracle self-test satellite lives here: a deliberately perturbed
batch row must be *detected* (backend-parity divergence), *shrunk* (the
delta-debugging passes run under the differential check), and *filed*
(a replayable corpus case with the flywheel's metadata attached).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.spec import ScenarioSpec
from repro.flywheel import (
    FlywheelConfig,
    SelfTestError,
    load_state,
    read_ledger,
    replay_flywheel_case,
    run_flywheel,
    run_selftest,
)
from repro.flywheel.engine import _file_divergence
from repro.flywheel.oracles import evaluate_point
from repro.flywheel.selftest import PERTURBATIONS
from repro.resilience import ORACLE_NAMES, iter_corpus

pytest.importorskip("numpy")

SEED = 7
COUNT = 30


def config(tmp_path, **overrides):
    fields = dict(
        seed=SEED,
        count=COUNT,
        ledger_path=str(tmp_path / "ledger.jsonl"),
        shard_size=10,
        jobs=1,
        no_cache=True,
        corpus_dir=str(tmp_path / "corpus"),
        max_shrink_checks=120,
    )
    fields.update(overrides)
    return FlywheelConfig(**fields)


class TestCleanCampaign:
    def test_campaign_is_green_and_complete(self, tmp_path):
        report = run_flywheel(config(tmp_path))
        assert report.ok
        assert report.executed == COUNT
        state = load_state(str(tmp_path / "ledger.jsonl"))
        assert state.done
        assert state.executed == set(range(COUNT))
        assert state.remaining() == []

    def test_rerun_without_resume_refuses(self, tmp_path):
        run_flywheel(config(tmp_path))
        with pytest.raises(ValueError, match="resume"):
            run_flywheel(config(tmp_path))

    def test_resume_of_a_complete_campaign_is_a_no_op(self, tmp_path):
        run_flywheel(config(tmp_path))
        report = run_flywheel(config(tmp_path), resume=True)
        assert report.executed == 0
        assert report.skipped == COUNT

    def test_mismatched_stream_refuses(self, tmp_path):
        run_flywheel(config(tmp_path))
        from repro.flywheel import LedgerError

        with pytest.raises(LedgerError):
            run_flywheel(config(tmp_path, seed=SEED + 1), resume=True)


class TestExplicitSpecs:
    """``specs=`` runs a caller's list instead of the seeded stream."""

    def specs(self, count):
        return [
            ScenarioSpec(
                protocol="real-aa", n=4, t=1, known_range=8.0, seed=seed
            )
            for seed in range(count)
        ]

    def test_the_given_specs_are_the_points(self, tmp_path):
        specs = self.specs(3)
        report = run_flywheel(config(tmp_path, count=3), specs=specs)
        assert report.ok and report.executed == 3
        rows = [
            record["row"]
            for record in read_ledger(str(tmp_path / "ledger.jsonl"))
            if record["type"] == "point"
        ]
        assert [ScenarioSpec.from_dict(row["spec"]) for row in rows] == specs

    def test_spec_count_must_match_the_config(self, tmp_path):
        with pytest.raises(ValueError, match="3 specs"):
            run_flywheel(config(tmp_path, count=4), specs=self.specs(3))

    def test_malformed_spec_fails_the_run_before_the_ledger_records_it(
        self, tmp_path
    ):
        from repro.analysis.spec import SpecError

        bad = ScenarioSpec(protocol="tree-aa", n=5, t=1, tree="random:4:x")
        with pytest.raises(SpecError):
            run_flywheel(config(tmp_path, count=1), specs=[bad])
        assert load_state(str(tmp_path / "ledger.jsonl")).executed == set()

    def test_resume_with_other_specs_refuses(self, tmp_path):
        from repro.flywheel import LedgerError

        run_flywheel(config(tmp_path, count=3), specs=self.specs(3))
        other = self.specs(4)[1:]
        with pytest.raises(LedgerError, match="digest"):
            run_flywheel(config(tmp_path, count=3), resume=True, specs=other)


class TestInjectedDivergence:
    """The self-test satellite: perturb -> detect -> shrink -> file."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("selftest")
        return (
            tmp_path,
            run_selftest(
                str(tmp_path / "ledger.jsonl"),
                str(tmp_path / "corpus"),
                seed=SEED,
                count=24,
            ),
        )

    def test_perturbation_is_detected(self, report):
        _, rep = report
        assert any(
            "backend-parity" in d["oracles"] for d in rep.divergences
        )

    def test_divergences_are_shrunk(self, report):
        _, rep = report
        assert any(d.get("shrunk") for d in rep.divergences)

    def test_cases_are_filed_and_replayable(self, report):
        tmp_path, rep = report
        cases = iter_corpus(str(tmp_path / "corpus"))
        assert cases
        for case in cases:
            flywheel = case.extras["flywheel"]
            assert flywheel["oracles"]
            assert flywheel["stream_seed"] == SEED
            # The filed spec must re-fire the same divergence when the
            # recorded seam is re-applied.
            row = replay_flywheel_case(case)
            assert set(flywheel["oracles"]) & set(
                name
                for name, cell in row["oracles"].items()
                if cell["status"] == "divergence"
            )

    def test_filed_files_round_trip_as_plain_json(self, report):
        tmp_path, _ = report
        corpus = str(tmp_path / "corpus")
        for filename in os.listdir(corpus):
            payload = json.loads(open(os.path.join(corpus, filename)).read())
            assert "flywheel" in payload
            ScenarioSpec.from_dict(payload["spec"])

    def test_filed_verdicts_use_known_oracle_names(self, report):
        # A filed case must replay green under the tier-1 corpus gate,
        # so its recorded verdict may only name real invariant oracles.
        tmp_path, _ = report
        for case in iter_corpus(str(tmp_path / "corpus")):
            assert set(case.expected_violations) <= set(ORACLE_NAMES)

    def test_ledger_records_the_divergences(self, report):
        tmp_path, rep = report
        state = load_state(str(tmp_path / "ledger.jsonl"))
        assert len(state.divergences) == len(rep.divergences)

    def test_a_blind_selftest_fails_loudly(self, tmp_path):
        """Sanity-check the checker: an identity perturbation (a seam
        that changes nothing — ``builtins:dict`` just copies the row)
        must make the self-test refuse to report success."""
        with pytest.raises(SelfTestError):
            run_selftest(
                str(tmp_path / "ledger.jsonl"),
                str(tmp_path / "corpus"),
                seed=SEED,
                count=6,
                perturbation="builtins:dict",
            )


class TestUnfiledDivergence:
    """Without a ``corpus_dir`` nothing is filed, so nothing is shrunk."""

    def test_divergences_are_recorded_unshrunk(self, tmp_path):
        cfg = config(
            tmp_path, count=6, corpus_dir=None, perturb=PERTURBATIONS["rounds"]
        )
        report = run_flywheel(cfg)
        assert report.divergences
        state = load_state(cfg.ledger_path)
        for record in report.divergences + list(state.divergences):
            assert record["shrunk"] is False and record["filed"] is False
            assert "shrink_checks" not in record
            assert "minimal_spec" not in record


class TestPathAADivergence:
    """path-aa points shrink and file like every other protocol."""

    def test_path_aa_divergence_is_shrunk_and_filed(self, tmp_path):
        spec = ScenarioSpec(
            protocol="path-aa", n=6, t=1, tree="path:8",
            adversary="silent", corrupt=(4,), seed=5,
        )
        perturb = PERTURBATIONS["rounds"]
        row = evaluate_point(spec, perturb)
        assert not row["ok"]
        cfg = config(tmp_path, perturb=perturb)
        record = _file_divergence(cfg, 0, spec, row)
        assert "unshrinkable" not in record
        assert record["shrunk"] and record["filed"]
        assert ScenarioSpec.from_dict(record["minimal_spec"]).n < spec.n
        (case,) = iter_corpus(cfg.corpus_dir)
        assert case.spec.protocol == "path-aa"
        replayed = replay_flywheel_case(case)
        assert "backend-parity" in {
            name
            for name, cell in replayed["oracles"].items()
            if cell["status"] == "divergence"
        }
