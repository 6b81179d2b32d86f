"""The differential oracle matrix, point by point."""

from __future__ import annotations

import os

import pytest

from repro.analysis.spec import ScenarioSpec, SpecError
from repro.flywheel.oracles import (
    FLYWHEEL_ORACLES,
    batch_replayable,
    diverging_oracles,
    evaluate_point,
    resolve_perturb,
)
from repro.protocols.rounds import realaa_duration
from repro.resilience import iter_corpus, round_budget, run_scenario
from repro.trees.paths import diameter

pytest.importorskip("numpy")

CORPUS_CASES = iter_corpus(
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "corpus")
)


def tree_spec(**overrides):
    fields = dict(
        protocol="tree-aa", n=5, t=1, tree="path:6", adversary="silent", seed=11
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestHealthyPoints:
    def test_clean_tree_point_is_green_on_every_oracle(self):
        row = evaluate_point(tree_spec())
        assert row["ok"]
        assert set(row["oracles"]) == set(FLYWHEEL_ORACLES)
        statuses = {
            name: cell["status"] for name, cell in row["oracles"].items()
        }
        assert statuses["execution"] == "ok"
        assert statuses["backend-parity"] == "ok"
        assert statuses["cross-protocol"] == "ok"
        assert statuses["round-bound"] == "ok"
        # record=False: nothing for the metrics oracle to compare.
        assert statuses["metrics-parity"] == "skipped"
        assert diverging_oracles(row) == ()

    def test_recorded_point_gets_a_metrics_verdict(self):
        row = evaluate_point(tree_spec(record=True))
        assert row["oracles"]["metrics-parity"]["status"] == "ok"

    def test_real_point_skips_the_tree_only_oracles(self):
        spec = ScenarioSpec(
            protocol="real-aa", n=4, t=0, adversary="none",
            known_range=8.0, seed=3,
        )
        row = evaluate_point(spec)
        assert row["ok"]
        assert row["oracles"]["cross-protocol"]["status"] == "skipped"
        assert row["oracles"]["round-bound"]["status"] == "ok"

    def test_reference_only_adversary_skips_the_differential_pair(self):
        spec = tree_spec(adversary="noise:3")
        assert not batch_replayable(spec)
        row = evaluate_point(spec)
        assert row["oracles"]["backend-parity"]["status"] == "skipped"
        assert row["oracles"]["metrics-parity"]["status"] == "skipped"
        # The reference-side oracles still ran.
        assert row["oracles"]["execution"]["status"] == "ok"

    def test_adversary_that_fails_to_build_fails_alike_on_both_engines(self):
        # A well-formed spec whose chaos script ChaosAdversary refuses.
        spec = tree_spec(adversary="chaos:1", chaos_script=((0, 3, "psychic"),))
        assert batch_replayable(spec)
        row = evaluate_point(spec)
        assert diverging_oracles(row) == ("execution",)
        assert row["oracles"]["backend-parity"]["status"] == "ok"

    def test_row_carries_the_reference_outcome(self):
        row = evaluate_point(tree_spec())
        assert row["rounds"] >= 1
        assert row["verdicts"]["terminated"]


class TestPerturbedPoints:
    def test_round_perturbation_fires_backend_parity(self):
        row = evaluate_point(
            tree_spec(), "repro.flywheel.selftest:perturb_batch_rounds"
        )
        assert not row["ok"]
        assert diverging_oracles(row) == ("backend-parity",)
        assert "rounds" in row["oracles"]["backend-parity"]["detail"]

    def test_verdict_perturbation_fires_backend_parity(self):
        row = evaluate_point(
            tree_spec(), "repro.flywheel.selftest:perturb_batch_verdicts"
        )
        assert "backend-parity" in diverging_oracles(row)

    def test_perturbation_is_recorded_in_the_row(self):
        seam = "repro.flywheel.selftest:perturb_batch_rounds"
        row = evaluate_point(tree_spec(), seam)
        assert row["perturb"] == seam

    def test_unresolvable_seam_is_loud(self):
        with pytest.raises((ImportError, ValueError)):
            resolve_perturb("repro.flywheel.selftest:no_such_function")


class TestDeterminism:
    def test_rows_are_reproducible(self):
        spec = tree_spec(adversary="chaos:99", record=True)
        assert evaluate_point(spec) == evaluate_point(spec)


class TestRoundBudget:
    def test_realaa_budget_uses_the_effective_known_range(self):
        # Point 345 of CampaignConfig(count=400, seed=42): no known_range,
        # input spread 17.76 — a budget sized for a spread of 8 reads 6
        # rounds where the run needs (and is allowed) 9.
        spec = ScenarioSpec(
            protocol="real-aa", n=10, t=2, t_assumed=2,
            inputs=(18.5184, 3.0943, 0.7547, 7.1131, 2.7682,
                    7.3417, 11.6431, 4.6599, 16.2215, 1.8381),
            adversary="crash:4:4", corrupt=(0, 4), seed=1717120387,
        )
        spread = 18.5184 - 0.7547
        assert round_budget(spec) == realaa_duration(spread, 0.5, 10, 2) == 9
        row = evaluate_point(spec)
        assert row["rounds"] == 9
        assert row["oracles"]["round-bound"]["status"] == "ok"
        assert row["ok"]

    def test_path_aa_gets_a_budget(self):
        spec = ScenarioSpec(
            protocol="path-aa", n=6, t=1, tree="path:9", adversary="silent",
            seed=4,
        )
        result = run_scenario(spec)
        expected = realaa_duration(diameter(spec.build_tree()), 1, 6, 1)
        assert result.round_limit == expected == result.outcome.rounds
        assert evaluate_point(spec)["oracles"]["round-bound"]["status"] == "ok"

    def test_exceeding_the_budget_diverges(self, monkeypatch):
        from repro.flywheel import oracles

        spec = ScenarioSpec(protocol="real-aa", n=4, t=1, known_range=8.0, seed=3)
        real_run = oracles.run_scenario

        def tight(candidate):
            result = real_run(candidate)
            result.round_limit = result.outcome.rounds - 1
            return result

        monkeypatch.setattr(oracles, "run_scenario", tight)
        row = evaluate_point(spec)
        assert diverging_oracles(row) == ("round-bound",)
        assert row["oracles"]["round-bound"]["detail"].startswith(
            "round-bound: ran "
        )


class TestReferenceOnlyProtocols:
    def test_async_point_is_judged_against_its_step_budget(self):
        spec = ScenarioSpec(
            protocol="async-real-aa", n=4, t=1, adversary="silent",
            scheduler="random:3", known_range=8.0, seed=3,
        )
        assert not batch_replayable(spec)
        row = evaluate_point(spec)
        statuses = {name: cell["status"] for name, cell in row["oracles"].items()}
        assert statuses == {
            "execution": "ok",
            "backend-parity": "skipped",
            "metrics-parity": "skipped",
            "cross-protocol": "skipped",
            "round-bound": "ok",
        }
        assert run_scenario(spec).round_limit == spec.max_steps
        assert 0 < row["rounds"] <= spec.max_steps

    def test_baseline_point_skips_the_parity_cells(self):
        spec = ScenarioSpec(
            protocol="tree-aa-baseline", n=7, t=2, tree="caterpillar:4x2",
            adversary="silent", seed=3,
        )
        assert not batch_replayable(spec)
        row = evaluate_point(spec)
        assert row["ok"]
        assert row["oracles"]["backend-parity"]["status"] == "skipped"
        assert row["oracles"]["metrics-parity"]["status"] == "skipped"
        assert row["oracles"]["round-bound"]["status"] == "ok"


class TestVerdictBlindSpot:
    """The execution oracle reads the run's own AA verdict."""

    @pytest.mark.parametrize("case", CORPUS_CASES, ids=lambda case: case.name)
    def test_corpus_case_diverges_exactly_when_it_violates(self, case):
        # round-bound findings are the round-bound cell's, not execution's.
        expected = set(case.expected_violations) - {"round-bound"}
        row = evaluate_point(case.spec)
        execution = row["oracles"]["execution"]
        assert (execution["status"] == "divergence") == bool(expected)
        for oracle in expected:
            assert f"{oracle}: " in execution["detail"]

    def test_crash_names_the_no_exception_finding(self, monkeypatch):
        from repro.flywheel import oracles

        def crash(candidate):
            raise RuntimeError("boom")

        monkeypatch.setattr(oracles, "run_scenario", crash)
        row = evaluate_point(tree_spec())
        assert row["oracles"]["execution"] == {
            "status": "divergence",
            "detail": "no-exception: RuntimeError: boom",
        }
        assert row["oracles"]["round-bound"]["status"] == "skipped"

    def test_malformed_spec_raises_instead_of_diverging(self):
        with pytest.raises(SpecError, match="malformed tree spec"):
            evaluate_point(tree_spec(tree="random:4:x"))


class TestTreeBuiltOnce:
    def test_point_parses_and_walks_its_tree_once(self, monkeypatch):
        from repro.analysis import spec as spec_module
        from repro.trees import paths

        spec = tree_spec(tree="caterpillar:5x2")
        monkeypatch.setattr(
            spec_module, "_grammar_tree", spec_module.parse_tree_spec
        )
        uncached = evaluate_point(spec)
        monkeypatch.undo()
        spec_module._grammar_tree.cache_clear()

        parses, walks = [], []
        parse, farthest = spec_module.parse_tree_spec, paths.farthest_vertex
        monkeypatch.setattr(
            spec_module,
            "parse_tree_spec",
            lambda text: parses.append(text) or parse(text),
        )
        # diameter_path's double BFS: two farthest-vertex searches per walk.
        monkeypatch.setattr(
            paths,
            "farthest_vertex",
            lambda tree, source: walks.append(source) or farthest(tree, source),
        )
        row = evaluate_point(spec)
        assert parses == ["caterpillar:5x2"]
        assert len(walks) == 2
        assert row == uncached

    def test_malformed_tree_raises_on_every_call(self):
        spec = tree_spec(tree="random:4:x")
        for _ in range(2):
            with pytest.raises(SpecError, match="malformed tree spec"):
                spec.build_tree()

    def test_file_trees_are_read_anew(self, tmp_path):
        from repro.trees import path_tree, tree_to_json

        source = tmp_path / "tree.json"
        source.write_text(tree_to_json(path_tree(4)))
        spec = tree_spec(tree=f"@{source}")
        first = spec.build_tree()
        source.write_text(tree_to_json(path_tree(6)))
        assert spec.build_tree().n_vertices == 6 != first.n_vertices


class TestJudgedOnce:
    """Each execution of a point is judged exactly once: the oracles read
    the judgement its outcome already holds."""

    @staticmethod
    def judgements(monkeypatch, spec):
        from repro.core.api import AAJudgement

        made = []
        init = AAJudgement.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AAJudgement, "__init__", counting)
        row = evaluate_point(spec)
        assert row["ok"]
        return len(made), row["oracles"]

    def test_tree_point_with_parity_and_baseline(self, monkeypatch):
        count, cells = self.judgements(monkeypatch, tree_spec())
        assert cells["backend-parity"]["status"] == "ok"
        assert cells["cross-protocol"]["status"] == "ok"
        assert count == 3  # reference, batch, baseline

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(protocol="real-aa", n=4, t=1, known_range=8.0, seed=3),
            ScenarioSpec(protocol="path-aa", n=4, t=1, tree="path:6", seed=3),
        ],
        ids=["real-aa", "path-aa"],
    )
    def test_point_with_parity(self, monkeypatch, spec):
        count, cells = self.judgements(monkeypatch, spec)
        assert cells["backend-parity"]["status"] == "ok"
        assert cells["cross-protocol"]["status"] == "skipped"
        assert count == 2  # reference, batch
