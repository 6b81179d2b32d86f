"""Campaigns: deterministic generation, execution on the flywheel engine.

The flagship acceptance test runs a 200-scenario seeded campaign across
every adversary kind and every scheduler and requires *zero* divergences
— the resilience lab's statement that the simulator's guards hold
everywhere in the sampled space, not just on the handwritten tests.
"""

import json

import pytest

from repro.analysis.spec import ScenarioSpec
from repro.analysis.strategies import specs_digest
from repro.flywheel import (
    FlywheelConfig,
    diverging_oracles,
    flywheel_point_runner,
    read_ledger,
    run_flywheel,
)
from repro.resilience import CampaignConfig, check_violations, generate_scenarios

#: Seed of the flagship regression campaign (also replayed by CI).
FLAGSHIP_SEED = 42


def run_campaign(config, ledger_path, **overrides):
    """Run a generated campaign the way ``repro campaign`` does."""
    flywheel = FlywheelConfig(
        seed=config.seed,
        count=config.count,
        ledger_path=str(ledger_path),
        no_cache=True,
        **overrides,
    )
    return run_flywheel(flywheel, specs=generate_scenarios(config))


def ledger_rows(path):
    """The point rows of a campaign ledger, by index."""
    return {
        record["index"]: record["row"]
        for record in read_ledger(str(path))
        if record["type"] == "point"
    }


class TestConfigValidation:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            CampaignConfig(count=0)

    def test_party_range_must_be_sane(self):
        with pytest.raises(ValueError, match="min_n"):
            CampaignConfig(min_n=6, max_n=4)

    def test_unsampleable_protocols_rejected(self):
        with pytest.raises(ValueError, match="path-aa"):
            CampaignConfig(protocols=("real-aa", "path-aa"))

    @pytest.mark.parametrize("kind", ["gremlin", "burn", "asym"])
    def test_adversaries_without_a_campaign_row_rejected(self, kind):
        # Filtering them out instead would run every point adversary-free.
        with pytest.raises(ValueError, match=f"adversaries \\['{kind}'\\]; choose from"):
            CampaignConfig(adversaries=("silent", kind))

    def test_unknown_schedulers_rejected(self):
        with pytest.raises(ValueError, match="schedulers \\['psychic'\\]"):
            CampaignConfig(schedulers=("fifo", "psychic"))

    def test_unknown_tree_families_rejected(self):
        # Checked at construction, not when generate_scenarios draws a tree.
        with pytest.raises(ValueError, match="tree_families \\['bogus'\\]; choose from"):
            CampaignConfig(tree_families=("path", "bogus"))

    def test_fault_plans_need_the_explicit_gate(self):
        with pytest.raises(ValueError, match="allow_model_violations"):
            CampaignConfig(max_fault_probability=0.2)
        CampaignConfig(max_fault_probability=0.2, allow_model_violations=True)


class TestGeneration:
    def test_generation_is_deterministic(self):
        config = CampaignConfig(count=40, seed=7)
        assert generate_scenarios(config) == generate_scenarios(config)

    def test_flagship_campaign_digest_is_unchanged(self):
        """The campaign draws read the grammar tables; their RNG sequence
        is pinned like the flywheel stream's."""
        specs = generate_scenarios(CampaignConfig(count=200, seed=FLAGSHIP_SEED))
        assert specs_digest(specs) == (
            "d28d6d1443330f747c674c5a1aa5d4b180cd3de184498ae264dffe45ccc8c894"
        )

    def test_different_seeds_differ(self):
        a = generate_scenarios(CampaignConfig(count=40, seed=1))
        b = generate_scenarios(CampaignConfig(count=40, seed=2))
        assert a != b

    def test_scenarios_are_valid_and_json_serialisable(self):
        for spec in generate_scenarios(CampaignConfig(count=60, seed=3)):
            payload = json.loads(json.dumps(spec.to_dict()))
            assert ScenarioSpec.from_dict(payload) == spec

    def test_legal_configs_keep_corruption_legal(self):
        for spec in generate_scenarios(CampaignConfig(count=60, seed=4)):
            assert spec.n > 3 * spec.t
            assert spec.t_assumed == spec.t
            assert len(spec.corrupt) <= spec.t

    def test_corruption_ratio_crosses_the_threshold(self):
        config = CampaignConfig(
            count=60, seed=5, corruption_ratio=0.45,
            adversaries=("silent",), protocols=("real-aa",),
        )
        scenarios = generate_scenarios(config)
        # Parties keep a legal assumed t; the adversary's set exceeds it,
        # and the network's budget covers it.
        assert all(s.n > 3 * s.t_assumed for s in scenarios)
        assert all(s.t == max(s.t_assumed, len(s.corrupt)) for s in scenarios)
        assert any(3 * len(s.corrupt) >= s.n for s in scenarios)

    def test_flagship_campaign_covers_every_adversary_and_scheduler(self):
        scenarios = generate_scenarios(
            CampaignConfig(count=200, seed=FLAGSHIP_SEED)
        )
        adversaries = {s.adversary.split(":")[0] for s in scenarios}
        schedulers = {
            s.scheduler.split(":")[0] for s in scenarios if s.scheduler
        }
        protocols = {s.protocol for s in scenarios}
        assert adversaries == {"none", "passive", "silent", "noise", "crash", "chaos"}
        assert schedulers == {"fifo", "random", "split", "delay"}
        assert protocols == {"real-aa", "tree-aa", "async-real-aa"}


class TestPointRunner:
    def test_row_is_self_contained_and_json(self):
        spec = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
            adversary="silent", corrupt=(2,),
        )
        row = flywheel_point_runner({"spec": spec.to_dict()}, 999)
        json.dumps(row)  # must be serialisable for the sweep cache
        assert row["ok"] is True
        assert diverging_oracles(row) == ()
        assert ScenarioSpec.from_dict(row["spec"]) == spec

    def test_engine_seed_is_ignored(self):
        spec = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
            adversary="noise:3", corrupt=(2,), seed=5,
        )
        params = {"spec": spec.to_dict()}
        assert flywheel_point_runner(params, 1) == flywheel_point_runner(
            params, 2
        )

    def test_violating_row_reports_the_oracles(self):
        spec = ScenarioSpec(
            protocol="real-aa", n=7, t=3, t_assumed=2, epsilon=0.5,
            inputs=(0.0, 5.0, 10.0, 5.0, 0.0, 5.0, 10.0),
            adversary="silent", corrupt=(1, 3, 5),
        )
        row = flywheel_point_runner({"spec": spec.to_dict()}, 0)
        assert row["ok"] is False
        assert diverging_oracles(row) == ("execution",)
        assert row["oracles"]["execution"]["detail"].startswith("agreement: ")


class TestCampaignRuns:
    def test_small_campaign_is_deterministic(self, tmp_path):
        config = CampaignConfig(count=12, seed=9)
        run_campaign(config, tmp_path / "first.jsonl")
        run_campaign(config, tmp_path / "second.jsonl")
        assert ledger_rows(tmp_path / "first.jsonl") == ledger_rows(
            tmp_path / "second.jsonl"
        )

    def test_campaign_report_digests(self, tmp_path):
        config = CampaignConfig(
            count=10, seed=5, corruption_ratio=0.45,
            adversaries=("silent",), protocols=("real-aa",),
        )
        report = run_campaign(config, tmp_path / "ledger.jsonl")
        assert not report.ok
        # Exactly the points the invariant oracles flag diverge, each on
        # the execution oracle, whose detail names the finding.
        violating = {
            index
            for index, spec in enumerate(generate_scenarios(config))
            if check_violations(spec)
        }
        assert violating
        assert {d["index"] for d in report.divergences} == violating
        assert all(d["oracles"] == ["execution"] for d in report.divergences)
        rows = ledger_rows(tmp_path / "ledger.jsonl")
        for index in violating:
            assert "agreement: " in rows[index]["oracles"]["execution"]["detail"]
        assert f"{len(violating)} divergences" in report.summary()

    def test_campaign_jsonl_sibling(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        config = CampaignConfig(count=4, seed=11)
        run_campaign(config, path)
        records = list(read_ledger(str(path)))
        assert records[0]["type"] == "header"
        # The ledger identifies the specs that actually ran.
        assert records[0]["stream_digest"] == specs_digest(
            generate_scenarios(config)
        )
        assert sum(1 for r in records if r["type"] == "point") == 4
        assert records[-1]["type"] == "done"

    def test_flagship_campaign_is_clean(self, tmp_path):
        # The acceptance criterion: >= 200 seeded scenarios spanning all
        # adversaries and schedulers, zero divergences under legal guards.
        config = CampaignConfig(count=200, seed=FLAGSHIP_SEED)
        report = run_campaign(config, tmp_path / "ledger.jsonl", jobs=2)
        assert report.executed == 200
        failing = [(d["index"], d["oracles"]) for d in report.divergences]
        assert report.ok, f"diverging scenarios: {failing[:3]}"
