"""CLI surface of the resilience lab: ``repro campaign`` / ``repro shrink``."""

import json

from repro.analysis.spec import ScenarioSpec
from repro.cli import main
from repro.resilience import cost, load_case


def violating_scenario_file(tmp_path):
    spec = ScenarioSpec(
        protocol="real-aa", n=7, t=3, t_assumed=2, epsilon=0.5,
        inputs=(0.0, 5.0, 10.0, 5.0, 0.0, 5.0, 10.0),
        adversary="silent", corrupt=(1, 3, 5),
    )
    path = tmp_path / "violating.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


class TestCampaignCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(
            ["campaign", "--count", "8", "--seed", "3", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8 executed" in out
        assert "0 divergences" in out

    def test_degradation_campaign_exits_one_and_tables_violations(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "campaign", "--count", "8", "--seed", "5", "--no-cache",
                "--corruption-ratio", "0.45", "--protocols", "real-aa",
                "--adversaries", "silent",
                "--corpus-dir", str(tmp_path / "corpus"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert '"oracles": ["execution"]' in out
        saved = sorted((tmp_path / "corpus").glob("*.json"))
        assert saved
        # each filed case is a shrunk, schema-2 corpus case ...
        case = load_case(str(saved[0]))
        assert case.expected_violations
        # ... that `repro shrink` reads
        assert main(["shrink", str(saved[0])]) == 0

    def test_campaign_jsonl_report(self, capsys, tmp_path):
        path = tmp_path / "ledger.jsonl"
        code = main(
            [
                "campaign", "--count", "4", "--seed", "2", "--no-cache",
                "--ledger", str(path),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(1 for rec in lines if rec["type"] == "point") == 4

    def test_fault_probability_requires_the_gate(self, capsys):
        code = main(
            ["campaign", "--count", "2", "--fault-probability", "0.2"]
        )
        assert code == 2
        assert "allow_model_violations" in capsys.readouterr().err

    def test_adversaries_without_a_campaign_row_exit_two(self, capsys):
        # A clean exit would pass the gate while testing no adversary.
        code = main(["campaign", "--count", "2", "--adversaries", "gremlin"])
        assert code == 2
        assert "cannot sample adversaries ['gremlin']; choose from" in (
            capsys.readouterr().err
        )


class TestShrinkCommand:
    def test_shrink_prints_report_and_minimal_json(self, capsys, tmp_path):
        path = violating_scenario_file(tmp_path)
        code = main(["shrink", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reductions" in out
        # the minimal spec is printed as replayable JSON
        payload = json.loads(out[out.index("{"):])
        minimal = ScenarioSpec.from_dict(payload)
        assert cost(minimal) < cost(
            ScenarioSpec.from_dict(json.loads(path.read_text()))
        )

    def test_shrink_saves_a_corpus_case(self, capsys, tmp_path):
        path = violating_scenario_file(tmp_path)
        out_path = tmp_path / "minimal-silent.json"
        code = main(
            [
                "shrink", str(path), "--out", str(out_path),
                "--description", "cli round trip",
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["name"] == "minimal-silent"
        assert payload["expected_violations"] == ["agreement"]
        assert payload["description"] == "cli round trip"

    def test_shrink_accepts_corpus_case_files(self, capsys, tmp_path):
        # A saved corpus case (spec nested under "spec") shrinks too.
        path = violating_scenario_file(tmp_path)
        out_path = tmp_path / "case.json"
        assert main(["shrink", str(path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["shrink", str(out_path)]) == 0
        assert "reductions" in capsys.readouterr().out

    def test_shrink_rejects_clean_scenarios(self, capsys, tmp_path):
        clean = ScenarioSpec(
            protocol="real-aa", n=4, t=1, inputs=(0.0, 1.0, 2.0, 3.0),
        )
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(clean.to_dict()))
        code = main(["shrink", str(path)])
        assert code == 2
        assert "violates no oracle" in capsys.readouterr().err
