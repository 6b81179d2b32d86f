"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis import SpecError
from repro.cli import (
    CLIError,
    main,
    make_adversary,
    pick_inputs,
)
from repro.trees import diameter, figure_tree, parse_tree_spec, tree_to_json


class TestTreeSpecs:
    """The tree grammar of ``repro.trees`` that ``--tree`` flags use."""

    def test_path(self):
        assert parse_tree_spec("path:9").n_vertices == 9

    def test_star(self):
        tree = parse_tree_spec("star:5")
        assert tree.n_vertices == 6
        assert diameter(tree) == 2

    def test_binary(self):
        assert parse_tree_spec("binary:3").n_vertices == 15

    def test_caterpillar(self):
        assert parse_tree_spec("caterpillar:4x2").n_vertices == 12

    def test_spider(self):
        assert parse_tree_spec("spider:3x4").n_vertices == 13

    def test_broom(self):
        assert parse_tree_spec("broom:3x4").n_vertices == 8

    def test_random_with_seed(self):
        assert parse_tree_spec("random:20:5") == parse_tree_spec("random:20:5")

    def test_figure(self):
        assert parse_tree_spec("figure") == figure_tree()

    def test_json_file(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(figure_tree()))
        assert parse_tree_spec(f"@{path}") == figure_tree()

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="unknown tree family"):
            parse_tree_spec("pyramid:3")

    def test_malformed(self):
        with pytest.raises(SpecError, match="malformed"):
            parse_tree_spec("path:not-a-number")


class TestAdversarySpecs:
    @pytest.mark.parametrize(
        "spec",
        ["none", "silent", "passive", "noise", "noise:7", "crash", "crash:5",
         "burn", "burn-down", "asym"],
    )
    def test_known(self, spec):
        assert make_adversary(spec, t=2) is not None

    def test_unknown(self):
        with pytest.raises(CLIError):
            make_adversary("gremlin", t=2)


class TestInputs:
    def test_random_inputs(self):
        tree = parse_tree_spec("path:5")
        inputs = pick_inputs(tree, "random:3", 7)
        assert len(inputs) == 7
        assert all(v in tree for v in inputs)

    def test_explicit_inputs(self):
        tree = parse_tree_spec("figure")
        assert pick_inputs(tree, "v1,v2,v3", 3) == ["v1", "v2", "v3"]

    def test_wrong_count(self):
        tree = parse_tree_spec("figure")
        with pytest.raises(CLIError, match="exactly"):
            pick_inputs(tree, "v1,v2", 3)

    def test_unknown_label(self):
        tree = parse_tree_spec("figure")
        with pytest.raises(CLIError, match="not a vertex"):
            pick_inputs(tree, "v1,v2,zzz", 3)


class TestCommands:
    def test_tree_aa_success_exit_code(self, capsys):
        code = main(
            [
                "tree-aa",
                "--tree",
                "random:15:2",
                "--inputs",
                "random:1",
                "--adversary",
                "silent",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1-agreement" in out and "yes" in out

    def test_real_aa(self, capsys):
        code = main(
            ["real-aa", "--inputs", "0,4,2,3", "--t", "1", "--epsilon", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "eps-agreement" in out

    def test_real_aa_malformed_inputs(self, capsys):
        code = main(["real-aa", "--inputs", "0,banana", "--t", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_batch_backend(self, capsys):
        code = main(
            [
                "sweep",
                "--kind",
                "real-aa",
                "--adversary",
                "silent",
                "--backend",
                "batch",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 points" in out

    def test_sweep_batch_backend_equivocating_adversary(self, capsys):
        # The default sweep adversary ("burn") equivocates; the dense
        # batch engine replays it, so the sweep completes like any other.
        code = main(
            ["sweep", "--kind", "real-aa", "--backend", "batch", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 points" in out

    def test_sweep_batch_backend_unsupported_adversary(self, capsys):
        # Asymmetric trust is still outside the batch engine's replay
        # set; the refusal must surface as a CLI error, not a traceback.
        code = main(
            [
                "sweep",
                "--kind",
                "real-aa",
                "--adversary",
                "asym",
                "--backend",
                "batch",
                "--no-cache",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "batch backend" in err

    def test_bounds(self, capsys):
        code = main(["bounds", "--diameter", "1000", "--n", "13", "--t", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 2 lower" in out

    def test_make_tree_json_round_trips(self, capsys):
        code = main(["make-tree", "figure", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["schema"].startswith("repro/")

    def test_make_tree_edges(self, capsys):
        code = main(["make-tree", "path:3", "--format", "edges"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 2

    def test_make_tree_dot(self, capsys):
        code = main(["make-tree", "star:3", "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("graph")

    def test_chain_demo(self, capsys):
        code = main(["chain-demo", "--n", "7", "--t", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "forced gap" in out

    def test_bad_tree_spec_is_a_clean_error(self, capsys):
        code = main(
            ["tree-aa", "--tree", "dodecahedron", "--inputs", "random"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTraceAndReport:
    WALKTHROUGH = [
        "trace",
        "--tree", "figure",
        "--inputs", "v3,v6,v5,v6,v3,v8,v8",
        "--t", "2",
    ]

    def test_trace_then_report_round_trips(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main(self.WALKTHROUGH + ["--out", str(out)])
        assert code == 0
        assert "recorded 18 rounds" in capsys.readouterr().out
        assert out.exists()

        code = main(["report", str(out)])
        report = capsys.readouterr().out
        assert code == 0
        assert "tree-aa" in report
        assert "878" in report          # the walkthrough's message total
        assert "per-round metrics" in report

    def test_report_rounds_flag(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(self.WALKTHROUGH + ["--out", str(out)])
        capsys.readouterr()
        code = main(["report", str(out), "--rounds", "2"])
        assert code == 0
        assert "more rounds" in capsys.readouterr().out

    def test_trace_real_aa(self, tmp_path, capsys):
        out = tmp_path / "real.jsonl"
        code = main(
            [
                "trace", "--kind", "real-aa",
                "--inputs", "0,4,2,3",
                "--t", "1",
                "--epsilon", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["report", str(out)])
        assert code == 0
        assert "real-aa" in capsys.readouterr().out

    def test_trace_tree_aa_requires_tree(self, capsys):
        code = main(["trace", "--inputs", "v1", "--out", "/dev/null"])
        assert code == 2
        assert "--tree" in capsys.readouterr().err

    def test_report_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_report_rejects_foreign_schema_version(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(self.WALKTHROUGH + ["--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 999
        out.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        code = main(["report", str(out)])
        assert code == 2
        assert "999" in capsys.readouterr().err

    def test_report_empty_file_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "empty.jsonl"
        out.write_text("")
        code = main(["report", str(out)])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_report_truncated_file_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(self.WALKTHROUGH + ["--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:-1]) + "\n")  # lose the footer
        code = main(["report", str(out)])
        assert code == 2
        assert "run_footer" in capsys.readouterr().err

    def test_report_gutted_round_record_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(self.WALKTHROUGH + ["--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        record = json.loads(lines[1])
        del record["honest_messages"]
        lines[1] = json.dumps(record)
        out.write_text("\n".join(lines) + "\n")
        code = main(["report", str(out)])
        assert code == 2
        assert "honest_messages" in capsys.readouterr().err

    def test_trace_unwritable_output_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            self.WALKTHROUGH + ["--out", str(tmp_path / "no" / "dir.jsonl")]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestAuthenticatedCommand:
    def test_auth_tree_aa_beyond_one_third(self, capsys):
        code = main(
            [
                "auth-tree-aa",
                "--tree",
                "random:15:1",
                "--n",
                "7",
                "--t",
                "3",
                "--inputs",
                "random:2",
                "--adversary",
                "passive",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "t=3 < n/2=3.5" in out

    def test_auth_tree_aa_rejects_half(self, capsys):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            main(
                [
                    "auth-tree-aa",
                    "--tree",
                    "path:5",
                    "--n",
                    "4",
                    "--t",
                    "2",
                    "--inputs",
                    "random",
                ]
            )


class TestCorruptLogs:
    """A log with garbage before its last line is reported as one
    ``path:line`` error with exit code 2, never as a traceback."""

    @staticmethod
    def corrupt(path, first_line):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(first_line + "\n!corrupted!\n" + first_line + "\n")
        return str(path)

    def assert_one_line_error(self, code, capsys, path):
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            f"error: {path}:2: corrupt record before the end of the log"
        ]

    @pytest.mark.parametrize("command", ["status", "run", "resume"])
    def test_flywheel(self, command, tmp_path, capsys):
        ledger = self.corrupt(tmp_path / "ledger.jsonl", '{"type": "point", "index": 0}')
        if command == "status":
            argv = ["flywheel", "status", ledger]
        else:
            argv = ["flywheel", command, "--seed", "1", "--count", "2",
                    "--ledger", ledger, "--no-cache"]
        self.assert_one_line_error(main(argv), capsys, ledger)

    def test_serve(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        journal = self.corrupt(
            data_dir / "journal.jsonl", '{"type": "journal_header", "schema_version": 1}'
        )
        code = main(["serve", "--port", "0", "--data-dir", str(data_dir),
                     "--cache-dir", str(tmp_path / "cache")])
        self.assert_one_line_error(code, capsys, journal)
