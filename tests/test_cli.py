"""Tests for the command-line interface."""

import argparse
import json
import os
import tempfile

import pytest

from repro.analysis import SpecError
from repro.analysis.spec import ScenarioSpec
from repro.cli import (
    CLIError,
    build_parser,
    main,
    make_adversary,
    pick_inputs,
)
from repro.trees import diameter, figure_tree, parse_tree_spec, tree_to_json


SURFACE_PINS = os.path.join(os.path.dirname(__file__), "cli_surface_pins.json")


def parser_surface(parser, path=""):
    """``{command path: [argument row, ...]}`` for *parser* and every
    subparser below it, except ``lint`` (its flags belong to
    :mod:`repro.statics.cli`)."""
    surface = {path: []}
    for action in parser._actions:
        surface[path].append([
            " ".join(action.option_strings) or action.dest,
            action.default,
            getattr(action.type, "__name__", action.type),
            None if action.choices is None else list(action.choices),
            action.required,
            action.nargs,
            type(action).__name__,
        ])
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if name != "lint":
                    surface.update(parser_surface(sub, f"{path} {name}".strip()))
    return surface


class TestSurface:
    """Every (sub)command keeps each argument's option strings, default,
    type, choices, ``required``, ``nargs`` and action class, in order."""

    def test_matches_the_pinned_surface(self):
        with open(SURFACE_PINS) as handle:
            pinned = json.load(handle)
        del pinned["_fields"]
        surface = parser_surface(build_parser())
        assert sorted(surface) == sorted(pinned)
        for path, rows in pinned.items():
            # JSON text, so an int default never passes for a float one
            assert [json.dumps(row) for row in surface[path]] == [
                json.dumps(row) for row in rows
            ], path


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

    def test_random_inputs_are_the_tree_specs_draw(self):
        # auth-tree-aa reads them; the spec-run verbs record the seed.
        tree = parse_tree_spec("figure")
        spec = ScenarioSpec(protocol="tree-aa", n=7, t=2, tree="figure", seed=4)
        assert pick_inputs(tree, "random:4", 7) == spec.make_inputs()

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--diameter", "inf", "spread D must be finite, got inf"),
            ("--diameter", "nan", "spread D must be finite, got nan"),
            ("--epsilon", "nan", "epsilon must be finite, got nan"),
        ],
    )
    def test_bounds_rejects_non_finite(self, flag, value, message, capsys):
        argv = ["bounds", "--diameter", "1000", "--n", "13", "--t", "4", flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_serve_rejects_negative_jobs(self, tmp_path, capsys):
        # Refused while the service is built, before the socket is bound.
        argv = ["serve", "--port", "0", "--jobs", "-1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: jobs must be >= 1")

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

    @pytest.mark.parametrize(
        "flags, n, t, seed",
        [([], 7, 2, 0), (["--inputs", "random:5", "--n", "4", "--t", "1"], 4, 1, 5)],
    )
    def test_trace_real_aa_draws_seeded_inputs_for_n_parties(
        self, flags, n, t, seed, tmp_path, capsys
    ):
        from repro.analysis.spec import ScenarioSpec
        from repro.observability import load_run

        out = tmp_path / "real.jsonl"
        assert main(["trace", "--kind", "real-aa", "--out", str(out), *flags]) == 0
        spec = ScenarioSpec.from_dict(load_run(str(out)).header["params"]["spec"])
        assert (spec.n, spec.t, spec.seed, spec.inputs) == (n, t, seed, None)
        assert "recorded" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, seed", [([], 0), (["--inputs", "random:3", "--t", "1"], 3)]
    )
    def test_trace_tree_aa_records_the_seed_not_labels(self, flags, seed, tmp_path):
        """``random[:SEED]`` is the spec's own seed-derived draw on every
        kind, recorded as the seed."""
        from repro.analysis.spec import ScenarioSpec
        from repro.observability import load_run

        out = tmp_path / "tree.jsonl"
        main(["trace", "--tree", "figure", "--out", str(out), *flags])
        header = load_run(str(out)).header
        spec = ScenarioSpec.from_dict(header["params"]["spec"])
        assert (spec.seed, spec.inputs) == (seed, None)
        assert header["inputs"] == ScenarioSpec(
            protocol="tree-aa", n=7, t=spec.t, tree="figure", seed=seed
        ).make_inputs()

    def test_real_aa_verb_has_no_random_inputs(self, capsys):
        # `repro real-aa` has no --n to size seed-derived inputs.
        assert main(["real-aa", "--inputs", "random:0", "--t", "1"]) == 2
        assert "malformed inputs" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["auth-tree-aa", "--tree", "path:5", "--n", "4", "--t", "2",
              "--inputs", "random"], "t < n/2"),
            (["tree-aa", "--tree", "path:5", "--n", "4", "--t", "2"], "t < n/3"),
            (["real-aa", "--inputs", "0,1,2,3", "--t", "2"], "t < n/3"),
            (["bounds", "--diameter", "1000", "--n", "4", "--t", "2"], "t < n/3"),
            (["sweep", "--kind", "real-aa", "--networks", "4:2", "--no-cache"],
             "t < n/3"),
            (["trace", "--kind", "real-aa", "--inputs", "0,1,2,3", "--t", "2",
              "--out", "unused.jsonl"], "t < n/3"),
        ],
        ids=["auth-tree-aa", "tree-aa", "real-aa", "bounds", "sweep", "trace"],
    )
    def test_auth_tree_aa_rejects_half(self, argv, message, capsys):
        # A guard's ValueError is a user error: exit 2, no traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


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


class TestFlywheelArguments:
    """A bad argument is refused with ``error: ...``, exit 2, before a
    ledger (or a sweep's JSONL) is written."""

    JOBS = "jobs must be >= 1 (or 0 for cpu_count), got -1"
    SEAM = "perturb seam 'bogus' cannot be imported"
    RUN = ["flywheel", "run", "--count", "3", "--no-cache", "--ledger", "{log}"]
    SELFTEST = ["flywheel", "selftest", "--workdir", "{dir}"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--kind", "real-aa", "--no-cache", "--jsonl", "{log}",
              "--jobs", "-1"], JOBS),
            (["campaign", "--count", "3", "--no-cache", "--ledger", "{log}",
              "--jobs", "-1"], JOBS),
            (RUN + ["--jobs", "-1"], JOBS),
            (RUN + ["--shard-size", "0"], "shard_size must be >= 1, got 0"),
            (RUN + ["--inject-divergence", "bogus"], SEAM),
            (SELFTEST + ["--jobs", "-1"], JOBS),
            (RUN + ["--count", "-3"], "count must be >= 0, got -3"),
            (SELFTEST + ["--count", "-3"], "count must be >= 0, got -3"),
            (SELFTEST + ["--perturbation", "bogus"], SEAM),
        ],
        ids=[
            "sweep-jobs", "campaign-jobs", "run-jobs", "run-shard-size",
            "run-perturb", "selftest-jobs", "run-count", "selftest-count",
            "selftest-perturb",
        ],
    )
    def test_refused_before_the_ledger(self, argv, message, tmp_path, capsys):
        log = tmp_path / "ledger.jsonl"
        assert main([arg.format(log=log, dir=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not log.exists()

    def test_refused_selftest_leaves_no_temporary_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["flywheel", "selftest", "--jobs", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
