"""The parallel sweep engine: determinism, ordering, and the result cache."""

import io
import json

import pytest

from repro.analysis import (
    SPEC_RUNNER,
    ScenarioSpec,
    SweepCache,
    execute_spec_point,
    get_runner,
    grid_from_axes,
    point_seed,
    run_grid,
)

#: A small but real grid — four TreeAA spec points on tiny paths.
GRID = [
    ScenarioSpec(
        protocol="tree-aa", n=4, t=1, tree=f"path:{size}", seed=size
    ).to_dict()
    for size in (5, 7, 9, 11)
]


class TestDeterminism:
    def test_serial_matches_direct_call(self):
        report = run_grid("det", SPEC_RUNNER, GRID[:1], jobs=1, no_cache=True)
        direct = execute_spec_point(ScenarioSpec.from_dict(GRID[0]))
        assert report.rows == [direct]

    def test_parallel_matches_serial_row_for_row(self):
        serial = run_grid("det", SPEC_RUNNER, GRID, jobs=1, no_cache=True)
        parallel = run_grid("det", SPEC_RUNNER, GRID, jobs=2, no_cache=True)
        assert serial.rows == parallel.rows
        assert [row["spec"]["tree"] for row in parallel.rows] == [
            "path:5",
            "path:7",
            "path:9",
            "path:11",
        ]

    def test_repeat_runs_are_identical(self):
        first = run_grid("det", SPEC_RUNNER, GRID, jobs=2, no_cache=True)
        second = run_grid("det", SPEC_RUNNER, GRID, jobs=2, no_cache=True)
        assert first.rows == second.rows

    def test_jobs_zero_means_cpu_count(self):
        report = run_grid(
            "det", SPEC_RUNNER, GRID[:1], jobs=0, no_cache=True
        )
        assert report.jobs >= 1

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_grid("det", SPEC_RUNNER, GRID[:1], jobs=-1, no_cache=True)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cold = run_grid("c", SPEC_RUNNER, GRID, jobs=1, cache_dir=str(tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, 4)
        warm = run_grid("c", SPEC_RUNNER, GRID, jobs=1, cache_dir=str(tmp_path))
        assert (warm.cache_hits, warm.cache_misses) == (4, 0)
        assert warm.rows == cold.rows

    def test_partial_grid_recomputes_only_missing(self, tmp_path):
        run_grid("c", SPEC_RUNNER, GRID[:2], jobs=1, cache_dir=str(tmp_path))
        report = run_grid("c", SPEC_RUNNER, GRID, jobs=1, cache_dir=str(tmp_path))
        assert (report.cache_hits, report.cache_misses) == (2, 2)

    def test_version_bump_invalidates(self, tmp_path):
        run_grid(
            "c", SPEC_RUNNER, GRID, jobs=1, cache_dir=str(tmp_path), version="1"
        )
        bumped = run_grid(
            "c", SPEC_RUNNER, GRID, jobs=1, cache_dir=str(tmp_path), version="2"
        )
        assert (bumped.cache_hits, bumped.cache_misses) == (0, 4)

    def test_different_sweep_name_is_a_different_namespace(self, tmp_path):
        run_grid("c1", SPEC_RUNNER, GRID[:1], jobs=1, cache_dir=str(tmp_path))
        other = run_grid("c2", SPEC_RUNNER, GRID[:1], jobs=1, cache_dir=str(tmp_path))
        assert other.cache_misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        run_grid("c", SPEC_RUNNER, GRID[:1], jobs=1, cache_dir=str(tmp_path))
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        entry.write_text("{not json")
        report = run_grid("c", SPEC_RUNNER, GRID[:1], jobs=1, cache_dir=str(tmp_path))
        assert report.cache_misses == 1

    def test_no_cache_writes_nothing(self, tmp_path):
        run_grid(
            "c",
            SPEC_RUNNER,
            GRID[:1],
            jobs=1,
            cache_dir=str(tmp_path),
            no_cache=True,
        )
        assert list(tmp_path.iterdir()) == []

    def test_entries_store_auditable_keys(self, tmp_path):
        run_grid("c", SPEC_RUNNER, GRID[:1], jobs=1, cache_dir=str(tmp_path))
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        stored = json.loads(entry.read_text())
        assert stored["key"]["sweep"] == "c"
        assert stored["key"]["params"]["tree"] == "path:5"
        assert stored["row"]["spec"]["tree"] == "path:5"

    def test_cache_len(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        assert len(cache) == 0
        key = SweepCache.key("s", "r", {"a": 1}, 0, version="v")
        cache.put(key, {"x": 1})
        assert len(cache) == 1
        assert cache.get(key) == {"x": 1}


class TestSeeds:
    def test_explicit_seed_wins(self):
        assert point_seed("s", {"a": 1, "seed": 42}) == 42

    def test_derived_seed_is_stable_and_param_sensitive(self):
        a = point_seed("s", {"a": 1})
        assert a == point_seed("s", {"a": 1})
        assert a != point_seed("s", {"a": 2})
        assert a != point_seed("other", {"a": 1})
        assert a != point_seed("s", {"a": 1}, base_seed=1)


class TestGridHelpers:
    def test_grid_from_axes_product_and_order(self):
        grid = grid_from_axes(x=[1, 2], y=["a", "b"])
        assert grid == [
            {"x": 1, "y": "a"},
            {"x": 1, "y": "b"},
            {"x": 2, "y": "a"},
            {"x": 2, "y": "b"},
        ]

    def test_unknown_runner_raises(self):
        with pytest.raises(KeyError):
            get_runner("no-such-runner")

    def test_dotted_path_runner_resolves(self):
        from repro.analysis.spec import spec_point_runner

        assert (
            get_runner("repro.analysis.spec:spec_point_runner")
            is spec_point_runner
        )


class TestSweepJsonl:
    def test_jsonl_persists_every_point(self, tmp_path):
        from repro.analysis import SWEEP_SCHEMA_VERSION, point_seed

        path = tmp_path / "sweep.jsonl"
        report = run_grid(
            "j", SPEC_RUNNER, GRID, jobs=1, no_cache=True,
            jsonl_path=str(path),
        )
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        header, points, footer = records[0], records[1:-1], records[-1]
        assert header["type"] == "sweep_header"
        assert header["schema_version"] == SWEEP_SCHEMA_VERSION
        assert header["sweep"] == "j"
        assert header["runner"] == "spec-point"
        assert footer["type"] == "sweep_footer"
        assert footer["points"] == len(GRID)
        assert len(points) == len(GRID)
        for index, (point, params, row) in enumerate(
            zip(points, GRID, report.rows)
        ):
            assert point["type"] == "point"
            assert point["index"] == index
            assert point["params"] == params
            assert point["seed"] == point_seed("j", params)
            assert point["row"] == row

    def test_no_jsonl_by_default(self, tmp_path):
        run_grid("j", SPEC_RUNNER, GRID[:1], jobs=1, no_cache=True)
        assert list(tmp_path.iterdir()) == []

    def test_recorded_spec_embeds_its_trace(self):
        from repro.observability import load_run

        params = dict(GRID[0])
        plain = run_grid("m", SPEC_RUNNER, [params], jobs=1, no_cache=True)
        assert "trace_jsonl" not in plain.rows[0]

        recorded = run_grid(
            "m", SPEC_RUNNER, [{**params, "record": True}],
            jobs=1, no_cache=True,
        )
        row = recorded.rows[0]
        run = load_run(io.StringIO(row["trace_jsonl"]))
        assert len(run.rounds) == row["rounds"]
        assert run.footer["messages"] == (
            run.footer["honest_messages"] + run.footer["byzantine_messages"]
        )
        # the trace and the spec's own record flag are the only difference
        assert {
            k: v for k, v in row.items() if k not in ("trace_jsonl", "spec")
        } == {k: v for k, v in plain.rows[0].items() if k != "spec"}


class TestRealAARunner:
    def test_realaa_point_runner_smoke(self):
        report = run_grid(
            "realaa",
            "realaa-point",
            [
                {
                    "n": 7,
                    "t": 2,
                    "spread": 16.0,
                    "epsilon": 1.0,
                    "adversary": "burn",
                    "seed": 0,
                }
            ],
            jobs=1,
            no_cache=True,
        )
        (row,) = report.rows
        assert row["ok"] is True
        assert row["budget"] <= 3 * (2 + 1)
