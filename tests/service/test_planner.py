"""The job planner: payload shapes, deterministic seeding, and limits."""

import pytest

from repro.analysis.parallel import point_seed
from repro.analysis.spec import SPEC_SWEEP_NAME
from repro.service import MAX_POINTS, PlanError, plan_points

BASE = {"protocol": "real-aa", "n": 4, "t": 1, "known_range": 8.0}


class TestPoints:
    def test_explicit_points_plan_verbatim(self):
        specs = plan_points({"points": [dict(BASE, seed=5)]})
        assert len(specs) == 1
        assert specs[0].seed == 5
        assert specs[0].protocol == "real-aa"

    def test_missing_seed_is_derived_deterministically(self):
        (spec,) = plan_points({"points": [dict(BASE)]})
        assert spec.seed == point_seed(SPEC_SWEEP_NAME, dict(BASE), 0)
        (again,) = plan_points({"points": [dict(BASE)]})
        assert spec.seed == again.seed

    def test_base_seed_perturbs_derived_seeds(self):
        (zero,) = plan_points({"points": [dict(BASE)]}, base_seed=0)
        (one,) = plan_points({"points": [dict(BASE)]}, base_seed=1)
        assert zero.seed != one.seed

    def test_explicit_seed_ignores_base_seed(self):
        (spec,) = plan_points({"points": [dict(BASE, seed=7)]}, base_seed=99)
        assert spec.seed == 7


class TestGrid:
    def test_grid_is_cartesian_product(self):
        specs = plan_points(
            {
                "base": BASE,
                "grid": {"t": [0, 1], "backend": ["reference", "batch"]},
            }
        )
        assert len(specs) == 4
        assert {(s.t, s.backend) for s in specs} == {
            (0, "reference"),
            (0, "batch"),
            (1, "reference"),
            (1, "batch"),
        }

    def test_grid_overrides_base_fields(self):
        specs = plan_points({"base": dict(BASE, seed=3), "grid": {"n": [4, 5]}})
        assert [s.n for s in specs] == [4, 5]
        assert all(s.seed == 3 for s in specs)


class TestErrors:
    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"points": []},
            {"points": "not-a-list"},
            {"points": [["not", "a", "dict"]]},
            {"grid": {"t": [0, 1]}},
            {"base": BASE, "grid": {}},
            {"base": BASE, "grid": {"t": []}},
            {"base": BASE, "grid": {"t": "not-a-list"}},
        ],
    )
    def test_malformed_payloads(self, payload):
        with pytest.raises(PlanError):
            plan_points(payload)

    def test_invalid_spec_dicts_become_plan_errors(self):
        with pytest.raises(PlanError):
            plan_points({"points": [{"protocol": "magic", "n": 3, "t": 0}]})

    @pytest.mark.parametrize(
        "fields",
        [
            {"adversary": "crash:x"},
            {"adversary": "silent:5"},
            {"adversary": "silent", "chaos_script": [[0, 1, "junk"]]},
            {"protocol": "async-real-aa", "scheduler": "split:x"},
            {"protocol": "async-real-aa", "scheduler": "fifo:9"},
        ],
    )
    def test_malformed_grammar_is_a_plan_error(self, fields):
        """Refused at planning (HTTP 400), not queued for a worker to fail."""
        with pytest.raises(PlanError, match="applies to|malformed"):
            plan_points({"points": [dict(BASE, **fields)]})

    @pytest.mark.parametrize("shape", ["points", "grid"])
    def test_file_trees_are_rejected(self, tmp_path, shape):
        # A worker would open the named path on the server, and the cache
        # would key the row on the path, not the tree it holds.
        from repro.service import specs_from_dicts
        from repro.trees import figure_tree, tree_to_json

        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(figure_tree()))
        spec = {"protocol": "tree-aa", "n": 4, "t": 1, "tree": f"@{path}"}
        payload = (
            {"points": [spec]}
            if shape == "points"
            else {"base": spec, "grid": {"seed": [1, 2]}}
        )
        with pytest.raises(PlanError, match="file trees"):
            plan_points(payload)
        with pytest.raises(PlanError, match="file trees"):
            specs_from_dicts([{**spec, "seed": 0}])

    def test_oversized_grids_rejected(self):
        axis = list(range(70))
        with pytest.raises(PlanError):
            plan_points({"base": BASE, "grid": {"seed": axis, "n": axis}})
        assert 70 * 70 > MAX_POINTS
