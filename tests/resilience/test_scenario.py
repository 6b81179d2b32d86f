"""The resilience view of a spec: validation, serialisation, execution."""

import dataclasses
import json
import math

import pytest

from repro.adversary import ChaosAdversary, CrashAdversary, SilentAdversary
from repro.analysis.spec import ScenarioSpec, SpecError, build_scheduler
from repro.asynchrony import (
    AsyncSilentAdversary,
    DelaySendersScheduler,
    RandomScheduler,
    SplitScheduler,
)
from repro.protocols.rounds import realaa_duration
from repro.resilience import cost, execute_scenario


def real_spec(**overrides):
    base = dict(
        protocol="real-aa",
        n=4,
        t=1,
        inputs=(0.0, 1.0, 2.0, 3.0),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(SpecError, match="protocol"):
            real_spec(protocol="quantum-aa")

    def test_input_count_must_match_n(self):
        with pytest.raises(SpecError, match="inputs"):
            real_spec(inputs=(0.0, 1.0))

    def test_corrupt_ids_must_be_in_range(self):
        with pytest.raises(SpecError, match="out of range"):
            real_spec(corrupt=(7,))

    def test_duplicate_corrupt_ids_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            real_spec(corrupt=(1, 1))

    def test_tree_aa_needs_a_tree(self):
        with pytest.raises(SpecError, match="tree spec"):
            real_spec(protocol="tree-aa", inputs=(0, 1, 2, 3))

    def test_chaos_not_available_async(self):
        with pytest.raises(SpecError, match="not available"):
            real_spec(protocol="async-real-aa", adversary="chaos:3")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SpecError, match="scheduler"):
            real_spec(protocol="async-real-aa", scheduler="psychic")

    def test_scenario_error_is_value_error(self):
        # The CLI and campaign engine catch ValueError for bad data.
        assert issubclass(SpecError, ValueError)


class TestSerialisation:
    def test_minimal_round_trip(self):
        spec = real_spec(adversary="silent", corrupt=(2,))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_full_round_trip(self):
        spec = ScenarioSpec(
            protocol="tree-aa",
            n=5,
            t=1,
            t_assumed=1,
            inputs=("v00", "v03", "v01", "v04", "v02"),
            adversary="chaos:9",
            corrupt=(0,),
            tree="caterpillar:4x2",
            epsilon=0.25,
            known_range=12.0,
            fault_plan={
                "drop": 0.1,
                "seed": 3,
                "allow_model_violations": True,
            },
            chaos_script=((0, 0, "junk"), (1, 0, "stale")),
            seed=77,
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_round_trip_survives_json(self):
        spec = real_spec(
            protocol="async-real-aa", scheduler="split:2", adversary="noise:4",
            corrupt=(1,), max_steps=500,
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["scheduler"] == "split:2"
        assert payload["max_steps"] == 500
        assert ScenarioSpec.from_dict(payload) == spec


class TestDerivedQuantities:
    def test_network_budget_covers_actual_corruption(self):
        # Parties assume t=2 while the network's budget t=3 covers the
        # three parties the adversary actually holds.
        spec = real_spec(n=7, t=3, t_assumed=2, corrupt=(0, 2, 4),
                         inputs=(0.0,) * 7, adversary="silent")
        assert spec.assumed_t == 2
        result = execute_scenario(spec)
        assert result.error is None
        assert sorted(result.honest_outputs) == [1, 3, 5, 6]

    def test_effective_known_range_derives_from_inputs(self):
        derived = execute_scenario(real_spec())
        assert derived.round_limit == realaa_duration(3.0, 0.5, 4, 1)
        pinned = execute_scenario(real_spec(known_range=10.0))
        assert pinned.round_limit == realaa_duration(10.0, 0.5, 4, 1)

    def test_cost_decreases_with_every_shrink_dimension(self):
        big = ScenarioSpec(
            protocol="tree-aa", n=6, t=2, t_assumed=1,
            inputs=("v00", "v01", "v02", "v03", "v04", "v05"),
            adversary="chaos:1", corrupt=(0, 1), tree="path:12",
            chaos_script=((0, 0, "junk"), (1, 1, "stale")),
        )
        fewer_corrupt = dataclasses.replace(big, corrupt=(0,))
        fewer_parties = dataclasses.replace(
            big, n=5, inputs=big.inputs[:5], corrupt=(0, 1)
        )
        smaller_tree = dataclasses.replace(big, tree="path:6")
        shorter_script = dataclasses.replace(
            big, chaos_script=big.chaos_script[:1]
        )
        for smaller in (fewer_corrupt, fewer_parties, smaller_tree, shorter_script):
            assert cost(smaller) < cost(big)


class TestBuilders:
    def test_sync_adversary_specs(self):
        crash = real_spec(adversary="crash:2:3", corrupt=(1,)).make_adversary()
        assert isinstance(crash, CrashAdversary)
        silent = real_spec(adversary="silent", corrupt=(1,)).make_adversary()
        assert isinstance(silent, SilentAdversary)
        assert real_spec().make_adversary() is None
        async_silent = real_spec(
            protocol="async-real-aa", adversary="silent", corrupt=(1,)
        ).make_adversary()
        assert isinstance(async_silent, AsyncSilentAdversary)

    def test_chaos_script_reaches_the_adversary(self):
        spec = real_spec(
            adversary="chaos:5", corrupt=(1,),
            chaos_script=((0, 1, "junk"),),
        )
        assert isinstance(spec.make_adversary(), ChaosAdversary)

    def test_scheduler_specs(self):
        assert build_scheduler(None, n=4) is None
        assert isinstance(build_scheduler("random:3", n=4), RandomScheduler)
        assert isinstance(build_scheduler("split:2", n=4), SplitScheduler)
        assert isinstance(
            build_scheduler("delay:1", n=4), DelaySendersScheduler
        )
        with pytest.raises(SpecError, match="scheduler"):
            build_scheduler("psychic", n=4)


class TestExecution:
    def test_clean_real_aa_run(self):
        result = execute_scenario(real_spec(adversary="silent", corrupt=(3,)))
        assert result.error is None
        assert result.completed
        assert sorted(result.honest_outputs) == [0, 1, 2]
        spread = max(result.honest_outputs.values()) - min(
            result.honest_outputs.values()
        )
        assert spread <= 0.5
        assert result.rounds <= (result.round_limit or math.inf)

    def test_clean_tree_aa_run_remaps_vertex_indices(self):
        from repro.resilience.shrink import _tree_candidates

        spec = ScenarioSpec(
            protocol="tree-aa", n=4, t=1, inputs=("v00", "v08", "v02", "v03"),
            adversary="silent", corrupt=(1,), tree="path:9",
        )
        (smaller,) = _tree_candidates(spec)
        # path:9 -> path:4: v08 (index 8) wraps modulo the 4 vertices
        assert smaller.tree == "path:4"
        assert smaller.inputs == ("v00", "v00", "v02", "v03")
        result = execute_scenario(smaller)
        assert result.error is None
        assert result.tree_obj is not None
        assert result.round_limit is not None
        for value in result.honest_outputs.values():
            assert value in result.tree_obj

    def test_clean_async_run(self):
        spec = real_spec(
            protocol="async-real-aa", adversary="silent", corrupt=(0,),
            scheduler="random:11",
        )
        result = execute_scenario(spec)
        assert result.error is None
        assert result.completed
        assert result.stall is None
        assert result.rounds <= spec.max_steps
        assert result.round_limit == spec.max_steps

    def test_unhandled_exception_is_captured_not_raised(self):
        # A non-numeric input crashes float() deep inside the run; the
        # interpreter must turn that into result.error, never a raise.
        spec = ScenarioSpec(
            protocol="real-aa", n=2, t=0, inputs=("bogus", 1.0)
        )
        result = execute_scenario(spec)
        assert result.error is not None
        assert "ValueError" in result.error
        assert not result.completed

    def test_malformed_scenario_still_raises(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=2, t=0, inputs=(1.0,))
        bad_args = real_spec(adversary="noise:x")
        with pytest.raises(SpecError, match="malformed adversary"):
            execute_scenario(bad_args)

    @pytest.mark.parametrize(
        "tree, message",
        [("bogus:3", "unknown tree family"), ("path:x", "malformed tree spec")],
    )
    def test_malformed_tree_raises_instead_of_being_a_crash(self, tree, message):
        spec = ScenarioSpec(protocol="tree-aa", n=4, t=1, tree=tree)
        with pytest.raises(SpecError, match=message):
            execute_scenario(spec)

    def test_fault_counters_zero_without_plan(self):
        result = execute_scenario(real_spec())
        assert result.fault_counts == {
            "dropped": 0, "duplicated": 0, "corrupted": 0,
        }

    def test_fault_plan_counters_show_up(self):
        spec = real_spec(
            fault_plan={
                "drop": 0.4, "seed": 5, "allow_model_violations": True,
            },
        )
        result = execute_scenario(spec)
        assert result.error is None
        assert result.fault_counts["dropped"] > 0

    def test_chaos_log_is_captured(self):
        spec = real_spec(adversary="chaos:3", corrupt=(2,))
        result = execute_scenario(spec)
        assert result.chaos_log
        assert all(pid == 2 for _, pid, _ in result.chaos_log)

    def test_path_aa_runs_under_the_tree_oracles(self):
        from repro.resilience import evaluate

        spec = ScenarioSpec(
            protocol="path-aa", n=4, t=1, tree="path:6",
            adversary="silent", corrupt=(2,), seed=3,
        )
        result = execute_scenario(spec)
        assert result.error is None
        assert result.tree_obj is not None
        assert evaluate(result) == []
