"""ScenarioSpec: serialisation, validation, execution, and the async dialect."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spec import (
    BASELINE_PROTOCOL,
    SPEC_RUNNER,
    SPEC_SWEEP_NAME,
    SPEC_VERSION,
    ScenarioSpec,
    SpecError,
    SpecVersionError,
    build_adversary,
    execute_spec_point,
    spec_cache_key,
)
from ..strategies import scenario_specs


class TestRoundTrip:
    @given(scenario_specs(runnable=False))
    def test_json_round_trip(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    @given(scenario_specs(runnable=False))
    def test_to_dict_is_canonical(self, spec):
        assert spec.to_dict() == spec.to_dict()
        assert spec.to_dict()["spec_version"] == SPEC_VERSION

    @given(scenario_specs(runnable=False), st.integers(0, 2**16))
    def test_with_seed_round_trips(self, spec, seed):
        reseeded = spec.with_seed(seed)
        assert reseeded.seed == seed
        assert ScenarioSpec.from_dict(reseeded.to_dict()) == reseeded

    def test_explicit_inputs_round_trip(self):
        spec = ScenarioSpec(
            protocol="real-aa", n=3, t=0, inputs=(0.0, 4.0, 8.0), known_range=8.0
        )
        assert ScenarioSpec.from_dict(spec.to_dict()).inputs == (0.0, 4.0, 8.0)

    def test_chaos_script_round_trips(self):
        spec = ScenarioSpec(
            protocol="real-aa",
            n=4,
            t=1,
            adversary="chaos:3",
            chaos_script=((0, 1, "silent"), (2, 1, "echo")),
        )
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec


class TestForwardCompat:
    BASE = {"protocol": "real-aa", "n": 3, "t": 0}

    def test_unknown_keys_are_ignored(self):
        payload = {**self.BASE, "spec_version": 1, "future_field": [1, 2, 3]}
        assert ScenarioSpec.from_dict(payload).protocol == "real-aa"

    def test_missing_version_means_one(self):
        assert ScenarioSpec.from_dict(dict(self.BASE)).seed == 0

    @given(st.integers(min_value=SPEC_VERSION + 1, max_value=99))
    def test_newer_versions_rejected(self, version):
        with pytest.raises(SpecVersionError):
            ScenarioSpec.from_dict({**self.BASE, "spec_version": version})

    @pytest.mark.parametrize("version", ["2", 0, -1, None, 1.5])
    def test_non_positive_or_non_int_versions_rejected(self, version):
        with pytest.raises(SpecVersionError):
            ScenarioSpec.from_dict({**self.BASE, "spec_version": version})

    @given(scenario_specs(runnable=False), st.text(min_size=1, max_size=8))
    @settings(max_examples=15)
    def test_any_extra_key_is_harmless(self, spec, key):
        payload = spec.to_dict()
        if key in payload:
            return
        payload[key] = {"nested": True}
        assert ScenarioSpec.from_dict(payload) == spec


class TestValidation:
    def test_unknown_protocol(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="magic", n=3, t=0)

    def test_unknown_backend(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=3, t=0, backend="gpu")

    def test_tree_protocols_need_a_tree(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="tree-aa", n=3, t=0)

    def test_input_length_must_match_n(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=3, t=0, inputs=(0.0, 1.0))

    def test_corrupt_ids_in_range(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=3, t=1, corrupt=(5,))

    def test_duplicate_corrupt_ids(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=3, t=1, corrupt=(1, 1))

    def test_unknown_adversary_kind(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=3, t=0, adversary="gremlin")

    def test_unknown_trace_level(self):
        with pytest.raises(SpecError):
            ScenarioSpec(protocol="real-aa", n=3, t=0, trace_level="verbose")


class TestBuildAdversary:
    def test_none_is_no_adversary_object(self):
        assert build_adversary("none") is None

    def test_crash_defaults(self):
        adversary = build_adversary("crash", t=1)
        assert adversary.crash_round == 1
        assert adversary.partial_to == 0

    def test_crash_with_arguments(self):
        adversary = build_adversary("crash:4:2", t=1)
        assert (adversary.crash_round, adversary.partial_to) == (4, 2)

    def test_seed_fallback_for_seeded_kinds(self):
        fallback = build_adversary("noise", seed=7)
        explicit = build_adversary("noise:7")
        assert fallback._rng.random() == explicit._rng.random()

    def test_malformed_arguments(self):
        with pytest.raises(SpecError):
            build_adversary("crash:soon")

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            build_adversary("gremlin")


class TestExecution:
    @given(scenario_specs())
    @settings(max_examples=15)
    def test_specs_run_on_their_own_backend(self, spec):
        outcome = spec.run()
        assert outcome.terminated
        assert outcome.rounds >= 0

    @given(scenario_specs())
    @settings(max_examples=10)
    def test_execution_is_deterministic(self, spec):
        from repro.observability import diff_runs, load_run_text

        first = execute_spec_point(spec)
        second = execute_spec_point(spec)
        trace_a = first.pop("trace_jsonl", None)
        trace_b = second.pop("trace_jsonl", None)
        assert first == second
        if trace_a is not None:
            # Traces carry wall-clock timings; equivalence is semantic.
            assert diff_runs(load_run_text(trace_a), load_run_text(trace_b)) == []

    def test_row_shape(self):
        spec = ScenarioSpec(
            protocol="tree-aa", n=5, t=1, tree="path:6", adversary="crash:2", seed=4
        )
        row = execute_spec_point(spec)
        assert row["spec"] == spec.to_dict()
        assert row["adversary"] == "crash"
        assert set(row["verdicts"]) == {
            "terminated",
            "valid",
            "agreement",
            "output_diameter",
        }
        assert "trace_jsonl" not in row

    def test_backend_parity_on_shared_spec(self):
        reference = ScenarioSpec(
            protocol="path-aa", n=5, t=1, tree="path:6", adversary="chaos:5", seed=2
        )
        batch = replace(reference, backend="batch")
        assert reference.run().honest_outputs == batch.run().honest_outputs

    def test_recorded_row_replays(self):
        from repro.observability import diff_runs, load_run_text, render_report

        spec = ScenarioSpec(
            protocol="real-aa",
            n=4,
            t=1,
            adversary="silent",
            corrupt=(2,),
            known_range=8.0,
            record=True,
        )
        row = execute_spec_point(spec)
        run = load_run_text(row["trace_jsonl"])
        assert diff_runs(run, run) == []
        assert "real-aa" in render_report(run)


class TestCacheKey:
    def test_key_matches_run_grid_key(self):
        from repro.analysis import SweepCache

        spec = ScenarioSpec(protocol="real-aa", n=4, t=1, seed=9)
        assert spec_cache_key(spec) == SweepCache.key(
            SPEC_SWEEP_NAME, SPEC_RUNNER, spec.to_dict(), spec.seed
        )

    def test_sweep_rows_serve_spec_keys(self, tmp_path):
        """A row written by ``run_grid`` is a hit for ``spec_cache_key``."""
        from repro.analysis import SweepCache, run_grid

        spec = ScenarioSpec(protocol="real-aa", n=4, t=1, known_range=8.0, seed=9)
        run_grid(
            SPEC_SWEEP_NAME,
            SPEC_RUNNER,
            [spec.to_dict()],
            jobs=1,
            cache_dir=str(tmp_path),
        )
        cached = SweepCache(str(tmp_path)).get(spec_cache_key(spec))
        assert cached is not None
        assert cached == execute_spec_point(spec)


class TestScenarioBridge:
    """The resilience lab consumes specs directly — no second dialect."""

    def test_execute_scenario_matches_spec_run(self):
        from repro.resilience import execute_scenario

        spec = ScenarioSpec(
            protocol="tree-aa",
            n=6,
            t=1,
            tree="caterpillar:4x2",
            adversary="chaos:9",
            corrupt=(2,),
            seed=11,
        )
        judged = execute_scenario(spec)
        direct = spec.run()
        assert judged.honest_outputs == dict(direct.honest_outputs)
        assert judged.rounds == direct.rounds
        assert judged.chaos_log

    def test_explicit_spec_runs_identically(self):
        from repro.resilience.shrink import explicit

        spec = ScenarioSpec(
            protocol="real-aa",
            n=5,
            t=1,
            known_range=8.0,
            adversary="crash:2",
            corrupt=(3,),
            seed=6,
        )
        spelled = explicit(spec)
        assert spelled.inputs == tuple(spec.make_inputs())
        assert spelled.t_assumed == 1
        assert spelled.run().honest_outputs == spec.run().honest_outputs

    def test_campaigns_accept_specs(self):
        from repro.resilience.campaign import CampaignConfig, run_campaign

        specs = [
            ScenarioSpec(
                protocol="real-aa",
                n=5,
                t=1,
                known_range=8.0,
                adversary="silent",
                corrupt=(0,),
                seed=seed,
            )
            for seed in range(3)
        ]
        report = run_campaign(CampaignConfig(count=1), specs=specs, no_cache=True)
        assert report.ok
        assert len(report.rows) == 3


class TestAsyncDialect:
    ASYNC = dict(protocol="async-real-aa", n=4, t=1)

    def test_async_round_trip(self):
        spec = ScenarioSpec(
            **self.ASYNC, adversary="noise:4", corrupt=(1,),
            scheduler="split:2", max_steps=900, seed=3,
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["scheduler"] == "split:2"
        assert payload["max_steps"] == 900
        assert ScenarioSpec.from_dict(payload) == spec

    def test_sync_specs_do_not_serialise_async_fields(self):
        payload = ScenarioSpec(protocol="real-aa", n=4, t=1).to_dict()
        assert "scheduler" not in payload
        assert "max_steps" not in payload

    @pytest.mark.parametrize(
        "fields", [{"scheduler": "fifo"}, {"max_steps": 10}]
    )
    def test_async_fields_rejected_on_sync_specs(self, fields):
        with pytest.raises(SpecError, match="async-real-aa"):
            ScenarioSpec(protocol="real-aa", n=4, t=1, **fields)

    @pytest.mark.parametrize("adversary", ["chaos", "chaos:3", "crash:1", "burn"])
    def test_async_specs_take_only_the_async_menu(self, adversary):
        with pytest.raises(SpecError, match="not available"):
            ScenarioSpec(**self.ASYNC, adversary=adversary)

    def test_async_specs_cannot_be_recorded(self):
        with pytest.raises(SpecError, match="recorded"):
            ScenarioSpec(**self.ASYNC, record=True)

    def test_async_run_uses_the_reference_engine(self):
        spec = ScenarioSpec(
            **self.ASYNC, adversary="silent", corrupt=(3,),
            scheduler="random:5", known_range=8.0,
        )
        outcome = spec.run()
        assert outcome.achieved_aa
        assert outcome.execution.completed
        assert outcome.rounds == outcome.execution.trace.steps

    def test_async_with_batch_backend_raises(self):
        from repro.engine import UnsupportedBackendError

        spec = ScenarioSpec(**self.ASYNC, backend="batch")
        with pytest.raises(UnsupportedBackendError):
            spec.run()
        with pytest.raises(UnsupportedBackendError):
            execute_spec_point(spec)

    def test_flywheel_stream_digest_is_unchanged(self):
        from repro.analysis.strategies import stream_digest

        assert stream_digest(0, 500) == (
            "5ecd3ff13a5f992d7f1af08869619ebacc786e1fd8f825b92c0052401d6e1221"
        )


class TestBaselineDialect:
    """``tree-aa-baseline``: the iterated safe-area baseline as a spec."""

    TREE_AA = ScenarioSpec(
        protocol="tree-aa", n=5, t=1, tree="path:9", adversary="burn", seed=4
    )

    def baseline(self, **fields):
        return replace(self.TREE_AA, protocol=BASELINE_PROTOCOL, **fields)

    def test_runs_the_baseline_parties_on_the_same_instance(self):
        from repro.baselines import IterativeTreeAAParty

        outcome = self.baseline().run()
        assert outcome.achieved_aa
        assert all(
            isinstance(outcome.execution.parties[pid], IterativeTreeAAParty)
            for pid in outcome.execution.honest
        )
        assert outcome.honest_inputs == self.TREE_AA.run().honest_inputs

    def test_needs_a_tree(self):
        with pytest.raises(SpecError, match="tree spec"):
            ScenarioSpec(protocol=BASELINE_PROTOCOL, n=4, t=1)

    def test_batch_backend_raises(self):
        from repro.engine import UnsupportedBackendError

        spec = self.baseline(backend="batch")
        with pytest.raises(UnsupportedBackendError, match=BASELINE_PROTOCOL):
            spec.run()
        with pytest.raises(UnsupportedBackendError):
            execute_spec_point(spec)

    def test_round_trip_and_recorded_row(self):
        from repro.observability import load_run_text

        spec = self.baseline(record=True)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        row = execute_spec_point(spec)
        assert row["ok"] is True
        run = load_run_text(row["trace_jsonl"])
        assert run.protocol == BASELINE_PROTOCOL
        assert run.rounds_executed == row["rounds"]

    def test_flywheel_stream_never_draws_it(self):
        from repro.analysis.strategies import spec_stream

        assert all(
            spec.protocol != BASELINE_PROTOCOL for spec in spec_stream(0, 500)
        )
