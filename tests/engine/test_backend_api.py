"""Backend selection, refusal behaviour, lazy views, sweep-cache identity.

The batch engine's contract has four edges worth pinning beyond the
differential properties:

* ``backend=`` is a closed enum — typos raise ``ValueError`` before any
  execution starts;
* the features the engine *does* replay — metrics collectors, fault
  plans, and the equivocating chaos/burn adversaries — match the
  reference byte for byte, while everything it cannot express
  (transcript recorders, custom ``estimate_fn``, adversary subclasses)
  raises the typed :class:`~repro.engine.UnsupportedBackendError`
  instead of silently running wrong;
* ``ExecutionResult.parties`` is a read-only mapping that builds a
  party's view on its first read (none for a run nobody inspects); views
  read ``bad``/``history`` from their class's outcome, yet behave like
  plain per-party attributes (own objects, assignable, picklable);
* a sweep row computed by one engine is never served from the result
  cache to the other (the regression this PR's cache-key fix guards).
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest

from repro.adversary.base import Adversary, NoAdversary
from repro.adversary.chaos import ChaosAdversary
from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.adversary.strategies import CrashAdversary, RandomNoiseAdversary, SilentAdversary
from repro.analysis.parallel import run_grid
from repro.analysis.spec import ScenarioSpec, spec_cache_key
from repro.core.api import run_path_aa, run_real_aa, run_tree_aa
from repro.core.errors import ValidityViolationError
from repro.engine import (
    BatchAdversarySpec,
    UnsupportedBackendError,
    resolve_batch_spec,
)
from repro.net.faults import FaultPlan
from repro.net.trace import TranscriptRecorder
from repro.observability import MetricsCollector
from repro.protocols.realaa import RealAAParty
from repro.trees import figure_tree
from repro.trees.labeled_tree import LabeledTree
from repro.trees.paths import diameter_path

from .conformance import realaa_diagnostics

np = pytest.importorskip("numpy")

INPUTS = [0.0, 1.0, 2.0, 3.0, 4.0]


def small_tree() -> LabeledTree:
    return LabeledTree.from_parent_map({"b": "a", "c": "a", "d": "b"})


def metric_rows(collector: MetricsCollector):
    """Collector rows as dicts, minus the nondeterministic wall clock."""
    rows = []
    for row in collector.rounds:
        as_dict = dict(row.__dict__)
        as_dict.pop("wall_seconds")
        rows.append(as_dict)
    return rows


class TestBackendSelection:
    @pytest.mark.parametrize("backend", ["Batch", "numpy", "", "ref"])
    def test_unknown_backend_is_a_value_error(self, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            run_real_aa(INPUTS, 1, epsilon=1.0, backend=backend)

    def test_unknown_backend_rejected_by_every_entry_point(self):
        tree = small_tree()
        with pytest.raises(ValueError, match="unknown backend"):
            run_tree_aa(tree, ["a"] * 4, 1, backend="turbo")
        with pytest.raises(ValueError, match="unknown backend"):
            run_path_aa(
                tree, diameter_path(tree), ["c", "c", "d", "d"], 1, backend="turbo"
            )

    def test_reference_is_the_default(self):
        reference = run_real_aa(INPUTS, 1, epsilon=1.0)
        explicit = run_real_aa(INPUTS, 1, epsilon=1.0, backend="reference")
        assert reference.execution.outputs == explicit.execution.outputs


class TestReplayedFeatures:
    """Features the batch backend used to refuse and now replays.

    Each test is a miniature differential check: the lifted feature must
    produce reference-identical observable state, not merely run.  The
    broad sweeps live in ``test_conformance.py``; these pin the specific
    configurations whose refusals this PR removed.
    """

    def test_equivocating_adversary_replays(self):
        results = {
            backend: run_real_aa(
                INPUTS,
                1,
                epsilon=1.0,
                adversary=BurnScheduleAdversary([1, 1], direction="alternate"),
                backend=backend,
            )
            for backend in ("reference", "batch")
        }
        assert (
            results["batch"].honest_outputs == results["reference"].honest_outputs
        )
        assert results["batch"].rounds == results["reference"].rounds

    def test_chaos_adversary_replays_with_log_parity(self):
        adversaries = {b: ChaosAdversary(seed=7) for b in ("reference", "batch")}
        results = {
            backend: run_real_aa(
                INPUTS,
                1,
                epsilon=1.0,
                adversary=adversaries[backend],
                backend=backend,
            )
            for backend in ("reference", "batch")
        }
        assert (
            results["batch"].honest_outputs == results["reference"].honest_outputs
        )
        # The caller's adversary object carries the behaviour log either way.
        assert adversaries["batch"].log == adversaries["reference"].log

    def test_metrics_collector_replays(self):
        collectors = {b: MetricsCollector() for b in ("reference", "batch")}
        for backend, collector in collectors.items():
            run_real_aa(
                INPUTS, 1, epsilon=1.0, observer=collector, backend=backend
            )
        assert metric_rows(collectors["batch"]) == metric_rows(
            collectors["reference"]
        )

    def test_fault_plan_replays(self):
        plans = {
            b: FaultPlan(
                drop=0.2,
                duplicate=0.15,
                corrupt=0.15,
                seed=5,
                allow_model_violations=True,
            )
            for b in ("reference", "batch")
        }
        results = {
            backend: run_real_aa(
                INPUTS, 1, epsilon=1.0, fault_plan=plans[backend], backend=backend
            )
            for backend in ("reference", "batch")
        }
        assert (
            results["batch"].honest_outputs == results["reference"].honest_outputs
        )
        ref_trace = results["reference"].execution.trace
        bat_trace = results["batch"].execution.trace
        assert bat_trace.faults_dropped == ref_trace.faults_dropped
        assert bat_trace.faults_duplicated == ref_trace.faults_duplicated
        assert bat_trace.faults_corrupted == ref_trace.faults_corrupted


SILENT_INPUTS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
SILENT_VERTICES = ["a", "b", "c", "d", "d", "c", "b"]


def silent_run(protocol: str):
    """A batch run of *protocol* (n = 7, t = 2) whose parties 5 and 6 are
    silent.  Parties 0-4 are honest and form one class; they detect both
    silent parties, so every honest RealAA-family view has a non-empty
    ``BAD`` set and history."""
    adversary = SilentAdversary({5, 6})
    if protocol == "real-aa":
        return run_real_aa(
            SILENT_INPUTS, 2, epsilon=0.5, adversary=adversary, backend="batch"
        )
    tree = small_tree()
    if protocol == "path-aa":
        return run_path_aa(
            tree,
            diameter_path(tree),
            SILENT_VERTICES,
            2,
            adversary=adversary,
            project=True,
            backend="batch",
        )
    return run_tree_aa(
        tree, SILENT_VERTICES, 2, adversary=adversary, backend="batch"
    )


#: Per protocol, the RealAA-family views a party of :func:`silent_run` has.
PHASES = {
    "real-aa": [lambda party: party],
    "path-aa": [lambda party: party],
    "tree-aa": [
        lambda party: party.paths_finder,
        lambda party: party.projection_phase,
    ],
}


class TestLazyViewDiagnostics:
    """Batch views build ``bad``/``history`` on first read, per party."""

    INPUTS = SILENT_INPUTS

    def parties(self):
        return silent_run("real-aa").execution.parties

    def test_repeated_reads_return_the_same_object(self):
        view = self.parties()[0]
        assert view.bad is view.bad
        assert view.history is view.history

    def test_class_members_do_not_share_containers(self):
        for protocol, phases in PHASES.items():
            parties = silent_run(protocol).execution.parties
            for phase in phases:
                first, second = phase(parties[0]), phase(parties[1])
                before = realaa_diagnostics(second)
                assert first.bad == second.bad == {5, 6}
                first.history[0].accepted[99] = 1.0
                assert 99 not in second.history[0].accepted
                first.bad.add(99)
                first.history.clear()
                assert realaa_diagnostics(second) == before
                assert 99 not in second.bad

    def test_parties_that_never_ran_read_empty(self):
        parties = self.parties()
        for pid in (5, 6):
            assert parties[pid].bad == set()
            assert parties[pid].history == []
            assert parties[pid].value == self.INPUTS[pid]

    def test_assignment_wins(self):
        parties = self.parties()
        unread, read = parties[0], parties[1]
        assert read.bad and read.history
        for view in (unread, read):
            view.bad = {42}
            view.history = []
            assert view.bad == {42}
            assert view.history == []

    @pytest.mark.parametrize(
        "clone",
        [lambda view: pickle.loads(pickle.dumps(view)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_keep_equal_diagnostics(self, clone):
        parties = self.parties()
        fresh = self.parties()
        expected = {pid: realaa_diagnostics(fresh[pid]) for pid in fresh}
        assert parties[1].bad  # read before copying; the rest stay unread
        for pid, view in parties.items():
            copied = clone(view)
            assert copied is not view
            assert realaa_diagnostics(copied) == expected[pid]


class TestPartiesMapping:
    """``ExecutionResult.parties`` of a batch run is a read-only mapping
    that builds each party's view on its first read."""

    @pytest.mark.parametrize("protocol", sorted(PHASES))
    def test_mapping_contract(self, protocol):
        parties = silent_run(protocol).execution.parties
        n = len(SILENT_INPUTS)
        assert len(parties) == n
        assert list(parties) == list(range(n))
        assert [pid for pid, _ in parties.items()] == list(range(n))
        assert all(parties[pid] is parties[pid] for pid in range(n))
        assert all(party is parties[pid] for pid, party in parties.items())
        for missing in (n, -1, "0"):
            assert missing not in parties
            with pytest.raises(KeyError):
                parties[missing]
        with pytest.raises(TypeError):
            parties[0] = parties[1]

    def test_dense_puppets_replace_their_views(self):
        from repro.engine.backend import BatchPartyView

        parties = run_real_aa(
            INPUTS,
            1,
            epsilon=1.0,
            adversary=ChaosAdversary(seed=7, corrupt={4}),
            backend="batch",
        ).execution.parties
        assert isinstance(parties[4], RealAAParty)
        assert isinstance(parties[0], BatchPartyView)

    def test_nothing_is_built_before_it_is_read(self, monkeypatch):
        from repro.engine.backend import BatchPartyView

        built = []
        build = BatchPartyView.__init__

        def counting(view, pid, site):
            built.append(pid)
            build(view, pid, site)

        monkeypatch.setattr(BatchPartyView, "__init__", counting)
        n = 50_000
        outcome = run_tree_aa(
            figure_tree(),
            ["v3" if pid % 2 else "v8" for pid in range(n)],
            (n - 1) // 3,
            backend="batch",
        )
        assert outcome.agreement and outcome.valid
        assert built == []
        history = outcome.execution.parties[7].projection_phase.history
        assert history and built == [7, 7]

    @pytest.mark.parametrize("corrupt", [set(), {1, 5}])
    def test_real_aa_is_judged_without_views(self, monkeypatch, corrupt):
        from repro.engine.backend import BatchPartyView

        built = []
        build = BatchPartyView.__init__

        def counting(view, pid, site):
            built.append(pid)
            build(view, pid, site)

        monkeypatch.setattr(BatchPartyView, "__init__", counting)
        inputs = [float(pid % 5) for pid in range(20)]
        outcome = run_real_aa(
            inputs,
            6,
            epsilon=0.5,
            adversary=SilentAdversary(corrupt) if corrupt else None,
            backend="batch",
        )
        assert built == []
        reference = run_real_aa(
            inputs,
            6,
            epsilon=0.5,
            adversary=SilentAdversary(corrupt) if corrupt else None,
        )
        assert outcome.measured_rounds == reference.measured_rounds
        assert outcome.measured_rounds is not None

    def test_distinct_values_reads_held_parties(self):
        parties = silent_run("real-aa").execution.parties
        honest = [0, 1, 2, 3, 4]
        per_party = {parties[pid].local_termination_iteration for pid in honest}
        assert set(parties.distinct_values("local_termination_iteration", honest)) == per_party
        parties[honest[0]].local_termination_iteration = None
        assert None in parties.distinct_values("local_termination_iteration", honest)
        assert parties.distinct_values("local_termination_iteration", []) == []


class TestHonestFirst:
    """The phase-end order of events, evaluated once per distinct key.

    No seed of the conformance suite's generator reaches a boundary
    failure (the batch-supported adversaries only send values from the
    honest hull), so the order is pinned on the helper itself: pids
    0-5 with keys 3, 1, 2, 1, 0, 2; parties 1-3 are honest.
    """

    def run(self, failing, error=ValidityViolationError):
        from repro.engine.backend import _honest_first

        evaluated = []

        def evaluate(key):
            evaluated.append(key)
            if key in failing:
                raise error(f"key {key}")

        dead = _honest_first(
            np.arange(6),
            np.array([3, 1, 2, 1, 0, 2]),
            np.array([False, True, True, True, False, False]),
            evaluate,
        )
        return evaluated, dead.tolist()

    def test_the_lowest_honest_failure_raises(self):
        with pytest.raises(ValidityViolationError, match="key 2"):
            self.run({2, 3})

    def test_failing_puppets_die_once_per_key(self):
        assert self.run({0, 3}) == ([1, 2, 3, 0], [0, 4])

    def test_other_puppet_errors_propagate(self):
        with pytest.raises(KeyError, match="key 3"):
            self.run({3}, error=KeyError)


class TestUnsupportedFeatures:
    def test_transcript_recorder_refuses(self):
        with pytest.raises(UnsupportedBackendError, match="TranscriptRecorder"):
            run_real_aa(
                INPUTS,
                1,
                epsilon=1.0,
                observer=TranscriptRecorder(),
                backend="batch",
            )

    def test_collector_subclass_refuses(self):
        # A subclass may override row bookkeeping; only the exact class
        # is known to be reproducible from batch reductions.
        class Widened(MetricsCollector):
            pass

        with pytest.raises(UnsupportedBackendError, match="Widened"):
            run_real_aa(
                INPUTS, 1, epsilon=1.0, observer=Widened(), backend="batch"
            )

    def test_custom_estimate_fn_refuses(self):
        collector = MetricsCollector(estimate_fn=lambda party: None)
        with pytest.raises(UnsupportedBackendError, match="estimate_fn"):
            run_real_aa(
                INPUTS, 1, epsilon=1.0, observer=collector, backend="batch"
            )

    def test_tree_collector_refuses_on_real_aa(self):
        # Vertex-estimate watching is replayable for the tree protocols
        # but not for RealAA, whose parties expose float estimates.
        collector = MetricsCollector(tree=small_tree())
        with pytest.raises(UnsupportedBackendError, match="tree"):
            run_real_aa(
                INPUTS, 1, epsilon=1.0, observer=collector, backend="batch"
            )

    @pytest.mark.parametrize("refused", ["observer", "adversary"])
    @pytest.mark.parametrize("entry", ["real", "path", "tree"])
    def test_refusal_comes_before_input_validation(self, entry, refused):
        # Party 0's input is invalid (nan, or not a vertex): the reference
        # raises that guard's error, while the batch engine refuses the
        # feature first, before it builds any party.
        tree = small_tree()
        run = {
            "real": lambda **kw: run_real_aa(
                [float("nan")] + INPUTS[1:4], 1, epsilon=1.0, **kw
            ),
            "path": lambda **kw: run_path_aa(
                tree, diameter_path(tree), ["zz", "c", "d", "d"], 1, **kw
            ),
            "tree": lambda **kw: run_tree_aa(tree, ["zz", "a", "b", "c"], 1, **kw),
        }[entry]

        def extra():
            if refused == "observer":
                return {"observer": TranscriptRecorder()}
            return {"adversary": RandomNoiseAdversary(corrupt={3})}

        with pytest.raises((ValueError, KeyError)):
            run(backend="reference", **extra())
        with pytest.raises(UnsupportedBackendError):
            run(backend="batch", **extra())

    def test_chaos_subclass_refuses(self):
        class Nastier(ChaosAdversary):
            pass

        with pytest.raises(UnsupportedBackendError, match="Nastier"):
            resolve_batch_spec(Nastier(seed=1))

    def test_burn_subclass_refuses(self):
        class Hotter(BurnScheduleAdversary):
            pass

        with pytest.raises(UnsupportedBackendError, match="Hotter"):
            resolve_batch_spec(Hotter([1]))

    def test_unknown_adversary_has_no_spec(self):
        class Custom(Adversary):
            def byzantine_messages(self, view):
                return {}

        with pytest.raises(UnsupportedBackendError, match="Custom"):
            resolve_batch_spec(Custom())

    def test_subclass_does_not_inherit_the_parent_spec(self):
        # A subclass may override behaviour arbitrarily; only exact types
        # the engine knows get replayed.
        class Widened(NoAdversary):
            pass

        with pytest.raises(UnsupportedBackendError, match="Widened"):
            resolve_batch_spec(Widened(None))

    def test_supported_adversary_resolves(self):
        # NoAdversary never actually corrupts anyone (its
        # initial_corruptions is empty even when a set was requested), and
        # its spec says exactly that.
        spec = resolve_batch_spec(NoAdversary({1, 2}))
        assert isinstance(spec, BatchAdversarySpec)
        assert spec.kind == "none"
        assert spec.corrupted == frozenset()

    def test_fresh_snapshots_the_constructor_arguments(self):
        adversary = CrashAdversary(2, partial_to=1, corrupt={3})
        spec = resolve_batch_spec(adversary)
        adversary.crash_round = 9
        replay = spec.fresh()
        assert type(replay) is CrashAdversary and replay is not adversary
        assert (replay.crash_round, replay.partial_to) == (2, 1)
        assert replay._requested == {3}

    def test_fresh_replays_the_draw_stream_from_the_seed(self):
        adversary = ChaosAdversary(seed=5, weights={"junk": 3.0}, corrupt=[1])
        spec = resolve_batch_spec(adversary)
        adversary._rng.random()  # a run consumed the caller's stream
        assert spec.fresh()._rng.random() == ChaosAdversary(seed=5)._rng.random()
        assert spec.fresh()._weights == adversary._weights

    def test_fault_free_spec_replays_no_adversary(self):
        assert resolve_batch_spec(NoAdversary()).fresh() is None


class TestSweepCacheBackendIdentity:
    """A point's backend travels in its params, so the two engines' rows
    live under different cache keys."""

    GRID = [{"n": 5, "t": 1, "spread": 8.0, "epsilon": 1.0, "seed": 3}]
    BATCH_GRID = [{**GRID[0], "backend": "batch"}]

    def test_key_records_the_backend(self):
        spec = ScenarioSpec(protocol="real-aa", n=5, t=1, known_range=8.0, seed=3)
        reference = spec_cache_key(spec)
        batch = spec_cache_key(replace(spec, backend="batch"))
        assert reference["params"]["backend"] == "reference"
        assert batch["params"]["backend"] == "batch"
        assert reference != batch

    def test_cached_reference_row_not_served_to_batch(self, tmp_path):
        cache_dir = str(tmp_path)
        first = run_grid(
            "cache-identity", "realaa-point", self.GRID, cache_dir=cache_dir
        )
        assert (first.cache_hits, first.cache_misses) == (0, 1)

        # Same grid on the batch backend: the reference row must NOT hit.
        batch = run_grid(
            "cache-identity", "realaa-point", self.BATCH_GRID, cache_dir=cache_dir
        )
        assert (batch.cache_hits, batch.cache_misses) == (0, 1)
        assert batch.rows == first.rows  # the engines agree; the cache rows differ

        # Re-running each backend now hits its own row.
        for grid in (self.GRID, self.BATCH_GRID):
            assert run_grid(
                "cache-identity", "realaa-point", grid, cache_dir=cache_dir
            ).cache_hits == 1
