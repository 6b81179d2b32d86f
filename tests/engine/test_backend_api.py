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
* party views build ``bad``/``history`` from their class's outcome on
  first read, yet behave like plain per-party attributes (own objects,
  assignable, picklable);
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
from repro.adversary.strategies import SilentAdversary
from repro.analysis.parallel import run_grid
from repro.analysis.spec import ScenarioSpec, spec_cache_key
from repro.core.api import run_path_aa, run_real_aa, run_tree_aa
from repro.engine import (
    BatchAdversarySpec,
    UnsupportedBackendError,
    resolve_batch_spec,
)
from repro.net.faults import FaultPlan
from repro.net.trace import TranscriptRecorder
from repro.observability import MetricsCollector
from repro.trees.labeled_tree import LabeledTree
from repro.trees.paths import diameter_path

from .conformance import realaa_diagnostics

pytest.importorskip("numpy")

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


class TestLazyViewDiagnostics:
    """Batch views build ``bad``/``history`` on first read, per party.

    Parties 0-4 are honest and form one class; the silent parties 5 and 6
    never run.  The honest parties detect both silent ones, so every
    honest view has a non-empty ``BAD`` set and history.
    """

    INPUTS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def parties(self):
        outcome = run_real_aa(
            self.INPUTS,
            2,
            epsilon=0.5,
            adversary=SilentAdversary({5, 6}),
            backend="batch",
        )
        return outcome.execution.parties

    def test_repeated_reads_return_the_same_object(self):
        view = self.parties()[0]
        assert view.bad is view.bad
        assert view.history is view.history

    def test_class_members_do_not_share_containers(self):
        parties = self.parties()
        first, second = parties[0], parties[1]
        before = realaa_diagnostics(second)
        assert first.bad == second.bad == {5, 6}
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
