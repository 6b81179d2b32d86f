"""`BatchSynchronousEngine` — the batched drop-in for the core API.

Produces the same :class:`~repro.core.api.RealAAOutcome` /
:class:`~repro.core.api.TreeAAOutcome` objects as the reference
``backend="reference"`` path, computed by the class-collapsed array kernel
(:mod:`repro.engine.kernel`) instead of per-party message passing.  Every
observable is replicated: outputs, AA verdicts, the full
:class:`~repro.net.network.ExecutionTrace`, validation errors (message and
order), per-iteration party diagnostics, and the
:class:`~repro.core.errors.ValidityViolationError` raise points.

The executions are fully deterministic (no RNG is consumed), matching the
reference engine's determinism and therefore the seeding discipline of
:mod:`repro.analysis.parallel`: a sweep point's seed feeds the input
generator only, never the engine, so cache keys stay comparable across
backends (they differ exactly in the recorded ``backend`` field).

Parties in the returned execution are read-only *views*
(:class:`BatchRealAAView` and friends): they expose the diagnostic
attributes the reference party classes expose (``value``, ``bad``,
``history``, ``local_termination_iteration``, ``output``, …) but cannot be
driven — their round methods raise
:class:`~repro.engine.errors.UnsupportedBackendError`.  A phase pays once
per party class, not once per party: each view keeps a reference to its
class's outcome, and ``bad`` and ``history`` are built on first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.api import (
    RealAAOutcome,
    TreeAAOutcome,
    _evaluate_tree_outputs,
    real_aa_outcome,
)
from ..core.closest_int import closest_int
from ..core.errors import ValidityViolationError, check_index_in_range
from ..core.path_aa import PathAAParty
from ..core.projection_aa import KnownPathAAParty
from ..core.tree_aa import TreeAAParty, projection_phase_iterations
from ..net.messages import Inbox, Outbox, PartyId
from ..net.network import ExecutionResult, TraceLevel
from ..net.protocol import ProtocolParty, ProtocolStateError
from ..observability.collector import MetricsCollector
from ..protocols.realaa import IterationRecord, RealAAParty, is_real
from ..protocols.rounds import (
    ROUNDS_PER_ITERATION,
    check_resilience,
    realaa_iterations,
)
from ..trees.euler import EulerList, list_construction
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath, diameter
from ..trees.projection import project_onto_path
from .dense import DenseExecution
from .errors import UnsupportedBackendError
from .kernel import BatchExecution, ClassPhaseOutcome, RealAAPhaseResult
from .metrics import BatchMetrics
from .spec import CLASS_KINDS, BatchAdversarySpec, resolve_batch_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable, Union

    from ..adversary.base import Adversary
    from ..net.faults import FaultPlan
    from ..net.trace import Observer

    AnyExecution = Union[BatchExecution, DenseExecution]


class BatchPartyView(ProtocolParty):
    """Read-only party stand-in returned inside batch execution results.

    Carries the reference party's diagnostic surface without the state
    machine; driving it is a contract violation and raises
    :class:`~repro.engine.errors.UnsupportedBackendError`.
    """

    def __init__(self, pid: PartyId, n: int, t: int, duration: int) -> None:
        super().__init__(pid, n, t)
        self._duration = duration

    @property
    def duration(self) -> int:
        return self._duration

    def messages_for_round(self, round_index: int) -> Outbox:
        raise UnsupportedBackendError(
            "batch party views cannot be driven; re-run with "
            "backend='reference' to obtain live state machines"
        )

    def receive_round(self, round_index: int, inbox: Inbox) -> None:
        raise UnsupportedBackendError(
            "batch party views cannot be driven; re-run with "
            "backend='reference' to obtain live state machines"
        )


class BatchRealAAView(BatchPartyView):
    """The diagnostic surface of :class:`~repro.protocols.realaa.RealAAParty`.

    ``bad`` and ``history`` are class-uniform apart from each record's
    ``new_value``, so a phase binds every member view to its class's
    :class:`~repro.engine.kernel.ClassPhaseOutcome` (see
    :func:`_populate_realaa_views`) and each view builds its own ``set``
    and ``list`` on first read, caching them.  A view whose party never
    ran reads ``set()`` and ``[]``; assigning either attribute replaces
    the cached value.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        duration: int,
        input_value: float,
        epsilon: float,
        iterations: int,
    ) -> None:
        super().__init__(pid, n, t, duration)
        self.input_value = input_value
        self.value = input_value
        self.epsilon = epsilon
        self.iterations = iterations
        self.local_termination_iteration: Optional[int] = None
        #: ``(class outcome, phase)`` of the phase that ran this party.
        self._ran: Optional[Tuple[ClassPhaseOutcome, RealAAPhaseResult]] = None
        self._bad: Optional[Set[PartyId]] = None
        self._history: Optional[List[IterationRecord]] = None

    @property
    def bad(self) -> Set[PartyId]:
        """The final ``BAD`` set (built from the class outcome once)."""
        if self._bad is None:
            ran = self._ran
            self._bad = (
                set() if ran is None else set(np.flatnonzero(ran[0].bad).tolist())
            )
        return self._bad

    @bad.setter
    def bad(self, bad: Set[PartyId]) -> None:
        self._bad = bad

    @property
    def history(self) -> List[IterationRecord]:
        """Per-iteration records; ``new_value`` is this party's snapshot."""
        if self._history is None:
            ran = self._ran
            if ran is None:
                self._history = []
            else:
                outcome, phase = ran
                pid = self.pid
                self._history = [
                    IterationRecord(
                        iteration=record.iteration,
                        accepted=record.accepted,
                        newly_detected=record.newly_detected,
                        trimmed_range=record.trimmed_range,
                        new_value=phase.snapshots[record.iteration][pid].item(),
                    )
                    for record in outcome.records
                ]
        return self._history

    @history.setter
    def history(self, history: List[IterationRecord]) -> None:
        self._history = history


class BatchPathsFinderView(BatchRealAAView):
    """The diagnostic surface of :class:`~repro.core.paths_finder.PathsFinderParty`."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        duration: int,
        input_value: float,
        iterations: int,
        tree: LabeledTree,
        euler: EulerList,
        input_vertex: Label,
    ) -> None:
        super().__init__(pid, n, t, duration, input_value, 1.0, iterations)
        self.tree = tree
        self.euler = euler
        self.input_vertex = input_vertex
        self.selected_vertex: Optional[Label] = None


class BatchProjectionView(BatchRealAAView):
    """The diagnostic surface of :class:`~repro.core.tree_aa.ProjectionPhaseParty`."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        duration: int,
        input_value: float,
        iterations: int,
        path: TreePath,
        projection: Label,
    ) -> None:
        super().__init__(pid, n, t, duration, input_value, 1.0, iterations)
        self.path = path
        self.projection = projection


class BatchPathAAView(BatchRealAAView):
    """The diagnostic surface of the Section-4/5 path party classes."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        duration: int,
        input_value: float,
        iterations: int,
        path: TreePath,
        input_vertex: Label,
        tree: Optional[LabeledTree] = None,
        projection: Optional[Label] = None,
    ) -> None:
        super().__init__(pid, n, t, duration, input_value, 1.0, iterations)
        self.path = path
        self.input_vertex = input_vertex
        if tree is not None:
            self.tree = tree
        if projection is not None:
            self.projection = projection


class BatchTreeAAView(BatchPartyView):
    """The diagnostic surface of :class:`~repro.core.tree_aa.TreeAAParty`."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        duration: int,
        tree: LabeledTree,
        input_vertex: Label,
        root: Label,
    ) -> None:
        super().__init__(pid, n, t, duration)
        self.tree = tree
        self.input_vertex = input_vertex
        self.root = root
        self.paths_finder: Optional[BatchPathsFinderView] = None
        self.projection_phase: Optional[BatchProjectionView] = None

    @property
    def path(self) -> Optional[TreePath]:
        """The PathsFinder output path (``None`` until phase 1 ended)."""
        if self.paths_finder is None:
            return None
        output = self.paths_finder.output
        return output if isinstance(output, TreePath) else None


def _resolve_collector(
    observer: Optional["Observer"],
) -> Optional[MetricsCollector]:
    """*observer* as a replayable collector (``None`` when absent).

    The batch engines reproduce :class:`~repro.observability.collector
    .MetricsCollector` rows from their round reductions
    (:class:`~repro.engine.metrics.BatchMetrics`); any other observer —
    transcript recorders, invariant monitors, multiplexers, collector
    *subclasses* (which may override ``on_round``) — needs the
    materialised per-message traffic only the reference engine produces.
    """
    if observer is None:
        return None
    if type(observer) is not MetricsCollector:
        raise UnsupportedBackendError(
            f"observer {type(observer).__name__} requires per-message "
            "execution (only a plain MetricsCollector can be replayed "
            "from batch reductions); use backend='reference'"
        )
    if observer._estimate_fn is not None:
        raise UnsupportedBackendError(
            "a custom estimate_fn reads live party objects every round; "
            "use backend='reference'"
        )
    return observer


def _needs_dense(
    spec: Optional[BatchAdversarySpec], fault_plan: Optional["FaultPlan"]
) -> bool:
    """Whether this configuration needs the dense per-party engine.

    Fault plans and equivocating adversary kinds break the class-collapse
    invariant (:mod:`repro.engine.dense`); everything else stays on the
    fast class kernel.
    """
    if fault_plan is not None:
        return True
    return spec is not None and spec.kind not in CLASS_KINDS


def _make_execution(
    n: int,
    t: int,
    party_t: int,
    spec: Optional[BatchAdversarySpec],
    trace_level: TraceLevel,
    fault_plan: Optional["FaultPlan"],
    party_factory: "Callable[[int], Any]",
) -> "AnyExecution":
    """The right batch engine for this configuration (see _needs_dense)."""
    if _needs_dense(spec, fault_plan):
        return DenseExecution(
            n,
            t,
            party_t,
            spec,
            trace_level,
            fault_plan=fault_plan,
            party_factory=party_factory,
        )
    return BatchExecution(n, t, party_t, spec, trace_level)


def _attach_metrics(
    execution: "AnyExecution",
    collector: Optional[MetricsCollector],
    total_rounds: int,
    track_value_spread: bool,
    honest_estimates: Optional[List[Any]] = None,
) -> None:
    """Wire a :class:`BatchMetrics` sink onto *execution* (if observed)."""
    if collector is None:
        return
    execution.metrics = BatchMetrics(
        collector,
        n=execution.n,
        corrupted=sorted(execution.corrupted),
        total_rounds=total_rounds,
        track_value_spread=track_value_spread,
        honest_estimates=honest_estimates,
    )


def _finish_metrics(
    execution: "AnyExecution",
    honest_outputs: Optional[List[Any]] = None,
) -> None:
    """Patch the final row's hull and flush pending rows (run succeeded)."""
    if execution.metrics is not None:
        execution.metrics.finalize(honest_outputs)
        execution.metrics.flush()


def _finish_dense(
    execution: "AnyExecution",
    adversary: Optional["Adversary"],
    outputs: Dict[PartyId, Any],
    parties: Dict[int, Any],
) -> None:
    """Dense-mode epilogue: puppet results + success-path bookkeeping.

    The dense engine drove *real* puppet objects; surface them (and their
    outputs) in the result exactly like the reference engine does, copy
    the fault counters onto the trace and mirror the replay clone's
    diagnostics onto the caller's adversary instance.
    """
    if not isinstance(execution, DenseExecution):
        return
    for pid in sorted(execution.corrupted):
        party = execution.party_objects.get(pid)
        if party is not None:
            outputs[pid] = party.output
            parties[pid] = party
    execution.finalize_trace()
    execution.copy_diagnostics(adversary)


def _realaa_shared_checks(
    n: int,
    t: int,
    first_input: float,
    epsilon: float,
    known_range: Optional[float],
    iterations: Optional[int],
) -> int:
    """Party-0's constructor validation, in reference order; resolved count.

    Mirrors :class:`~repro.protocols.realaa.RealAAParty` construction for
    pid 0 exactly (guard order and messages), so invalid parameters raise
    the identical exception on either backend.
    """
    if t < 0 or n < 1:
        raise ValueError("need n >= 1 and t >= 0")
    check_resilience(n, t)
    if not is_real(first_input):
        raise ValueError(f"input must be a finite real, got {first_input!r}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if (known_range is None) == (iterations is None):
        raise ValueError("give exactly one of known_range / iterations")
    if iterations is None:
        if known_range is None:  # unreachable: the xor check above
            raise ProtocolStateError("known_range and iterations both None")
        iterations = realaa_iterations(known_range, epsilon, n, t)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return iterations


def _populate_realaa_views(
    views: Dict[int, BatchRealAAView], phase: RealAAPhaseResult
) -> List[float]:
    """Bind one phase's per-class results to the per-party views.

    Each view gets its final value, its termination iteration and a
    reference to its class's outcome; ``bad`` and ``history`` are built
    from that on first read (:class:`BatchRealAAView`).  Returns the
    phase's final values as a list indexed by pid.
    """
    values = phase.values.tolist()
    for index, outcome in phase.outcomes.items():
        ran = (outcome, phase)
        termination = outcome.local_termination_iteration
        for pid in phase.classes[index].ids:
            view = views[pid]
            view.value = values[pid]
            view.local_termination_iteration = termination
            view._ran = ran
    return values


def _active_pids(phase: RealAAPhaseResult) -> List[int]:
    """All party ids whose state machines ran in *phase*, ascending."""
    pids: List[int] = []
    for index in phase.outcomes:
        pids.extend(phase.classes[index].ids)
    return sorted(pids)


class BatchSynchronousEngine:
    """Batched executor for RealAA / PathAA / TreeAA.

    Stateless facade: each ``run_*`` method validates inputs exactly like
    the reference party constructors, replays the supported adversary via
    its :class:`~repro.engine.spec.BatchAdversarySpec`, runs the kernel,
    and assembles the same outcome dataclass the reference API returns.
    """

    # -- RealAA ---------------------------------------------------------

    def run_real_aa(
        self,
        inputs: Sequence[float],
        t: int,
        epsilon: float,
        known_range: Optional[float] = None,
        iterations: Optional[int] = None,
        adversary: Optional["Adversary"] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        observer: Optional["Observer"] = None,
        fault_plan: Optional["FaultPlan"] = None,
        t_assumed: Optional[int] = None,
    ) -> RealAAOutcome:
        """Batched :func:`repro.core.api.run_real_aa` (same signature)."""
        collector = _resolve_collector(observer)
        if collector is not None and collector.tree is not None:
            raise UnsupportedBackendError(
                "MetricsCollector with a tree watches vertex estimates, "
                "which RealAA parties do not expose the same way under "
                "batch execution; use backend='reference'"
            )
        spec = resolve_batch_spec(adversary)
        n = len(inputs)
        if known_range is None and iterations is None:
            known_range = max(inputs) - min(inputs) if n else 0.0
        party_t = t if t_assumed is None else t_assumed
        its: Optional[int] = None
        if n:
            its = _realaa_shared_checks(
                n, party_t, inputs[0], epsilon, known_range, iterations
            )
            for pid in range(1, n):
                if not is_real(inputs[pid]):
                    raise ValueError(
                        f"input must be a finite real, got {inputs[pid]!r}"
                    )
        execution = _make_execution(
            n,
            t,
            party_t,
            spec,
            trace_level,
            fault_plan,
            lambda pid: RealAAParty(
                pid,
                n,
                party_t,
                inputs[pid],
                epsilon=epsilon,
                known_range=known_range,
                iterations=iterations,
            ),
        )
        duration = 0 if its is None else ROUNDS_PER_ITERATION * its
        _attach_metrics(execution, collector, duration, True)
        views: Dict[int, BatchRealAAView] = {
            pid: BatchRealAAView(
                pid,
                n,
                party_t,
                duration,
                float(inputs[pid]),
                float(epsilon),
                its if its is not None else 0,
            )
            for pid in range(n)
        }
        outputs: Dict[PartyId, Any] = {pid: None for pid in range(n)}
        if its is not None and execution.has_honest:
            phase = execution.run_realaa_phase(
                np.array([float(v) for v in inputs], dtype=np.float64),
                float(epsilon),
                its,
            )
            final = _populate_realaa_views(views, phase)
            for pid in _active_pids(phase):
                outputs[pid] = final[pid]
                views[pid].output = final[pid]
        _finish_metrics(execution)
        parties: Dict[int, Any] = dict(views)
        _finish_dense(execution, adversary, outputs, parties)
        result = ExecutionResult(
            outputs=outputs,
            honest=execution.honest_set,
            corrupted=set(execution.corrupted),
            trace=execution.trace,
            parties=parties,
        )
        return real_aa_outcome(
            result,
            inputs,
            epsilon,
            result.trace.rounds_executed,
            [
                views[pid].local_termination_iteration
                for pid in sorted(execution.honest_set)
            ],
        )

    # -- PathAA / KnownPathAA -------------------------------------------

    def run_path_aa(
        self,
        tree: LabeledTree,
        path: TreePath,
        inputs: Sequence[Label],
        t: int,
        adversary: Optional["Adversary"] = None,
        project: bool = False,
        observer: Optional["Observer"] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        fault_plan: Optional["FaultPlan"] = None,
        t_assumed: Optional[int] = None,
    ) -> TreeAAOutcome:
        """Batched :func:`repro.core.api.run_path_aa` (same signature)."""
        collector = _resolve_collector(observer)
        spec = resolve_batch_spec(adversary)
        n = len(inputs)
        party_t = t if t_assumed is None else t_assumed
        canonical = path.canonical()
        positions: List[float] = []
        projections: Dict[int, Label] = {}
        its: Optional[int] = None
        for pid in range(n):
            if project:
                tree.require_vertex(inputs[pid])
                projection = project_onto_path(tree, inputs[pid], canonical)
                position = canonical.position_of(projection)
                projections[pid] = projection
            else:
                position = canonical.position_of(inputs[pid])
            if pid == 0:
                its = _realaa_shared_checks(
                    n, party_t, float(position), 1.0, float(canonical.length), None
                )
            positions.append(float(position))
        if project:
            factory = lambda pid: KnownPathAAParty(  # noqa: E731
                pid, n, party_t, tree, canonical, inputs[pid]
            )
        else:
            factory = lambda pid: PathAAParty(  # noqa: E731
                pid, n, party_t, canonical, inputs[pid]
            )
        execution = _make_execution(
            n, t, party_t, spec, trace_level, fault_plan, factory
        )
        duration = 0 if its is None else ROUNDS_PER_ITERATION * its
        honest_sorted = sorted(execution.honest_set)
        _attach_metrics(
            execution,
            collector,
            duration,
            True,
            honest_estimates=[inputs[pid] for pid in honest_sorted],
        )
        views: Dict[int, BatchRealAAView] = {
            pid: BatchPathAAView(
                pid,
                n,
                party_t,
                duration,
                positions[pid],
                its if its is not None else 0,
                canonical,
                inputs[pid],
                tree=tree if project else None,
                projection=projections.get(pid),
            )
            for pid in range(n)
        }
        outputs: Dict[PartyId, Any] = {pid: None for pid in range(n)}
        if its is not None and execution.has_honest:
            phase = execution.run_realaa_phase(
                np.array(positions, dtype=np.float64), 1.0, its
            )
            final = _populate_realaa_views(views, phase)
            active = _active_pids(phase)
            honest = execution.honest_set
            for pid in [p for p in active if p in honest] + [
                p for p in active if p not in honest
            ]:
                value = final[pid]
                index = closest_int(value)
                if pid in honest:
                    check_index_in_range(index, len(canonical), "the path", value)
                elif not 0 <= index < len(canonical):
                    continue  # the puppet died of the validity guard
                vertex = canonical[index]
                outputs[pid] = vertex
                views[pid].output = vertex
        _finish_metrics(
            execution, [outputs[pid] for pid in honest_sorted]
        )
        parties: Dict[int, Any] = dict(views)
        _finish_dense(execution, adversary, outputs, parties)
        result = ExecutionResult(
            outputs=outputs,
            honest=execution.honest_set,
            corrupted=set(execution.corrupted),
            trace=execution.trace,
            parties=parties,
        )
        honest_inputs = {
            pid: inputs[pid] for pid in sorted(execution.honest_set)
        }
        honest_outputs = result.honest_outputs
        verdicts = _evaluate_tree_outputs(tree, honest_inputs, honest_outputs)
        return TreeAAOutcome(
            execution=result,
            tree=tree,
            honest_inputs=honest_inputs,
            honest_outputs=honest_outputs,
            rounds=result.trace.rounds_executed,
            **verdicts,
        )

    # -- TreeAA ---------------------------------------------------------

    def run_tree_aa(
        self,
        tree: LabeledTree,
        inputs: Sequence[Label],
        t: int,
        adversary: Optional["Adversary"] = None,
        root: Optional[Label] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        observer: Optional["Observer"] = None,
        fault_plan: Optional["FaultPlan"] = None,
        t_assumed: Optional[int] = None,
    ) -> TreeAAOutcome:
        """Batched :func:`repro.core.api.run_tree_aa` (same signature)."""
        collector = _resolve_collector(observer)
        spec = resolve_batch_spec(adversary)
        n = len(inputs)
        party_t = t if t_assumed is None else t_assumed
        outputs: Dict[PartyId, Any] = {pid: None for pid in range(n)}
        views: Dict[int, ProtocolParty] = {}
        duration = 0
        if n:
            # Party 0's constructor order: shared guards, own vertex, then
            # the public phase parameters (which may reject a bad root).
            if party_t < 0 or n < 1:
                raise ValueError("need n >= 1 and t >= 0")
            check_resilience(n, party_t)
            tree.require_vertex(inputs[0])
            root_resolved = tree.root_label if root is None else root
            trivial = diameter(tree) <= 1
            if not trivial:
                euler_default = list_construction(tree)
                phase1_iterations = realaa_iterations(
                    float(len(euler_default) - 1), 1.0, n, party_t
                )
                phase2_iterations = projection_phase_iterations(
                    tree, n, party_t, root_resolved
                )
                euler = list_construction(tree, root_resolved)
                duration = ROUNDS_PER_ITERATION * (
                    phase1_iterations + phase2_iterations
                )
            for pid in range(1, n):
                tree.require_vertex(inputs[pid])
        execution = _make_execution(
            n,
            t,
            party_t,
            spec,
            trace_level,
            fault_plan,
            lambda pid: TreeAAParty(
                pid, n, party_t, tree, inputs[pid], root=root
            ),
        )
        honest_sorted = sorted(execution.honest_set)
        _attach_metrics(
            execution,
            collector,
            duration,
            False,
            honest_estimates=[inputs[pid] for pid in honest_sorted],
        )
        if n and trivial:
            # Trivial input space: 0 rounds, every party outputs its input
            # (set at construction, so even silent puppets carry it).
            for pid in range(n):
                view = BatchTreeAAView(
                    pid, n, party_t, 0, tree, inputs[pid], root_resolved
                )
                view.output = inputs[pid]
                views[pid] = view
                outputs[pid] = inputs[pid]
        elif n:
            phase1_rounds = ROUNDS_PER_ITERATION * phase1_iterations
            values1 = [
                float(euler.first_occurrence(inputs[pid])) for pid in range(n)
            ]
            finder_views: Dict[int, BatchRealAAView] = {}
            tree_views: Dict[int, BatchTreeAAView] = {}
            for pid in range(n):
                tree_view = BatchTreeAAView(
                    pid, n, party_t, duration, tree, inputs[pid], root_resolved
                )
                finder = BatchPathsFinderView(
                    pid,
                    n,
                    party_t,
                    phase1_rounds,
                    values1[pid],
                    phase1_iterations,
                    tree,
                    euler,
                    inputs[pid],
                )
                tree_view.paths_finder = finder
                finder_views[pid] = finder
                tree_views[pid] = tree_view
                views[pid] = tree_view
            if execution.has_honest:
                self._run_tree_phases(
                    execution,
                    tree,
                    inputs,
                    euler,
                    values1,
                    phase1_iterations,
                    phase2_iterations,
                    tree_views,
                    finder_views,
                    outputs,
                )
        _finish_metrics(
            execution, [outputs[pid] for pid in honest_sorted]
        )
        parties: Dict[int, Any] = dict(views)
        _finish_dense(execution, adversary, outputs, parties)
        result = ExecutionResult(
            outputs=outputs,
            honest=execution.honest_set,
            corrupted=set(execution.corrupted),
            trace=execution.trace,
            parties=parties,
        )
        honest_inputs = {
            pid: inputs[pid] for pid in sorted(execution.honest_set)
        }
        honest_outputs = result.honest_outputs
        verdicts = _evaluate_tree_outputs(tree, honest_inputs, honest_outputs)
        return TreeAAOutcome(
            execution=result,
            tree=tree,
            honest_inputs=honest_inputs,
            honest_outputs=honest_outputs,
            rounds=result.trace.rounds_executed,
            **verdicts,
        )

    def _run_tree_phases(
        self,
        execution: "AnyExecution",
        tree: LabeledTree,
        inputs: Sequence[Label],
        euler: EulerList,
        values1: List[float],
        phase1_iterations: int,
        phase2_iterations: int,
        tree_views: Dict[int, BatchTreeAAView],
        finder_views: Dict[int, BatchRealAAView],
        outputs: Dict[PartyId, Any],
    ) -> None:
        """Both TreeAA phases plus the boundary logic between them.

        The phase-1 → phase-2 boundary mirrors the reference execution
        order: corrupted puppets whose validity guard fires die silently
        (the adversary pops them); the first *honest* violation raises out
        of the run, in ascending pid order.
        """
        n = execution.n
        phase1 = execution.run_realaa_phase(
            np.array(values1, dtype=np.float64), 1.0, phase1_iterations
        )
        final1 = _populate_realaa_views(finder_views, phase1)
        honest = execution.honest_set
        active = _active_pids(phase1)
        paths: Dict[int, TreePath] = {}
        positions: Dict[int, float] = {}
        dead = np.zeros(n, dtype=bool)
        path_memo: Dict[int, Tuple[Label, TreePath]] = {}
        position_memo: Dict[Tuple[int, Label], Tuple[Label, int]] = {}

        def select_path(pid: int) -> None:
            value = final1[pid]
            index = closest_int(value)
            check_index_in_range(index, len(euler), "L", value)
            pair = path_memo.get(index)
            if pair is None:
                vertex = euler[index]
                pair = (vertex, TreePath(euler.rooted.root_path(vertex)))
                path_memo[index] = pair
            selected, found = pair
            finder = finder_views[pid]
            if isinstance(finder, BatchPathsFinderView):
                finder.selected_vertex = selected
            finder.output = found
            paths[pid] = found
            key = (index, inputs[pid])
            memoised = position_memo.get(key)
            if memoised is None:
                projection = project_onto_path(tree, inputs[pid], found)
                memoised = (projection, found.position_of(projection))
                position_memo[key] = memoised
            projection, position = memoised
            positions[pid] = float(position)
            view = tree_views[pid]
            view.projection_phase = BatchProjectionView(
                pid,
                n,
                view.t,
                ROUNDS_PER_ITERATION * phase2_iterations,
                float(position),
                phase2_iterations,
                found,
                projection,
            )

        for pid in [p for p in active if p in honest]:
            select_path(pid)  # raises for the lowest violating honest pid
        for pid in [p for p in active if p not in honest]:
            try:
                select_path(pid)
            except ValidityViolationError:
                dead[pid] = True
        execution.retire_dead(dead)
        if execution.metrics is not None:
            # Phase 1's final metrics row was held back: in the reference
            # a validity violation raises during that round's receives,
            # before the observer fires.  The boundary passed — flush it.
            execution.metrics.flush()

        values2 = np.zeros(n, dtype=np.float64)
        for pid, position in positions.items():
            values2[pid] = position
        phase2 = execution.run_realaa_phase(values2, 1.0, phase2_iterations)
        projection_views: Dict[int, BatchRealAAView] = {}
        for pid in _active_pids(phase2):
            phase_view = tree_views[pid].projection_phase
            if phase_view is not None:
                projection_views[pid] = phase_view
        final2 = _populate_realaa_views(projection_views, phase2)

        def finish(pid: int, raising: bool) -> None:
            value = final2[pid]
            index = closest_int(value)
            if index < 0:
                if raising:
                    raise ValidityViolationError(
                        f"closestInt({value}) = {index} below the path start "
                        "— RealAA validity was violated"
                    )
                return  # the puppet died of the validity guard
            own_path = paths[pid]
            vertex = own_path.end if index >= len(own_path) else own_path[index]
            phase_view = tree_views[pid].projection_phase
            if phase_view is not None:
                phase_view.output = vertex
            tree_views[pid].output = vertex
            outputs[pid] = vertex

        final_active = _active_pids(phase2)
        for pid in [p for p in final_active if p in honest]:
            finish(pid, raising=True)
        for pid in [p for p in final_active if p not in honest]:
            finish(pid, raising=False)
