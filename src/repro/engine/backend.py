"""`BatchSynchronousEngine` — the batched executor behind ``backend="batch"``.

Executes the party factory that :mod:`repro.core.api` builds for each
run, computed by the class-collapsed array kernel
(:mod:`repro.engine.kernel`) instead of per-party message passing, and
returns an :class:`~repro.net.network.ExecutionResult` that
:mod:`repro.core.api` judges exactly as it judges the reference's.
Every observable is replicated: outputs, the full
:class:`~repro.net.network.ExecutionTrace`, validation errors (message and
order), per-iteration party diagnostics, and the
:class:`~repro.core.errors.ValidityViolationError` raise points.

The executions are fully deterministic (no RNG is consumed), matching the
reference engine's determinism and therefore the seeding discipline of
:mod:`repro.analysis.parallel`: a sweep point's seed feeds the input
generator only, never the engine, so cache keys stay comparable across
backends (they differ exactly in the recorded ``backend`` field).

Validation is the reference's own: each ``run_*`` builds party 0 with the
factory (the one the dense engine drives), so guard order and messages
match because the same code raises them; the other parties' inputs are
then checked in pid order.

Parties in the returned execution are read-only views, all of one class
(:class:`BatchPartyView`): each exposes the attributes its reference
party class exposes (``value``, ``bad``, ``history``,
``local_termination_iteration``, ``output``, ``paths_finder``, …) but
cannot be driven — its round methods raise
:class:`~repro.engine.errors.UnsupportedBackendError`.  A phase pays once
per party class, not once per party: each view keeps a reference to its
class's outcome, and ``bad`` and ``history`` are built on first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, cast

import numpy as np

from ..core.errors import ValidityViolationError
from ..core.path_aa import vertex_at
from ..core.paths_finder import PathsFinderParty, euler_root_path
from ..core.projection_aa import KnownPathAAParty, project_position
from ..core.tree_aa import TreeAAParty, clamp_to_path
from ..net.messages import Inbox, Outbox, PartyId
from ..net.network import ExecutionResult, TraceLevel
from ..net.protocol import ProtocolParty
from ..observability.collector import MetricsCollector
from ..protocols.realaa import IterationRecord, RealAAParty, is_real
from ..protocols.rounds import ROUNDS_PER_ITERATION
from ..trees.euler import EulerList
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath
from .dense import DenseExecution
from .errors import UnsupportedBackendError
from .kernel import BatchExecution, ClassPhaseOutcome, RealAAPhaseResult
from .metrics import BatchMetrics
from .spec import CLASS_KINDS, BatchAdversarySpec, resolve_batch_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable, Union

    from ..adversary.base import Adversary
    from ..core.path_aa import PathAAParty
    from ..net.faults import FaultPlan
    from ..net.runner import PartyFactory
    from ..net.trace import Observer

    AnyExecution = Union[BatchExecution, DenseExecution]


class BatchPartyView(ProtocolParty):
    """Read-only stand-in for one reference party, inside batch results.

    One class describes the parties of every protocol.  A view holds its
    own attributes in slots, plus the attribute dict it shares with every
    view built at the same site (``n``, ``t``, ``epsilon``, the Euler
    list, …; see :func:`_view_attributes`).  A read the view cannot
    answer itself falls back to that dict; an assignment stays with the
    view.  Between them, the two hold exactly the attributes the
    reference party class exposes.  The state machine is not there, so
    the round methods raise
    :class:`~repro.engine.errors.UnsupportedBackendError`.

    Two kinds of attribute are derived on read instead of stored:

    * ``bad`` and ``history`` of a RealAA-family view (one whose shared
      attributes hold ``_ran``).  A phase binds each member view to its
      class's :class:`~repro.engine.kernel.ClassPhaseOutcome` (see
      :func:`_populate_realaa_views`), and the view builds its own ``set``
      and ``list`` on first read and keeps them.  A view whose party never
      ran reads ``set()`` and ``[]``; assigning either replaces it.
    * ``path`` of a TreeAA view (one whose shared attributes hold
      ``projection_phase``): the output of its PathsFinder view, ``None``
      until phase 1 ended.
    """

    # Slots rather than a per-view dict: views are built per party at
    # large n, with attribute sets that differ by site.
    __slots__ = (
        "pid",
        "_shared",
        "output",
        "input_value",
        "value",
        "local_termination_iteration",
        "_ran",
        "bad",
        "history",
        "input_vertex",
        "selected_vertex",
        "path",
        "projection",
        "paths_finder",
        "projection_phase",
    )

    _shared: Dict[str, Any]
    value: float
    local_termination_iteration: Optional[int]
    projection_phase: Optional["BatchPartyView"]
    _ran: Optional[Tuple[ClassPhaseOutcome, RealAAPhaseResult]]

    def __init__(
        self, pid: PartyId, shared: Dict[str, Any], own: Dict[str, Any]
    ) -> None:
        self.pid = pid
        self._shared = shared
        for name, value in own.items():
            setattr(self, name, value)

    @property
    def duration(self) -> int:
        return self._duration

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the view does not hold itself.
        if name == "_shared" or name.startswith("__"):
            # A bare instance being unpickled or copied has no _shared yet.
            raise AttributeError(name)
        shared = self._shared
        if name in shared:
            return shared[name]
        if name in ("bad", "history") and "_ran" in shared:
            ran = self._ran
            if ran is None:
                value: Any = set() if name == "bad" else []
            elif name == "bad":
                value = set(np.flatnonzero(ran[0].bad).tolist())
            else:
                outcome, phase = ran
                pid = self.pid
                value = [
                    IterationRecord(
                        iteration=record.iteration,
                        accepted=record.accepted,
                        newly_detected=record.newly_detected,
                        trimmed_range=record.trimmed_range,
                        new_value=phase.snapshots[record.iteration][pid].item(),
                    )
                    for record in outcome.records
                ]
            setattr(self, name, value)
            return value
        if name == "path" and "projection_phase" in shared:
            finder = self.paths_finder
            return None if finder is None else finder.output
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

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


def _view_attributes(
    n: int, t: int, duration: int, **attributes: Any
) -> Dict[str, Any]:
    """The attributes shared by every view built at one site.

    Stored once per site, not once per party: views read them through
    :meth:`BatchPartyView.__getattr__`.
    """
    return dict(n=n, t=t, output=None, _duration=duration, **attributes)


def _realaa_attributes(
    n: int, t: int, iterations: int, epsilon: float = 1.0, **attributes: Any
) -> Dict[str, Any]:
    """Shared attributes of a RealAA-family view before its phase ran.

    :class:`~repro.protocols.realaa.RealAAParty`'s own, plus the
    subclass's *attributes*.  Each view adds ``input_value`` and
    ``value``; :func:`_populate_realaa_views` binds ``_ran``.
    """
    return _view_attributes(
        n,
        t,
        ROUNDS_PER_ITERATION * iterations,
        epsilon=epsilon,
        iterations=iterations,
        local_termination_iteration=None,
        accusations=True,
        _ran=None,
        **attributes,
    )


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


def _finish_run(
    execution: "AnyExecution",
    adversary: Optional["Adversary"],
    outputs: Dict[PartyId, Any],
    views: Dict[int, BatchPartyView],
) -> ExecutionResult:
    """The end every run shares, once its phases succeeded.

    Patches the final metrics row's hull from the honest outputs and
    flushes the pending rows.  In dense mode the engine drove *real*
    puppet objects: they (and their outputs) replace the views in the
    result exactly as the reference engine reports them, the fault
    counters go onto the trace, and the replay clone's diagnostics are
    mirrored onto the caller's adversary instance.
    """
    if execution.metrics is not None:
        honest = sorted(execution.honest_set)
        execution.metrics.finalize([outputs[pid] for pid in honest])
        execution.metrics.flush()
    parties: Dict[int, Any] = dict(views)
    if isinstance(execution, DenseExecution):
        for pid in sorted(execution.corrupted):
            party = execution.party_objects.get(pid)
            if party is not None:
                outputs[pid] = party.output
                parties[pid] = party
        execution.finalize_trace()
        execution.copy_diagnostics(adversary)
    return ExecutionResult(
        outputs=outputs,
        honest=execution.honest_set,
        corrupted=set(execution.corrupted),
        trace=execution.trace,
        parties=parties,
    )


def _run_without_parties(
    t: int,
    spec: Optional[BatchAdversarySpec],
    trace_level: TraceLevel,
    fault_plan: Optional["FaultPlan"],
    factory: "PartyFactory",
    adversary: Optional["Adversary"],
) -> ExecutionResult:
    """A run with ``n = 0``: there is no party 0 to read the run's
    parameters from, and nothing executes (as in the reference, no
    metrics row is emitted)."""
    execution = _make_execution(0, t, t, spec, trace_level, fault_plan, factory)
    return _finish_run(execution, adversary, {}, {})


def _populate_realaa_views(
    views: Dict[int, BatchPartyView], phase: RealAAPhaseResult
) -> List[float]:
    """Bind one phase's per-class results to the per-party views.

    Each view gets its final value, its termination iteration and a
    reference to its class's outcome; ``bad`` and ``history`` are built
    from that on first read (:class:`BatchPartyView`).  Returns the
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


def _honest_first(
    pids: List[int], honest: Set[int], step: "Callable[[int], None]"
) -> List[int]:
    """Run *step* for each of *pids*: honest parties first, then puppets.

    The reference order of events at a phase end: the first honest
    :class:`~repro.core.errors.ValidityViolationError` (lowest pid)
    raises out of the run, while a corrupted puppet whose validity guard
    fires dies silently (the adversary pops it).  Returns the dead
    puppets' ids.
    """
    for pid in pids:
        if pid in honest:
            step(pid)
    dead: List[int] = []
    for pid in pids:
        if pid not in honest:
            try:
                step(pid)
            except ValidityViolationError:
                dead.append(pid)
    return dead


class BatchSynchronousEngine:
    """Batched executor for RealAA / PathAA / TreeAA.

    Stateless facade.  Each ``run_*`` method executes the party factory
    :mod:`repro.core.api` built for the run, the one the reference
    engine and the dense engine drive.  It refuses what it cannot
    replay, builds party 0 (whose constructor validates the run and
    holds its public parameters: ``t``, iteration counts, the path or
    the Euler list), checks the other parties' inputs in pid order,
    replays the supported adversary via its
    :class:`~repro.engine.spec.BatchAdversarySpec` and runs the kernel.
    It returns the :class:`~repro.net.network.ExecutionResult` that
    :mod:`repro.core.api` judges.
    """

    # -- RealAA ---------------------------------------------------------

    def run_real_aa(
        self,
        factory: "PartyFactory",
        inputs: Sequence[float],
        t: int,
        adversary: Optional["Adversary"],
        trace_level: TraceLevel,
        observer: Optional["Observer"],
        fault_plan: Optional["FaultPlan"],
    ) -> ExecutionResult:
        """Execute *factory*'s :class:`~repro.protocols.realaa.RealAAParty`
        parties, one per entry of *inputs*."""
        collector = _resolve_collector(observer)
        if collector is not None and collector.tree is not None:
            raise UnsupportedBackendError(
                "MetricsCollector with a tree watches vertex estimates, "
                "which RealAA parties do not expose the same way under "
                "batch execution; use backend='reference'"
            )
        spec = resolve_batch_spec(adversary)
        n = len(inputs)
        if not n:
            return _run_without_parties(t, spec, trace_level, fault_plan, factory, adversary)
        first = cast(RealAAParty, factory(0))
        for pid in range(1, n):
            if not is_real(inputs[pid]):
                factory(pid)  # raises the constructor's own error
        its = first.iterations
        execution = _make_execution(
            n, t, first.t, spec, trace_level, fault_plan, factory
        )
        _attach_metrics(execution, collector, ROUNDS_PER_ITERATION * its, True)
        values = [float(v) for v in inputs]
        shared = _realaa_attributes(n, first.t, its, first.epsilon)
        views = {
            pid: BatchPartyView(pid, shared, {"input_value": value, "value": value})
            for pid, value in enumerate(values)
        }
        outputs: Dict[PartyId, Any] = {pid: None for pid in range(n)}
        if execution.has_honest:
            phase = execution.run_realaa_phase(
                np.array(values, dtype=np.float64), first.epsilon, its
            )
            final = _populate_realaa_views(views, phase)
            for pid in _active_pids(phase):
                outputs[pid] = final[pid]
                views[pid].output = final[pid]
        return _finish_run(execution, adversary, outputs, views)

    # -- PathAA / KnownPathAA -------------------------------------------

    def run_path_aa(
        self,
        factory: "PartyFactory",
        inputs: Sequence[Label],
        t: int,
        adversary: Optional["Adversary"],
        trace_level: TraceLevel,
        observer: Optional["Observer"],
        fault_plan: Optional["FaultPlan"],
    ) -> ExecutionResult:
        """Execute *factory*'s :class:`~repro.core.path_aa.PathAAParty`
        (Section 4) or :class:`~repro.core.projection_aa.KnownPathAAParty`
        (Section 5) parties, one per entry of *inputs*."""
        collector = _resolve_collector(observer)
        spec = resolve_batch_spec(adversary)
        n = len(inputs)
        if not n:
            return _run_without_parties(t, spec, trace_level, fault_plan, factory, adversary)
        first = cast("Union[PathAAParty, KnownPathAAParty]", factory(0))
        canonical = first.path
        tree = first.tree if isinstance(first, KnownPathAAParty) else None
        positions: List[float] = []
        projections: Dict[int, Label] = {}
        for pid in range(n):
            if tree is not None:
                projections[pid], position = project_position(
                    tree, inputs[pid], canonical
                )
            else:
                position = float(canonical.position_of(inputs[pid]))
            positions.append(position)
        its = first.iterations
        execution = _make_execution(
            n, t, first.t, spec, trace_level, fault_plan, factory
        )
        _attach_metrics(
            execution,
            collector,
            ROUNDS_PER_ITERATION * its,
            True,
            honest_estimates=[inputs[pid] for pid in sorted(execution.honest_set)],
        )
        # KnownPathAAParty adds the tree and the projection to PathAAParty.
        shared = _realaa_attributes(n, first.t, its, path=canonical)
        if tree is not None:
            shared["tree"] = tree
        views: Dict[int, BatchPartyView] = {}
        for pid, position in enumerate(positions):
            own: Dict[str, Any] = {
                "input_value": position,
                "value": position,
                "input_vertex": inputs[pid],
            }
            if tree is not None:
                own["projection"] = projections[pid]
            views[pid] = BatchPartyView(pid, shared, own)
        outputs: Dict[PartyId, Any] = {pid: None for pid in range(n)}
        if execution.has_honest:
            phase = execution.run_realaa_phase(
                np.array(positions, dtype=np.float64), 1.0, its
            )
            final = _populate_realaa_views(views, phase)

            def output(pid: int) -> None:
                outputs[pid] = views[pid].output = vertex_at(canonical, final[pid])

            _honest_first(_active_pids(phase), execution.honest_set, output)
        return _finish_run(execution, adversary, outputs, views)

    # -- TreeAA ---------------------------------------------------------

    def run_tree_aa(
        self,
        factory: "PartyFactory",
        inputs: Sequence[Label],
        t: int,
        adversary: Optional["Adversary"],
        trace_level: TraceLevel,
        observer: Optional["Observer"],
        fault_plan: Optional["FaultPlan"],
    ) -> ExecutionResult:
        """Execute *factory*'s :class:`~repro.core.tree_aa.TreeAAParty`
        parties, one per entry of *inputs*."""
        collector = _resolve_collector(observer)
        spec = resolve_batch_spec(adversary)
        n = len(inputs)
        if not n:
            return _run_without_parties(t, spec, trace_level, fault_plan, factory, adversary)
        first = cast(TreeAAParty, factory(0))
        tree = first.tree
        for pid in range(1, n):
            tree.require_vertex(inputs[pid])
        execution = _make_execution(
            n, t, first.t, spec, trace_level, fault_plan, factory
        )
        duration = first.duration
        _attach_metrics(
            execution,
            collector,
            duration,
            False,
            honest_estimates=[inputs[pid] for pid in sorted(execution.honest_set)],
        )
        outputs: Dict[PartyId, Any] = {pid: None for pid in range(n)}
        views: Dict[int, BatchPartyView] = {}
        shared = _view_attributes(
            n, first.t, duration, tree=tree, root=first.root, projection_phase=None
        )
        finder = cast(Optional[PathsFinderParty], first.paths_finder)
        if finder is None:
            # Trivial input space: 0 rounds, every party outputs its input
            # (set at construction, so even silent puppets carry it).
            for pid in range(n):
                vertex = inputs[pid]
                views[pid] = BatchPartyView(
                    pid,
                    shared,
                    {"input_vertex": vertex, "output": vertex, "paths_finder": None},
                )
                outputs[pid] = vertex
        else:
            # Party 0 built its PathsFinder sub-party; the Euler list and
            # both phases' iteration counts are public, so all parties
            # share them.  Phase 2 takes the rest of the declared duration.
            euler = finder.euler
            phase1_iterations = finder.iterations
            phase2_iterations = (duration - finder.duration) // ROUNDS_PER_ITERATION
            values1 = [
                float(euler.first_occurrence(inputs[pid])) for pid in range(n)
            ]
            finder_shared = _realaa_attributes(
                n,
                first.t,
                phase1_iterations,
                tree=tree,
                euler=euler,
                selected_vertex=None,
            )
            for pid in range(n):
                vertex, value = inputs[pid], values1[pid]
                finder_view = BatchPartyView(
                    pid,
                    finder_shared,
                    {"input_value": value, "value": value, "input_vertex": vertex},
                )
                views[pid] = BatchPartyView(
                    pid, shared, {"input_vertex": vertex, "paths_finder": finder_view}
                )
            if execution.has_honest:
                self._run_tree_phases(
                    execution,
                    tree,
                    inputs,
                    euler,
                    values1,
                    phase1_iterations,
                    phase2_iterations,
                    views,
                    outputs,
                )
        return _finish_run(execution, adversary, outputs, views)

    def _run_tree_phases(
        self,
        execution: "AnyExecution",
        tree: LabeledTree,
        inputs: Sequence[Label],
        euler: EulerList,
        values1: List[float],
        phase1_iterations: int,
        phase2_iterations: int,
        tree_views: Dict[int, BatchPartyView],
        outputs: Dict[PartyId, Any],
    ) -> None:
        """Both TreeAA phases plus the boundary logic between them.

        The phase-1 → phase-2 boundary follows the reference execution
        order (:func:`_honest_first`): a corrupted puppet whose validity
        guard fires dies silently; the first *honest* violation raises out
        of the run.
        """
        n = execution.n
        honest = execution.honest_set
        projection_shared = _realaa_attributes(
            n, execution.party_t, phase2_iterations
        )
        phase1 = execution.run_realaa_phase(
            np.array(values1, dtype=np.float64), 1.0, phase1_iterations
        )
        final1 = _populate_realaa_views(
            {pid: view.paths_finder for pid, view in tree_views.items()}, phase1
        )
        paths: Dict[int, TreePath] = {}
        positions: Dict[int, float] = {}
        # Per-class memos: a class shares its final value, hence its path.
        path_memo: Dict[float, Tuple[Label, TreePath]] = {}
        position_memo: Dict[Tuple[Label, Label], Tuple[Label, float]] = {}

        def select_path(pid: int) -> None:
            value = final1[pid]
            pair = path_memo.get(value)
            if pair is None:
                pair = path_memo[value] = euler_root_path(euler, value)
            selected, found = pair
            view = tree_views[pid]
            finder = view.paths_finder
            finder.selected_vertex = selected
            finder.output = found
            paths[pid] = found
            key = (selected, inputs[pid])
            memoised = position_memo.get(key)
            if memoised is None:
                memoised = position_memo[key] = project_position(
                    tree, inputs[pid], found
                )
            projection, position = memoised
            positions[pid] = position
            view.projection_phase = BatchPartyView(
                pid,
                projection_shared,
                {
                    "input_value": position,
                    "value": position,
                    "path": found,
                    "projection": projection,
                },
            )

        dead = np.zeros(n, dtype=bool)
        dead[_honest_first(_active_pids(phase1), honest, select_path)] = True
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
        active2 = _active_pids(phase2)
        projection_views: Dict[int, BatchPartyView] = {}
        for pid in active2:
            phase_view = tree_views[pid].projection_phase
            if phase_view is not None:
                projection_views[pid] = phase_view
        final2 = _populate_realaa_views(projection_views, phase2)

        def finish(pid: int) -> None:
            vertex = clamp_to_path(paths[pid], final2[pid])
            projection_views[pid].output = vertex
            tree_views[pid].output = vertex
            outputs[pid] = vertex

        _honest_first(active2, honest, finish)
