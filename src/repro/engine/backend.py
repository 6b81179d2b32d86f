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
then checked once per distinct input, in first-occurrence order, so the
first failure is the lowest failing pid's.

Work after the kernel is paid per class and per distinct value, not per
party.  The maps between and after the phases (the validity-guarded
``closestInt`` lookups, PathsFinder's root path, the projection, the
final clamp) depend only on a party's value and input, so each runs once
per distinct key (:func:`_honest_first`).  Parties in the returned
execution are read-only views, all of one class
(:class:`BatchPartyView`), held by a read-only mapping
(:class:`_PartyViews`) that builds a party's view the first time its pid
is read: a run nobody inspects builds none.  Each view exposes the
attributes its reference party class exposes (``value``, ``bad``,
``history``, ``local_termination_iteration``, ``output``,
``paths_finder``, …), read from the arrays and per-key tables the phases
produced, but cannot be driven — its round methods raise
:class:`~repro.engine.errors.UnsupportedBackendError`.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

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
    from typing import Union

    from ..adversary.base import Adversary
    from ..core.path_aa import PathAAParty
    from ..net.faults import FaultPlan
    from ..net.runner import PartyFactory
    from ..net.trace import Observer

    AnyExecution = Union[BatchExecution, DenseExecution]

#: Reads one party's value of an attribute: ``pid → value``.
_Reader = Callable[[int], Any]


#: Reads the distinct values of an attribute over many parties at once:
#: ``pids → values``, without a view per party.
_BulkReader = Callable[[np.ndarray], List[Any]]


class _Site:
    """What the views built at one site read.

    ``shared`` holds the attributes all of its parties have in common
    (``n``, ``t``, ``epsilon``, the Euler list, …); ``own`` holds one
    reader per attribute that differs by party, and ``bulk`` a reader of
    its distinct values over many parties for the attributes that a
    class outcome holds once for all its members.
    """

    __slots__ = ("shared", "own", "bulk")

    def __init__(
        self,
        shared: Dict[str, Any],
        own: Dict[str, _Reader],
        bulk: Optional[Dict[str, _BulkReader]] = None,
    ) -> None:
        self.shared = shared
        self.own = own
        self.bulk = bulk or {}

    def __contains__(self, name: str) -> bool:
        return name in self.shared or name in self.own


class BatchPartyView(ProtocolParty):
    """Read-only stand-in for one reference party, inside batch results.

    One class describes the parties of every protocol.  A view holds its
    pid and its :class:`_Site`, nothing else, until an attribute is read:
    a shared attribute is answered from the site, a per-party one is read
    from the phase's arrays and per-key tables through the site's reader,
    once, and kept in the view's slot.  ``bad`` and ``history`` are built
    anew for each view, so no two views share a container (``history``
    records carry their own ``accepted`` dicts); a view whose party never
    ran reads ``set()`` and ``[]``.  An assignment stays with the view and
    wins over the reader.  A TreeAA view's ``path`` is the output of its
    PathsFinder view, ``None`` until phase 1 ended.  Between them, site
    and view hold exactly the attributes the reference party class
    exposes.  The state machine is not there, so the round methods raise
    :class:`~repro.engine.errors.UnsupportedBackendError`.
    """

    # Slots rather than a per-view dict: one per attribute a reader may
    # fill, so a read is kept and an assignment replaces it.
    __slots__ = (
        "pid",
        "_site",
        "output",
        "input_value",
        "value",
        "local_termination_iteration",
        "bad",
        "history",
        "input_vertex",
        "selected_vertex",
        "path",
        "projection",
        "paths_finder",
        "projection_phase",
    )

    _site: _Site
    value: float
    local_termination_iteration: Optional[int]
    projection_phase: Optional["BatchPartyView"]

    def __init__(self, pid: PartyId, site: _Site) -> None:
        self.pid = pid
        self._site = site

    @property
    def duration(self) -> int:
        return self._duration

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the view does not hold itself.
        if name == "_site" or name.startswith("__"):
            # A bare instance being unpickled or copied has no _site yet.
            raise AttributeError(name)
        site = self._site
        if name in site.shared:
            return site.shared[name]
        read = site.own.get(name)
        if read is not None:
            value = read(self.pid)
            setattr(self, name, value)
            return value
        if name == "path" and "paths_finder" in site:
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


class _PartyViews(Mapping[PartyId, ProtocolParty]):
    """``ExecutionResult.parties`` of a batch run: pid → party, read-only.

    Holds the pids ``0 … n−1``, in order.  A party's view is built the
    first time its pid is read and kept, so repeated reads return the
    same object and a run nobody inspects builds no view.  Dense-engine
    puppets are real party objects, held from the start in place of
    their views.
    """

    def __init__(self, n: int, site: _Site, puppets: Dict[int, Any]) -> None:
        self._n = n
        self._site = site
        self._parties: Dict[int, Any] = dict(puppets)

    def _index(self, pid: object) -> Optional[int]:
        """*pid* as a party index (as a dict keyed ``0 … n−1`` would
        match it), ``None`` when there is no such party."""
        try:
            index = operator.index(pid)  # type: ignore[arg-type]
        except TypeError:
            return None
        return index if 0 <= index < self._n else None

    def __getitem__(self, pid: PartyId) -> ProtocolParty:
        party = self._parties.get(pid)
        if party is None:
            index = self._index(pid)
            if index is None:
                raise KeyError(pid)
            party = self._parties[index] = BatchPartyView(index, self._site)
        return party

    def __contains__(self, pid: object) -> bool:
        return self._index(pid) is not None

    def __iter__(self) -> Iterator[PartyId]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def distinct_values(self, name: str, pids: Sequence[int]) -> List[Any]:
        """The distinct values over the parties *pids* (in no particular
        order) of an attribute the site reads per class (``bulk``).

        Read once per class, without building views, except from the
        parties already held: built views, whose assignments win, and
        dense puppets.
        """
        index = np.asarray(pids, dtype=np.int64)
        held = np.zeros(self._n, dtype=bool)
        held[list(self._parties)] = True
        values = self._site.bulk[name](index[~held[index]])
        values += [getattr(self[pid], name) for pid in index[held[index]].tolist()]
        return list(dict.fromkeys(values))


class _Phase:
    """One RealAA-family phase, as the views of its parties read it.

    ``initial`` holds every party's input value, ``result`` what the
    kernel produced (``None`` when the phase never ran) and ``output``
    reads a party's output.  A party's class outcome is found through a
    pid → class index built on the first read.
    """

    def __init__(
        self,
        initial: np.ndarray,
        result: Optional[RealAAPhaseResult],
        output: _Reader,
    ) -> None:
        self.initial = initial
        self.result = result
        self.output = output
        self._class_of: Optional[np.ndarray] = None

    def readers(self) -> Dict[str, _Reader]:
        """The readers of :class:`~repro.protocols.realaa.RealAAParty`'s
        per-party attributes."""
        return {
            "input_value": self.input_value,
            "value": self.value,
            "local_termination_iteration": self.local_termination_iteration,
            "bad": self.bad,
            "history": self.history,
            "output": self.output,
        }

    def _class_index(self) -> Optional[np.ndarray]:
        """pid → index of the party's class outcome (``-1`` when its state
        machine did not run), built on the first call; ``None`` when the
        phase never ran."""
        result = self.result
        if result is None:
            return None
        if self._class_of is None:
            class_of = np.full(len(self.initial), -1, dtype=np.int64)
            for index in result.outcomes:
                class_of[result.classes[index].ids] = index
            self._class_of = class_of
        return self._class_of

    def _outcome_at(self, index: int) -> Optional[ClassPhaseOutcome]:
        """The class outcome at *index* of :meth:`_class_index`."""
        if index < 0 or self.result is None:
            return None
        return self.result.outcomes[index]

    def _outcome(self, pid: int) -> Optional[ClassPhaseOutcome]:
        class_of = self._class_index()
        return self._outcome_at(-1 if class_of is None else int(class_of[pid]))

    def local_termination_iterations(self, pids: np.ndarray) -> List[Optional[int]]:
        """The distinct local termination iterations of *pids*, read once
        per class."""
        if not len(pids):
            return []
        class_of = self._class_index()
        if class_of is None:
            indices = [-1]
        else:  # np.unique without options would import numpy.ma (~1 MB)
            indices = (np.flatnonzero(np.bincount(class_of[pids] + 1)) - 1).tolist()
        return list(
            dict.fromkeys(
                None if outcome is None else outcome.local_termination_iteration
                for outcome in map(self._outcome_at, indices)
            )
        )

    def input_value(self, pid: int) -> float:
        return float(self.initial[pid])

    def value(self, pid: int) -> float:
        values = self.initial if self.result is None else self.result.values
        return float(values[pid])

    def local_termination_iteration(self, pid: int) -> Optional[int]:
        outcome = self._outcome(pid)
        return None if outcome is None else outcome.local_termination_iteration

    def bad(self, pid: int) -> Set[int]:
        outcome = self._outcome(pid)
        return set() if outcome is None else set(np.flatnonzero(outcome.bad).tolist())

    def history(self, pid: int) -> List[IterationRecord]:
        outcome = self._outcome(pid)
        if outcome is None or self.result is None:
            return []
        snapshots = self.result.snapshots
        return [
            IterationRecord(
                iteration=record.iteration,
                accepted=record.accepted(),
                newly_detected=record.newly_detected,
                trimmed_range=record.trimmed_range,
                new_value=float(snapshots[record.iteration][pid]),
            )
            for record in outcome.records
        ]


class _Keyed:
    """Reads a value stored once per key: ``table[keys[pid]]``, ``None``
    where the table has no entry for the party's key."""

    __slots__ = ("keys", "table")

    def __init__(self, keys: np.ndarray, table: Dict[int, Any]) -> None:
        self.keys = keys
        self.table = table

    def __call__(self, pid: int) -> Any:
        return self.table.get(int(self.keys[pid]))


class _SubView:
    """Reads a party's view at a sub-phase *site*; ``None`` for a party
    outside *present* (every party when *present* is ``None``)."""

    __slots__ = ("site", "present")

    def __init__(self, site: _Site, present: Optional[np.ndarray] = None) -> None:
        self.site = site
        self.present = present

    def __call__(self, pid: int) -> Optional[BatchPartyView]:
        if self.present is not None and not self.present[pid]:
            return None
        return BatchPartyView(pid, self.site)


def _realaa_site(
    n: int,
    t: int,
    iterations: int,
    phase: _Phase,
    epsilon: float = 1.0,
    own: Optional[Dict[str, _Reader]] = None,
    **attributes: Any,
) -> _Site:
    """The site of a RealAA-family phase's views.

    :class:`~repro.protocols.realaa.RealAAParty`'s attributes, read from
    *phase*, plus the subclass's shared *attributes* and *own* readers.
    """
    readers = phase.readers()
    readers.update(own or {})
    return _Site(
        dict(
            n=n,
            t=t,
            _duration=ROUNDS_PER_ITERATION * iterations,
            epsilon=epsilon,
            iterations=iterations,
            accusations=True,
            **attributes,
        ),
        readers,
        {"local_termination_iteration": phase.local_termination_iterations},
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
    estimates: Optional[Sequence[Any]] = None,
) -> None:
    """Wire a :class:`BatchMetrics` sink onto *execution* (if observed).

    *estimates* are every party's input estimates by pid; the honest
    parties' feed the hull.
    """
    if collector is None:
        return
    honest_estimates = None
    if estimates is not None:
        honest_estimates = list(compress(estimates, _honest_mask(execution).tolist()))
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
    outputs: List[Any],
    site: _Site,
) -> ExecutionResult:
    """The end every run shares, once its phases succeeded.

    *outputs* lists every party's output by pid, *site* is what its views
    read.  Patches the final metrics row's hull from the honest outputs
    and flushes the pending rows.  In dense mode the engine drove *real*
    puppet objects: they (and their outputs) replace the views in the
    result exactly as the reference engine reports them, the fault
    counters go onto the trace, and the replay clone's diagnostics are
    mirrored onto the caller's adversary instance.
    """
    by_pid: Dict[PartyId, Any] = dict(enumerate(outputs))
    if execution.metrics is not None:
        honest = _honest_mask(execution).tolist()
        execution.metrics.finalize(list(compress(outputs, honest)))
        execution.metrics.flush()
    puppets: Dict[int, Any] = {}
    if isinstance(execution, DenseExecution):
        for pid in sorted(execution.corrupted):
            party = execution.party_objects.get(pid)
            if party is not None:
                by_pid[pid] = party.output
                puppets[pid] = party
        execution.finalize_trace()
        execution.copy_diagnostics(adversary)
    return ExecutionResult(
        outputs=by_pid,
        honest=set(execution.honest_set),
        corrupted=set(execution.corrupted),
        trace=execution.trace,
        parties=_PartyViews(execution.n, site, puppets),
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
    return _finish_run(execution, adversary, [], _Site({}, {}))


def _per_input(
    inputs: List[Label], compute: Callable[[Label], Any]
) -> Tuple[np.ndarray, List[Label], List[Any]]:
    """*compute* once per distinct input: ``(codes, distinct, results)``.

    Party ``pid``'s input is ``distinct[codes[pid]]`` and its result
    ``results[codes[pid]]``.  Distinct inputs are computed in order of
    first occurrence, so the first that fails is the lowest failing pid's.
    Should any input be unhashable or fail, every input is computed again
    in pid order, which raises the error the reference raises, at the
    reference's pid.
    """
    try:
        distinct = list(dict.fromkeys(inputs))
        results = [compute(vertex) for vertex in distinct]
    except Exception:
        for vertex in inputs:
            compute(vertex)
        raise
    code_of = {vertex: code for code, vertex in enumerate(distinct)}
    codes = np.fromiter(map(code_of.__getitem__, inputs), np.int64, len(inputs))
    return codes, distinct, results


def _active_pids(phase: RealAAPhaseResult) -> np.ndarray:
    """All party ids whose state machines ran in *phase*, ascending."""
    ids = [phase.classes[index].ids for index in phase.outcomes]
    return np.sort(np.concatenate(ids)) if ids else np.zeros(0, np.int64)


def _honest_mask(execution: "AnyExecution") -> np.ndarray:
    """``mask[pid]``: whether party *pid* is honest."""
    honest = np.ones(execution.n, dtype=bool)
    honest[sorted(execution.corrupted)] = False
    return honest


def _value_keys(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, keys)``: *values* equals ``distinct[keys]``."""
    distinct, keys = np.unique(values, return_inverse=True)
    return distinct, keys


def _honest_first(
    pids: np.ndarray,
    keys: np.ndarray,
    honest: np.ndarray,
    evaluate: Callable[[int], None],
) -> np.ndarray:
    """Run a phase-end step of *pids* once per distinct key, in the
    reference's order of events.

    In the reference each party of *pids* (ascending) runs the step on
    its own key (*keys*, aligned with *pids*; *honest* marks the honest
    ones), honest parties first: the first honest exception (lowest pid)
    raises out of the run, while a corrupted puppet whose validity guard
    fires dies silently (the adversary pops it).  Equal keys give equal
    results, so *evaluate* runs once per key: first for the honest
    parties' keys in order of their first holder, then for the puppets'
    remaining ones alike, which raises what the lowest failing pid would.
    Returns the dead puppets' ids.
    """
    done: Set[int] = set()
    failed: List[int] = []
    puppets = ~honest
    for is_honest, group in ((True, honest), (False, puppets)):
        for key in dict.fromkeys(keys[group].tolist()):  # first-holder order
            if key in done:
                continue
            done.add(key)
            if is_honest:
                evaluate(key)
                continue
            try:
                evaluate(key)
            except ValidityViolationError:
                failed.append(key)
    dead = pids[puppets]
    # np.isin of two empty arrays would import numpy.ma (~2 MB).
    return dead[np.isin(keys[puppets], failed)] if failed else dead[:0]


def _per_key(keys: np.ndarray, table: Dict[int, Any]) -> np.ndarray:
    """``table.get(key)`` for each of *keys*, as an object array (looked
    up once per distinct key)."""
    distinct, codes = _value_keys(keys)
    column = np.empty(len(distinct), dtype=object)
    for code, key in enumerate(distinct.tolist()):
        column[code] = table.get(key)
    return column[codes]


def _by_pid(n: int, pids: np.ndarray, entries: np.ndarray) -> List[Any]:
    """*entries* (aligned with *pids*) as a list by pid, ``None`` for the
    other parties."""
    by_pid = np.full(n, None, dtype=object)
    by_pid[pids] = entries
    return by_pid.tolist()


class BatchSynchronousEngine:
    """Batched executor for RealAA / PathAA / TreeAA.

    Stateless facade.  Each ``run_*`` method executes the party factory
    :mod:`repro.core.api` built for the run, the one the reference
    engine and the dense engine drive.  It refuses what it cannot
    replay, builds party 0 (whose constructor validates the run and
    holds its public parameters: ``t``, iteration counts, the path or
    the Euler list), checks the other parties' inputs, replays the
    supported adversary via its
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
        initial = np.array([float(v) for v in inputs], dtype=np.float64)
        outputs: List[Any] = [None] * n
        result = None
        if execution.has_honest:
            result = execution.run_realaa_phase(initial, first.epsilon, its)
            active = _active_pids(result)
            outputs = _by_pid(n, active, result.values[active])
        phase = _Phase(initial, result, outputs.__getitem__)
        site = _realaa_site(n, first.t, its, phase, first.epsilon)
        return _finish_run(execution, adversary, outputs, site)

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
        inputs = list(inputs)
        shared: Dict[str, Any] = {"path": canonical}
        own: Dict[str, _Reader] = {"input_vertex": inputs.__getitem__}
        if isinstance(first, KnownPathAAParty):
            # KnownPathAAParty adds the tree and the projection to PathAAParty.
            tree = shared["tree"] = first.tree
            codes, _, projected = _per_input(
                inputs, lambda vertex: project_position(tree, vertex, canonical)
            )
            own["projection"] = _Keyed(
                codes, {code: pair[0] for code, pair in enumerate(projected)}
            )
            positions = [position for _, position in projected]
        else:
            codes, _, positions = _per_input(
                inputs, lambda vertex: float(canonical.position_of(vertex))
            )
        initial = np.array(positions, dtype=np.float64)[codes]
        its = first.iterations
        execution = _make_execution(
            n, t, first.t, spec, trace_level, fault_plan, factory
        )
        _attach_metrics(execution, collector, ROUNDS_PER_ITERATION * its, True, inputs)
        outputs: List[Any] = [None] * n
        result = None
        if execution.has_honest:
            result = execution.run_realaa_phase(initial, 1.0, its)
            active = _active_pids(result)
            values, keys = _value_keys(result.values[active])
            vertices: Dict[int, Label] = {}

            def output(key: int) -> None:
                vertices[key] = vertex_at(canonical, float(values[key]))

            _honest_first(active, keys, _honest_mask(execution)[active], output)
            outputs = _by_pid(n, active, _per_key(keys, vertices))
        phase = _Phase(initial, result, outputs.__getitem__)
        site = _realaa_site(n, first.t, its, phase, own=own, **shared)
        return _finish_run(execution, adversary, outputs, site)

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
        inputs = list(inputs)
        finder = cast(Optional[PathsFinderParty], first.paths_finder)
        if finder is None:
            _per_input(inputs, tree.require_vertex)
        else:
            euler = finder.euler

            def first_index(vertex: Label) -> float:
                tree.require_vertex(vertex)
                return float(euler.first_occurrence(vertex))

            codes, distinct, firsts = _per_input(inputs, first_index)
        execution = _make_execution(
            n, t, first.t, spec, trace_level, fault_plan, factory
        )
        duration = first.duration
        _attach_metrics(execution, collector, duration, False, inputs)
        shared: Dict[str, Any] = dict(
            n=n, t=first.t, _duration=duration, tree=tree, root=first.root
        )
        own: Dict[str, _Reader] = {"input_vertex": inputs.__getitem__}
        if finder is None:
            # Trivial input space: 0 rounds, every party outputs its input
            # (set at construction, so even silent puppets carry it).
            shared.update(paths_finder=None, projection_phase=None)
            outputs = inputs
        else:
            # Party 0 built its PathsFinder sub-party; the Euler list and
            # both phases' iteration counts are public, so all parties
            # share them.  Phase 2 takes the rest of the declared duration.
            phase2_iterations = (duration - finder.duration) // ROUNDS_PER_ITERATION
            outputs = _run_tree_phases(
                execution,
                tree,
                euler,
                inputs,
                codes,
                distinct,
                np.array(firsts, dtype=np.float64)[codes],
                finder.iterations,
                phase2_iterations,
                shared,
                own,
            )
        own["output"] = outputs.__getitem__
        return _finish_run(execution, adversary, outputs, _Site(shared, own))


def _run_tree_phases(
    execution: "AnyExecution",
    tree: LabeledTree,
    euler: EulerList,
    inputs: List[Label],
    codes: np.ndarray,
    distinct: List[Label],
    values1: np.ndarray,
    phase1_iterations: int,
    phase2_iterations: int,
    shared: Dict[str, Any],
    own: Dict[str, _Reader],
) -> List[Any]:
    """Both TreeAA phases plus the boundary logic between them.

    Party ``pid``'s input is ``distinct[codes[pid]]``.  Fills the TreeAA
    views' *shared* attributes and *own* readers with the two sub-phase
    views and returns every party's output by pid.  Each boundary runs
    once per distinct key (:func:`_honest_first`): PathsFinder's root
    path and the projection onto it once per (phase-1 value, input),
    the final clamp once per (path, phase-2 value).
    """
    n = execution.n
    t = execution.party_t
    width = len(distinct)
    outputs: List[Any] = [None] * n
    #: The PathsFinder output and selected vertex per value key, the
    #: projection and its position per (value, input) key.
    selected: Dict[int, Label] = {}
    paths: Dict[int, TreePath] = {}
    projections: Dict[int, Label] = {}
    value_keys = np.full(n, -1, dtype=np.int64)
    pair_keys = np.full(n, -1, dtype=np.int64)
    result1 = None
    if execution.has_honest:
        honest = _honest_mask(execution)
        result1 = execution.run_realaa_phase(values1, 1.0, phase1_iterations)
        active1 = _active_pids(result1)
        values, keys1 = _value_keys(result1.values[active1])
        value_keys[active1] = keys1
        pair_keys[active1] = keys1 * width + codes[active1]
        positions: Dict[int, float] = {}

        def select_path(key: int) -> None:
            value_key, input_key = divmod(key, width)
            if value_key not in paths:
                selected[value_key], paths[value_key] = euler_root_path(
                    euler, float(values[value_key])
                )
            projections[key], positions[key] = project_position(
                tree, distinct[input_key], paths[value_key]
            )

        dead = _honest_first(active1, pair_keys[active1], honest[active1], select_path)
        retired = np.zeros(n, dtype=bool)
        retired[dead] = True
        execution.retire_dead(retired)
        if execution.metrics is not None:
            # Phase 1's final metrics row was held back: in the reference
            # a validity violation raises during that round's receives,
            # before the observer fires.  The boundary passed — flush it.
            execution.metrics.flush()

        alive = np.zeros(n, dtype=bool)
        alive[active1] = True
        alive &= ~retired
        survivors = np.flatnonzero(alive)
        values2 = np.zeros(n, dtype=np.float64)
        values2[survivors] = _per_key(pair_keys[survivors], positions)
        result2 = execution.run_realaa_phase(values2, 1.0, phase2_iterations)
        active2 = _active_pids(result2)
        finals, keys2 = _value_keys(result2.values[active2])
        final_keys = value_keys[active2] * len(finals) + keys2
        vertices: Dict[int, Label] = {}

        def finish(key: int) -> None:
            value_key, final_key = divmod(key, len(finals))
            vertices[key] = clamp_to_path(paths[value_key], float(finals[final_key]))

        _honest_first(active2, final_keys, honest[active2], finish)
        outputs = _by_pid(n, active2, _per_key(final_keys, vertices))
        projection = _Phase(values2, result2, outputs.__getitem__)
        own["projection_phase"] = _SubView(
            _realaa_site(
                n,
                t,
                phase2_iterations,
                projection,
                own={
                    "path": _Keyed(value_keys, paths),
                    "projection": _Keyed(pair_keys, projections),
                },
            ),
            alive,
        )
    else:
        shared["projection_phase"] = None
    finder = _Phase(values1, result1, _Keyed(value_keys, paths))
    own["paths_finder"] = _SubView(
        _realaa_site(
            n,
            t,
            phase1_iterations,
            finder,
            own={
                "input_vertex": inputs.__getitem__,
                "selected_vertex": _Keyed(value_keys, selected),
            },
            tree=tree,
            euler=euler,
        )
    )
    return outputs
