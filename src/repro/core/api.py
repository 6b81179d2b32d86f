"""High-level API: run the paper's protocols end to end and check AA.

These helpers are what the examples and benchmarks use: build the parties,
run the synchronous network under a chosen adversary, and evaluate the AA
properties (Termination / Validity / 1- or ε-Agreement) on the honest
outputs.

The AA contract is judged once: :func:`judge_real` (Definition 1) and
:func:`judge_tree` (Definition 2) return the :class:`AAJudgement` each
outcome keeps (``outcome.judgement``), once per execution; the outcome
verdicts, the :mod:`repro.resilience.oracles` invariants and the tests
read it.  It is total: ``None`` is a missing output; ``NaN``, ±inf,
bools, ints beyond float range, non-vertices and unhashables are garbage
(invalid), never an exception; an int in the hull is a valid real output;
an empty honest set has not terminated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, cast,
)

from ..net.faults import FaultPlan
from ..net.messages import PartyId
from ..net.network import ExecutionResult, TraceLevel
from ..net.runner import PartyFactory, run_protocol
from ..protocols.realaa import RealAAParty, is_real
from ..trees.convex import in_convex_hull
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath, distance
from .path_aa import PathAAParty
from .projection_aa import KnownPathAAParty
from .tree_aa import TreeAAParty

if TYPE_CHECKING:
    from ..adversary.base import Adversary
    from ..net.trace import Observer


@dataclass(frozen=True)
class AAJudgement:
    """Definitions 1–2 applied to one execution's honest outputs.

    Offending honest pids, in pid order: ``missing`` (``None``),
    ``garbage`` (not a finite real / not a vertex), ``outside`` (outside
    the honest inputs' hull).  ``spread``: ``max − min`` of the well-formed
    real outputs, or the largest distance between distinct vertex outputs.
    ``bound``: ε, or 1 on trees.  ``hull``: the inputs' interval on ℝ.
    """

    #: How many honest parties were judged (0 = an empty honest set).
    honest: int
    missing: Tuple[PartyId, ...]
    garbage: Tuple[PartyId, ...]
    outside: Tuple[PartyId, ...]
    spread: float
    bound: float
    hull: Tuple[float, float] = (math.inf, -math.inf)

    @property
    def terminated(self) -> bool:
        return self.honest > 0 and not self.missing

    @property
    def valid(self) -> bool:
        return self.terminated and not self.garbage and not self.outside

    @property
    def agreement(self) -> bool:
        return self.terminated and self.spread <= self.bound

    @property
    def achieved_aa(self) -> bool:
        return self.valid and self.agreement


class _Judged:
    """The AA verdicts of an outcome: read-only views of its judgement."""

    judgement: AAJudgement

    @property
    def terminated(self) -> bool:
        """Termination: some honest party exists and every one has an output."""
        return self.judgement.terminated

    @property
    def valid(self) -> bool:
        """Validity: every honest output lies in the honest inputs' hull."""
        return self.judgement.valid

    @property
    def agreement(self) -> bool:
        """1-Agreement on trees, ε-Agreement on ℝ."""
        return self.judgement.agreement

    @property
    def achieved_aa(self) -> bool:
        return self.judgement.achieved_aa


@dataclass
class TreeAAOutcome(_Judged):
    """A TreeAA (or path-AA) execution together with the
    :func:`judge_tree` judgement of its honest outputs."""

    execution: ExecutionResult
    tree: LabeledTree
    honest_inputs: Dict[PartyId, Label]
    honest_outputs: Dict[PartyId, Label]
    judgement: AAJudgement
    rounds: int

    @property
    def output_diameter(self) -> int:
        """The largest distance between distinct vertex outputs (0 unless
        terminated)."""
        return int(self.judgement.spread) if self.terminated else 0


@dataclass
class RealAAOutcome(_Judged):
    """A RealAA execution together with the :func:`judge_real` judgement
    of its honest outputs."""

    execution: ExecutionResult
    honest_inputs: Dict[PartyId, float]
    honest_outputs: Dict[PartyId, float]
    judgement: AAJudgement
    rounds: int
    #: Rounds until the last honest party first observed ε-closeness
    #: (3 × the latest local termination iteration) — the measured round
    #: complexity the benchmarks compare against Theorem 3.
    measured_rounds: Optional[int]

    @property
    def output_spread(self) -> float:
        """``max − min`` of the honest outputs (``inf`` unless terminated)."""
        return self.judgement.spread if self.terminated else math.inf


def _partition(
    outputs: Mapping[PartyId, Any],
    well_formed: Callable[[Any], bool],
    all_well_formed: Callable[[Iterable[Any]], bool],
) -> Tuple[Tuple[PartyId, ...], Tuple[PartyId, ...], Mapping[PartyId, Any]]:
    """Missing pids, garbage pids, and the well-formed outputs by pid
    (without a per-party pass when the whole-map check holds)."""
    try:
        if all_well_formed(outputs.values()):
            return (), (), outputs
    except TypeError:
        pass
    missing: List[PartyId] = []
    garbage: List[PartyId] = []
    good: Dict[PartyId, Any] = {}
    for pid, output in outputs.items():
        if output is None:
            missing.append(pid)
        elif well_formed(output):
            good[pid] = output
        else:
            garbage.append(pid)
    return tuple(sorted(missing)), tuple(sorted(garbage)), good


def _finite_floats(values: Iterable[Any]) -> bool:
    """All floats, and a finite float sum: no NaN or ±inf among them."""
    return set(map(type, values)) == {float} and math.isfinite(sum(values))


def judge_real(
    honest_inputs: Mapping[PartyId, Any],
    honest_outputs: Mapping[PartyId, Any],
    epsilon: float,
) -> AAJudgement:
    """Judge real outputs against Definition 1 (ε-agreement)."""
    inputs = [float(v) for v in honest_inputs.values()]
    lo, hi = min(inputs, default=math.inf), max(inputs, default=-math.inf)
    missing, garbage, good = _partition(honest_outputs, is_real, _finite_floats)
    # float() is monotone, so the extremes of the converted outputs are
    # the converted extremes.
    low = float(min(good.values())) if good else 0.0
    high = float(max(good.values())) if good else 0.0
    outside: Tuple[PartyId, ...] = ()
    if good and not lo <= low <= high <= hi:
        outside = tuple(sorted(p for p, v in good.items() if not lo <= float(v) <= hi))
    return AAJudgement(
        len(honest_outputs), missing, garbage, outside, high - low, epsilon, (lo, hi)
    )


def judge_tree(
    tree: LabeledTree,
    honest_inputs: Mapping[PartyId, Any],
    honest_outputs: Mapping[PartyId, Any],
) -> AAJudgement:
    """Judge vertex outputs on *tree* against Definition 2 (1-agreement)."""

    def is_vertex(value: Any) -> bool:
        try:
            return value in tree
        except TypeError:  # unhashable garbage
            return False

    def all_vertices(values: Iterable[Any]) -> bool:
        # Membership is decided by value, so the distinct values suffice.
        labels = set(values)
        return None not in labels and all(map(is_vertex, labels))

    missing, garbage, good = _partition(honest_outputs, is_vertex, all_vertices)
    # Hull membership and pairwise distance depend only on the *distinct*
    # labels involved, so dedupe before the tree walks: honest outputs
    # cluster on a handful of vertices even at n = 100,000.
    anchors = set(_partition(honest_inputs, is_vertex, all_vertices)[2].values())
    distinct = sorted(set(good.values()), key=repr)
    far = {v for v in distinct if not (anchors and in_convex_hull(tree, v, anchors))}
    diameter = 0
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            diameter = max(diameter, distance(tree, distinct[i], distinct[j]))
    outside = tuple(sorted(pid for pid, v in good.items() if v in far)) if far else ()
    return AAJudgement(len(honest_outputs), missing, garbage, outside, diameter, 1)


#: The name ``tree_aa_outcome`` calls the tree judge by (perfbench traces
#: it as ``core.evaluate``).
_evaluate_tree_outputs = judge_tree


def tree_aa_outcome(
    execution: ExecutionResult, tree: LabeledTree, inputs: Sequence[Label]
) -> TreeAAOutcome:
    """Judge a finished execution on *tree* (any engine; the tree
    counterpart of :func:`real_aa_outcome`)."""
    honest_inputs = {pid: inputs[pid] for pid in sorted(execution.honest)}
    honest_outputs = execution.honest_outputs
    return TreeAAOutcome(
        execution=execution,
        tree=tree,
        honest_inputs=honest_inputs,
        honest_outputs=honest_outputs,
        judgement=_evaluate_tree_outputs(tree, honest_inputs, honest_outputs),
        rounds=execution.trace.rounds_executed,
    )


def default_known_range(inputs: Sequence[float]) -> float:
    """RealAA's ``known_range`` when the caller gives neither it nor
    ``iterations``: the spread of *inputs* (0 for none)."""
    return max(inputs) - min(inputs) if len(inputs) else 0.0


def _execute(
    backend: str,
    batch_run: str,
    factory: PartyFactory,
    inputs: Sequence[Any],
    t: int,
    adversary: Optional[Adversary],
    trace_level: TraceLevel,
    observer: Optional[Observer],
    fault_plan: Optional[FaultPlan],
) -> ExecutionResult:
    """Run the parties *factory* builds, one per entry of *inputs*.

    ``"reference"`` drives them through :func:`run_protocol`; ``"batch"``
    hands the factory and *inputs* to the
    :class:`~repro.engine.backend.BatchSynchronousEngine` method named
    *batch_run*.  The batch engine is imported lazily so that the NumPy
    stack is only loaded when a caller actually opts into it.
    """
    if backend == "reference":
        return run_protocol(
            len(inputs),
            t,
            factory,
            adversary=adversary,
            trace_level=trace_level,
            observer=observer,
            fault_plan=fault_plan,
        )
    if backend != "batch":
        raise ValueError(
            f"unknown backend {backend!r} (choose 'reference' or 'batch')"
        )
    from ..engine.backend import BatchSynchronousEngine

    run: Callable[..., ExecutionResult] = getattr(BatchSynchronousEngine(), batch_run)
    return run(factory, inputs, t, adversary, trace_level, observer, fault_plan)


def run_tree_aa(
    tree: LabeledTree,
    inputs: Sequence[Label],
    t: int,
    adversary: Optional[Adversary] = None,
    root: Optional[Label] = None,
    trace_level: TraceLevel = TraceLevel.FULL,
    observer: Optional[Observer] = None,
    fault_plan: Optional[FaultPlan] = None,
    t_assumed: Optional[int] = None,
    backend: str = "reference",
) -> TreeAAOutcome:
    """Run **TreeAA** with ``inputs[pid]`` as party ``pid``'s input vertex.

    ``inputs`` must have length ``n``; corrupted parties' entries are the
    inputs their puppets start from (the adversary may ignore them).
    ``observer`` (e.g. a :class:`~repro.observability.MetricsCollector` or
    a :class:`~repro.net.TranscriptRecorder`) watches every round.

    ``fault_plan`` and ``t_assumed`` are the resilience-lab hooks:
    ``fault_plan`` injects honest-message faults (gated by
    ``allow_model_violations=True``); ``t_assumed`` lets the parties run
    with a *smaller* tolerance than the network's corruption budget ``t``
    — the way degradation experiments cross the ``t < n/3`` threshold
    while the protocol logic stays at its designed operating point.

    ``backend`` selects the execution engine: ``"reference"`` (default)
    drives per-party state machines through the synchronous network;
    ``"batch"`` runs the observationally equivalent vectorized engine
    (:mod:`repro.engine`).  The batch engine replays metrics observers
    (a plain :class:`~repro.observability.MetricsCollector`), fault
    plans and the equivocating chaos/burn adversaries, and raises
    :class:`~repro.engine.errors.UnsupportedBackendError` for features
    it cannot replay (transcript recorders and other observers, custom
    ``estimate_fn``, adaptive adversaries).
    """
    n = len(inputs)
    party_t = t if t_assumed is None else t_assumed
    execution = _execute(
        backend,
        "run_tree_aa",
        lambda pid: TreeAAParty(pid, n, party_t, tree, inputs[pid], root=root),
        inputs,
        t,
        adversary,
        trace_level,
        observer,
        fault_plan,
    )
    return tree_aa_outcome(execution, tree, inputs)


def run_path_aa(
    tree: LabeledTree,
    path: TreePath,
    inputs: Sequence[Label],
    t: int,
    adversary: Optional[Adversary] = None,
    project: bool = False,
    observer: Optional[Observer] = None,
    trace_level: TraceLevel = TraceLevel.FULL,
    fault_plan: Optional[FaultPlan] = None,
    t_assumed: Optional[int] = None,
    backend: str = "reference",
) -> TreeAAOutcome:
    """Run the Section-4 path protocol (or the Section-5 variant).

    With ``project=False`` every input must lie on *path* (Section 4).
    With ``project=True`` inputs may be arbitrary tree vertices, projected
    onto the commonly known *path* first (Section 5).  ``fault_plan`` and
    ``t_assumed`` are the same resilience-lab hooks as in
    :func:`run_tree_aa`; ``backend`` selects the engine as there.
    """
    n = len(inputs)
    party_t = t if t_assumed is None else t_assumed
    canonical = path.canonical()
    factory: PartyFactory
    if project:
        factory = lambda pid: KnownPathAAParty(  # noqa: E731
            pid, n, party_t, tree, canonical, inputs[pid]
        )
    else:
        factory = lambda pid: PathAAParty(  # noqa: E731
            pid, n, party_t, canonical, inputs[pid]
        )
    execution = _execute(
        backend, "run_path_aa", factory, inputs, t, adversary, trace_level, observer, fault_plan
    )
    return tree_aa_outcome(execution, tree, inputs)


def run_real_aa(
    inputs: Sequence[float],
    t: int,
    epsilon: float,
    known_range: Optional[float] = None,
    iterations: Optional[int] = None,
    adversary: Optional[Adversary] = None,
    trace_level: TraceLevel = TraceLevel.FULL,
    observer: Optional[Observer] = None,
    fault_plan: Optional[FaultPlan] = None,
    t_assumed: Optional[int] = None,
    backend: str = "reference",
) -> RealAAOutcome:
    """Run **RealAA(ε)** on real-valued inputs.

    ``known_range`` (or an explicit ``iterations`` count) fixes the public
    round budget; it defaults to the actual spread of ``inputs`` — fine for
    experiments, where the input range is chosen by the experimenter.

    ``fault_plan`` and ``t_assumed`` serve the resilience lab: the former
    injects honest-message faults (behind ``allow_model_violations=True``),
    the latter runs the parties at a smaller assumed tolerance than the
    network's budget ``t`` so degradation sweeps can exceed ``t < n/3``
    without touching protocol-layer guards.  ``backend`` selects the
    engine as in :func:`run_tree_aa`.
    """
    n = len(inputs)
    if known_range is None and iterations is None:
        known_range = default_known_range(inputs)
    party_t = t if t_assumed is None else t_assumed
    execution = _execute(
        backend,
        "run_real_aa",
        lambda pid: RealAAParty(
            pid,
            n,
            party_t,
            inputs[pid],
            epsilon=epsilon,
            known_range=known_range,
            iterations=iterations,
        ),
        inputs,
        t,
        adversary,
        trace_level,
        observer,
        fault_plan,
    )
    return real_aa_outcome(
        execution,
        inputs,
        epsilon,
        execution.trace.rounds_executed,
        _local_iterations(execution),
    )


def _local_iterations(execution: ExecutionResult) -> List[Optional[int]]:
    """The honest parties' local termination iterations, as far as
    :func:`real_aa_outcome` needs them: their distinct values.  Batch
    views answer once per class, without a view per party."""
    honest = sorted(execution.honest)
    distinct_values = getattr(execution.parties, "distinct_values", None)
    if distinct_values is not None:
        return distinct_values("local_termination_iteration", honest)
    return [
        cast(RealAAParty, execution.parties[pid]).local_termination_iteration
        for pid in honest
    ]


def real_aa_outcome(
    execution: Any,
    inputs: Sequence[float],
    epsilon: float,
    rounds: int,
    local_iterations: Sequence[Optional[int]] = (),
) -> RealAAOutcome:
    """Judge a finished real-valued execution (any engine, sync or async).

    ``local_iterations`` are the honest parties' local termination
    iterations; ``measured_rounds`` is ``3 ×`` their maximum, or ``None``
    when any is missing (or none is known, as for async executions).
    """
    honest_inputs = {pid: float(inputs[pid]) for pid in sorted(execution.honest)}
    honest_outputs = execution.honest_outputs
    measured: Optional[int] = None
    if local_iterations and None not in local_iterations:
        measured = 3 * max(local_iterations)
    return RealAAOutcome(
        execution=execution,
        honest_inputs=honest_inputs,
        honest_outputs=honest_outputs,
        judgement=judge_real(honest_inputs, honest_outputs, epsilon),
        rounds=rounds,
        measured_rounds=measured,
    )
