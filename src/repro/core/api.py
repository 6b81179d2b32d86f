"""High-level API: run the paper's protocols end to end and check AA.

These helpers are what the examples and benchmarks use: build the parties,
run the synchronous network under a chosen adversary, and evaluate the AA
properties (Termination / Validity / 1- or ε-Agreement) on the honest
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from ..net.faults import FaultPlan
from ..net.messages import PartyId
from ..net.network import ExecutionResult, TraceLevel
from ..net.runner import PartyFactory, run_protocol
from ..protocols.realaa import RealAAParty
from ..trees.convex import in_convex_hull
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath, distance
from .path_aa import PathAAParty
from .projection_aa import KnownPathAAParty
from .tree_aa import TreeAAParty

if TYPE_CHECKING:
    from ..adversary.base import Adversary
    from ..net.trace import Observer


@dataclass
class TreeAAOutcome:
    """A TreeAA (or path-AA) execution together with its AA verdicts."""

    execution: ExecutionResult
    tree: LabeledTree
    honest_inputs: Dict[PartyId, Label]
    honest_outputs: Dict[PartyId, Label]
    #: Termination: every honest party produced a vertex of the tree.
    terminated: bool
    #: Validity: every honest output is in the honest inputs' convex hull.
    valid: bool
    #: The largest pairwise distance between honest outputs.
    output_diameter: int
    #: 1-Agreement: ``output_diameter ≤ 1``.
    agreement: bool
    rounds: int

    @property
    def achieved_aa(self) -> bool:
        return self.terminated and self.valid and self.agreement


@dataclass
class RealAAOutcome:
    """A RealAA execution together with its AA verdicts."""

    execution: ExecutionResult
    epsilon: float
    honest_inputs: Dict[PartyId, float]
    honest_outputs: Dict[PartyId, float]
    terminated: bool
    valid: bool
    output_spread: float
    agreement: bool
    rounds: int
    #: Rounds until the last honest party first observed ε-closeness
    #: (3 × the latest local termination iteration) — the measured round
    #: complexity the benchmarks compare against Theorem 3.
    measured_rounds: Optional[int]

    @property
    def achieved_aa(self) -> bool:
        return self.terminated and self.valid and self.agreement


def _evaluate_tree_outputs(
    tree: LabeledTree,
    honest_inputs: Dict[PartyId, Label],
    honest_outputs: Dict[PartyId, Any],
) -> Dict[str, Any]:
    terminated = all(
        output is not None and output in tree for output in honest_outputs.values()
    )
    # Hull membership and pairwise distance depend only on the *distinct*
    # labels involved, so dedupe before the tree walks: honest outputs
    # cluster on a handful of vertices even at n = 100,000, and the naive
    # per-party loops were the quadratic term in large-n verdicts.
    anchors = sorted(set(honest_inputs.values()))
    distinct = sorted(set(honest_outputs.values())) if terminated else []
    valid = terminated and all(
        in_convex_hull(tree, output, anchors) for output in distinct
    )
    output_diameter = 0
    if terminated and distinct:
        for i in range(len(distinct)):
            for j in range(i + 1, len(distinct)):
                output_diameter = max(
                    output_diameter, distance(tree, distinct[i], distinct[j])
                )
    return {
        "terminated": terminated,
        "valid": valid,
        "output_diameter": output_diameter,
        "agreement": terminated and output_diameter <= 1,
    }


def _select_backend(backend: str) -> Any:
    """Resolve *backend* to an engine object, or ``None`` for the reference.

    The batch engine is imported lazily so that the NumPy stack is only
    loaded when a caller actually opts into ``backend="batch"``.
    """
    if backend == "reference":
        return None
    if backend != "batch":
        raise ValueError(
            f"unknown backend {backend!r} (choose 'reference' or 'batch')"
        )
    from ..engine.backend import BatchSynchronousEngine

    return BatchSynchronousEngine()


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
    engine = _select_backend(backend)
    if engine is not None:
        return engine.run_tree_aa(
            tree,
            inputs,
            t,
            adversary=adversary,
            root=root,
            trace_level=trace_level,
            observer=observer,
            fault_plan=fault_plan,
            t_assumed=t_assumed,
        )
    n = len(inputs)
    party_t = t if t_assumed is None else t_assumed
    execution = run_protocol(
        n,
        t,
        lambda pid: TreeAAParty(pid, n, party_t, tree, inputs[pid], root=root),
        adversary=adversary,
        trace_level=trace_level,
        observer=observer,
        fault_plan=fault_plan,
    )
    honest_inputs = {pid: inputs[pid] for pid in sorted(execution.honest)}
    honest_outputs = execution.honest_outputs
    verdicts = _evaluate_tree_outputs(tree, honest_inputs, honest_outputs)
    return TreeAAOutcome(
        execution=execution,
        tree=tree,
        honest_inputs=honest_inputs,
        honest_outputs=honest_outputs,
        rounds=execution.trace.rounds_executed,
        **verdicts,
    )


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
    engine = _select_backend(backend)
    if engine is not None:
        return engine.run_path_aa(
            tree,
            path,
            inputs,
            t,
            adversary=adversary,
            project=project,
            observer=observer,
            trace_level=trace_level,
            fault_plan=fault_plan,
            t_assumed=t_assumed,
        )
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
    execution = run_protocol(
        n,
        t,
        factory,
        adversary=adversary,
        trace_level=trace_level,
        observer=observer,
        fault_plan=fault_plan,
    )
    honest_inputs = {pid: inputs[pid] for pid in sorted(execution.honest)}
    honest_outputs = execution.honest_outputs
    verdicts = _evaluate_tree_outputs(tree, honest_inputs, honest_outputs)
    return TreeAAOutcome(
        execution=execution,
        tree=tree,
        honest_inputs=honest_inputs,
        honest_outputs=honest_outputs,
        rounds=execution.trace.rounds_executed,
        **verdicts,
    )


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
    engine = _select_backend(backend)
    if engine is not None:
        return engine.run_real_aa(
            inputs,
            t,
            epsilon,
            known_range=known_range,
            iterations=iterations,
            adversary=adversary,
            trace_level=trace_level,
            observer=observer,
            fault_plan=fault_plan,
            t_assumed=t_assumed,
        )
    n = len(inputs)
    if known_range is None and iterations is None:
        known_range = max(inputs) - min(inputs) if n else 0.0
    party_t = t if t_assumed is None else t_assumed
    execution = run_protocol(
        n,
        t,
        lambda pid: RealAAParty(
            pid,
            n,
            party_t,
            inputs[pid],
            epsilon=epsilon,
            known_range=known_range,
            iterations=iterations,
        ),
        adversary=adversary,
        trace_level=trace_level,
        observer=observer,
        fault_plan=fault_plan,
    )
    return real_aa_outcome(
        execution,
        inputs,
        epsilon,
        execution.trace.rounds_executed,
        [
            execution.parties[pid].local_termination_iteration
            for pid in sorted(execution.honest)
            if isinstance(execution.parties[pid], RealAAParty)
        ],
    )


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
    terminated = all(
        isinstance(v, float) for v in honest_outputs.values()
    ) and bool(honest_outputs)
    lo, hi = min(honest_inputs.values()), max(honest_inputs.values())
    valid = terminated and all(
        lo <= v <= hi for v in honest_outputs.values()
    )
    outs = list(honest_outputs.values())
    spread = (max(outs) - min(outs)) if terminated else float("inf")
    measured: Optional[int] = None
    if local_iterations and None not in local_iterations:
        measured = 3 * max(local_iterations)
    return RealAAOutcome(
        execution=execution,
        epsilon=epsilon,
        honest_inputs=honest_inputs,
        honest_outputs=honest_outputs,
        terminated=terminated,
        valid=valid,
        output_spread=spread,
        agreement=terminated and spread <= epsilon,
        rounds=rounds,
        measured_rounds=measured,
    )
