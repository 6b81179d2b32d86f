"""ScenarioSpec: one declarative, versioned description of an execution.

Before this module every layer described "a protocol run" in its own
dialect: the ``run_*`` APIs took Python objects, ``repro sweep`` built
ad-hoc params dicts, and the CLI had spec *strings* for trees and
adversaries.  :class:`ScenarioSpec` is the one shared, JSON-serialisable
form: protocol, tree, ``n``/``t``, adversary, backend, fault plan, trace
level, async scheduler, and seed — everything that determines an
execution, as data.

That single form is what makes "sweep as a service" possible:

* ``spec.run()`` drives the same :func:`repro.core.api.run_tree_aa` /
  ``run_path_aa`` / ``run_real_aa`` entry points callers use directly;
* the registered ``spec-point`` runner executes a spec dict as a grid
  point of :func:`repro.analysis.parallel.run_grid` — specs ride the
  process pool and the version/backend-keyed result cache for free;
* :mod:`repro.service` ships specs over HTTP and shards them across
  workers, deduping against the *same* cache entries a local
  ``repro sweep --spec`` run produces (:func:`spec_cache_key`);
* the resilience lab's campaigns, shrinker, and ``tests/corpus/`` cases
  are specs too, interpreted by :func:`repro.resilience.execute_scenario`
  over the same run path as :meth:`ScenarioSpec.run`.

The serialised form carries ``spec_version`` (currently
:data:`SPEC_VERSION`); :meth:`ScenarioSpec.from_dict` rejects specs
written by a *newer* major version with :class:`SpecVersionError` and
ignores unknown keys, so version-1 readers tolerate forward-compatible
additions.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.faults import FaultPlan
from ..net.network import TraceLevel
from ..trees.grammar import parse_tree_spec
from .parallel import SweepCache, register_runner

#: Version of the ScenarioSpec JSON schema.  Bump on any incompatible
#: change; :meth:`ScenarioSpec.from_dict` rejects newer versions.
SPEC_VERSION = 1

#: The protocol whose specs take a ``scheduler`` and ``max_steps``.
ASYNC_PROTOCOL = "async-real-aa"

#: The iterated safe-area baseline on trees ([33], Nowak–Rybicki), the
#: prior protocol TreeAA is compared against.
BASELINE_PROTOCOL = "tree-aa-baseline"

#: Protocols a spec can describe: the three ``run_*`` entry points plus
#: the two prior-art protocols (reference only).
SPEC_PROTOCOLS = ("real-aa", "path-aa", "tree-aa", ASYNC_PROTOCOL, BASELINE_PROTOCOL)

#: Protocols without a batch implementation: ``backend="batch"`` raises
#: :class:`~repro.engine.errors.UnsupportedBackendError` for them.
REFERENCE_ONLY_PROTOCOLS = (ASYNC_PROTOCOL, BASELINE_PROTOCOL)

#: Protocols whose inputs are real numbers (no tree).
_REAL_PROTOCOLS = ("real-aa", ASYNC_PROTOCOL)

#: Adversary kinds an ``async-real-aa`` spec accepts.
ASYNC_ADVERSARIES = ("none", "passive", "silent", "noise")

#: Scheduler kinds of :func:`build_scheduler` (async specs only).
SCHEDULERS = ("fifo", "random", "split", "delay")

#: Default step budget of an asynchronous execution.
DEFAULT_MAX_STEPS = 20_000

#: Execution backends a spec can select.
SPEC_BACKENDS = ("reference", "batch")

#: ``trace_level`` spellings and the simulator levels they map to.
TRACE_LEVELS = {
    "full": TraceLevel.FULL,
    "aggregate": TraceLevel.AGGREGATE,
}

#: The shared sweep/cache namespace for spec execution.  Every consumer —
#: ``repro sweep --spec``, the scenario service, ad-hoc ``run_grid``
#: calls — must use this name (and the :data:`SPEC_RUNNER` runner) so
#: their cached rows are interchangeable.
SPEC_SWEEP_NAME = "scenario-spec"

#: The registered runner name executing one spec dict as a grid point.
SPEC_RUNNER = "spec-point"

#: Adversary kinds :func:`build_adversary` understands (the superset of
#: the CLI grammar and the resilience lab's synchronous menu).
ADVERSARY_KINDS = (
    "none",
    "silent",
    "passive",
    "noise",
    "crash",
    "chaos",
    "burn",
    "burn-down",
    "asym",
)


class SpecError(ValueError):
    """A ScenarioSpec is malformed (as data, before any execution)."""


class SpecVersionError(SpecError):
    """A spec was serialised by an incompatible (newer) schema version."""

    def __init__(self, found: Any) -> None:
        super().__init__(
            f"spec_version {found!r} is not supported "
            f"(this reader understands versions <= {SPEC_VERSION})"
        )
        self.found = found


def build_adversary(
    spec: str,
    *,
    t: int = 0,
    corrupt: Optional[Sequence[int]] = None,
    seed: int = 0,
    chaos_script: Optional[Sequence[Tuple[int, int, str]]] = None,
    asynchronous: bool = False,
) -> Optional[Any]:
    """Instantiate an adversary from its spec string.

    This is the one shared builder behind ``repro.cli.make_adversary``
    and :meth:`ScenarioSpec.make_adversary`.  Grammar: ``none``,
    ``silent``, ``passive``, ``noise[:SEED]``, ``crash[:ROUND[:PARTIAL_TO]]``,
    ``chaos[:SEED]``, ``burn``, ``burn-down``, ``asym``.  ``corrupt`` pins
    the corrupted set (``None`` lets the strategy choose), ``seed`` is the
    fallback for seeded kinds without an explicit argument, ``t`` sizes
    the burn schedules, and ``chaos_script`` replays a recorded chaos log.
    ``asynchronous=True`` builds the :mod:`repro.asynchrony` counterpart
    instead (only the :data:`ASYNC_ADVERSARIES` kinds exist there).

    Returns ``None`` for ``"none"`` — a genuinely adversary-free run.
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        args = [int(part) for part in parts[1:]]
    except ValueError as exc:
        raise SpecError(f"malformed adversary spec {spec!r}: {exc}") from None
    if kind == "none":
        return None
    if asynchronous:
        from ..asynchrony import (
            AsyncNoiseAdversary,
            AsyncPassiveAdversary,
            AsyncSilentAdversary,
        )

        if kind == "passive":
            return AsyncPassiveAdversary(corrupt=corrupt)
        if kind == "silent":
            return AsyncSilentAdversary(corrupt=corrupt)
        if kind == "noise":
            return AsyncNoiseAdversary(
                seed=args[0] if args else seed, corrupt=corrupt
            )
        raise SpecError(f"unknown async adversary {spec!r}")
    from ..adversary import (
        ChaosAdversary,
        CrashAdversary,
        PassiveAdversary,
        RandomNoiseAdversary,
        SilentAdversary,
    )
    from ..adversary.realaa_attacks import (
        AsymmetricTrustAdversary,
        BurnScheduleAdversary,
    )

    if kind == "silent":
        return SilentAdversary(corrupt=corrupt)
    if kind == "passive":
        return PassiveAdversary(corrupt=corrupt)
    if kind == "noise":
        return RandomNoiseAdversary(seed=args[0] if args else seed, corrupt=corrupt)
    if kind == "crash":
        crash_round = args[0] if args else 1
        partial_to = args[1] if len(args) > 1 else 0
        return CrashAdversary(
            crash_round=crash_round, partial_to=partial_to, corrupt=corrupt
        )
    if kind == "chaos":
        return ChaosAdversary(
            seed=args[0] if args else seed,
            corrupt=corrupt,
            script=chaos_script,
        )
    if kind == "burn":
        return BurnScheduleAdversary([1] * t if t else [], corrupt=corrupt)
    if kind == "burn-down":
        return BurnScheduleAdversary(
            [1] * t if t else [], corrupt=corrupt, direction="down"
        )
    if kind == "asym":
        return AsymmetricTrustAdversary(corrupt=corrupt)
    raise SpecError(f"unknown adversary {spec!r}")


def build_scheduler(spec: Optional[str], *, n: int, seed: int = 0) -> Optional[Any]:
    """Instantiate an async delivery scheduler (``None`` = FIFO).

    Grammar: ``fifo``, ``random[:SEED]``, ``split[:K]`` (parties ``0..K-1``
    against the rest; default ``n // 2``), ``delay[:K]`` (delay the first
    ``K`` senders; default 1).  ``seed`` is the fallback for ``random``.
    """
    if spec is None:
        return None
    from ..asynchrony import (
        DelaySendersScheduler,
        FIFOScheduler,
        RandomScheduler,
        SplitScheduler,
    )

    parts = spec.split(":")
    kind = parts[0]
    arg = int(parts[1]) if len(parts) > 1 else None
    if kind == "fifo":
        return FIFOScheduler()
    if kind == "random":
        return RandomScheduler(arg if arg is not None else seed)
    if kind == "split":
        k = arg if arg is not None else max(1, n // 2)
        return SplitScheduler(group_a=list(range(min(k, n))))
    if kind == "delay":
        k = arg if arg is not None else 1
        return DelaySendersScheduler(list(range(min(k, n))))
    raise SpecError(f"unknown scheduler {spec!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One protocol execution, fully described by JSON-friendly data.

    ``t`` is the *network's* corruption budget (what the adversary may
    control); ``t_assumed`` optionally runs the honest parties at a
    smaller tolerance — the resilience lab's degradation knob.  With
    ``inputs=None`` the inputs are derived deterministically from
    ``seed`` (the sweep engine's worst-case spread pattern), so a spec
    stays a few short fields even for large ``n``.

    ``async-real-aa`` specs describe the asynchronous iterated RealAA
    instead: they add a delivery ``scheduler`` and a ``max_steps``
    budget (both rejected on synchronous specs), accept only the
    :data:`ASYNC_ADVERSARIES`, and run on the reference engine only.
    ``tree-aa-baseline`` specs run the iterated safe-area baseline on the
    same instance a ``tree-aa`` spec describes, also reference only.
    """

    #: One of :data:`SPEC_PROTOCOLS`.
    protocol: str
    #: Party count.
    n: int
    #: The network's corruption budget.
    t: int
    #: Tree spec (:func:`repro.trees.parse_tree_spec` grammar); required
    #: for the tree protocols, ignored by the real-valued ones.
    tree: Optional[str] = None
    #: Explicit per-party inputs (labels / floats), or ``None`` to derive
    #: a worst-case spread deterministically from ``seed``.
    inputs: Optional[Tuple[Any, ...]] = None
    #: Adversary spec string (:func:`build_adversary` grammar).
    adversary: str = "none"
    #: Explicit corrupted set (empty = the adversary's own choice).
    corrupt: Tuple[int, ...] = ()
    #: Execution engine: ``"reference"`` or ``"batch"``.
    backend: str = "reference"
    #: Optional :meth:`repro.net.faults.FaultPlan.to_dict` payload.
    fault_plan: Optional[Dict[str, Any]] = None
    #: ``"full"`` or ``"aggregate"`` (:data:`TRACE_LEVELS`).
    trace_level: str = "full"
    #: Tolerance the honest parties assume (``None`` = ``t``).
    t_assumed: Optional[int] = None
    #: Deterministic seed for derived inputs and seeded adversaries.
    seed: int = 0
    #: ε for ``real-aa``.
    epsilon: float = 0.5
    #: Public input-range bound for ``real-aa`` (``None`` = derived).
    known_range: Optional[float] = None
    #: ``path-aa`` only: run the Section-5 projection variant.
    project: bool = False
    #: Optional chaos replay script (``(round, pid, behaviour)`` triples).
    chaos_script: Optional[Tuple[Tuple[int, int, str], ...]] = None
    #: Record the execution as an embedded JSONL trace (the service's
    #: report/diff endpoints read it back with ``load_run``).
    record: bool = False
    #: ``async-real-aa`` only: :func:`build_scheduler` spec (``None`` = FIFO).
    scheduler: Optional[str] = None
    #: ``async-real-aa`` only: delivery-step budget.
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        """Validate the spec as *data* (no execution, no tree parsing)."""
        if self.protocol not in SPEC_PROTOCOLS:
            raise SpecError(f"unknown protocol {self.protocol!r}")
        if self.n < 1:
            raise SpecError(f"need n >= 1, got {self.n}")
        if self.t < 0:
            raise SpecError(f"need t >= 0, got {self.t}")
        if self.backend not in SPEC_BACKENDS:
            raise SpecError(f"unknown backend {self.backend!r}")
        if self.trace_level not in TRACE_LEVELS:
            raise SpecError(f"unknown trace_level {self.trace_level!r}")
        if self.protocol not in _REAL_PROTOCOLS and not self.tree:
            raise SpecError(f"{self.protocol} specs need a tree spec")
        if self.inputs is not None and len(self.inputs) != self.n:
            raise SpecError(
                f"need exactly n={self.n} inputs, got {len(self.inputs)}"
            )
        if not all(0 <= pid < self.n for pid in self.corrupt):
            raise SpecError(f"corrupt ids {self.corrupt} out of range")
        if len(set(self.corrupt)) != len(self.corrupt):
            raise SpecError(f"duplicate corrupt ids {self.corrupt}")
        kind = self.adversary.split(":")[0]
        if kind not in ADVERSARY_KINDS:
            raise SpecError(f"unknown adversary {self.adversary!r}")
        if self.protocol != ASYNC_PROTOCOL:
            if self.scheduler is not None or self.max_steps != DEFAULT_MAX_STEPS:
                raise SpecError(
                    f"scheduler and max_steps apply to {ASYNC_PROTOCOL} "
                    f"specs only, not {self.protocol}"
                )
            return
        if kind not in ASYNC_ADVERSARIES:
            raise SpecError(
                f"adversary {self.adversary!r} not available for "
                f"{ASYNC_PROTOCOL} specs"
            )
        if self.scheduler is not None and self.scheduler.split(":")[0] not in SCHEDULERS:
            raise SpecError(f"unknown scheduler {self.scheduler!r}")
        if self.max_steps < 1:
            raise SpecError(f"need max_steps >= 1, got {self.max_steps}")
        if self.record:
            raise SpecError(f"{ASYNC_PROTOCOL} specs cannot be recorded")

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON form (round-trips through :meth:`from_dict`).

        Every field is always present (``scheduler``/``max_steps`` on
        async specs only), so two equal specs serialise to identical dicts
        — the property the sweep cache keys rely on.
        """
        payload = {
            "spec_version": SPEC_VERSION,
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "tree": self.tree,
            "inputs": None if self.inputs is None else list(self.inputs),
            "adversary": self.adversary,
            "corrupt": list(self.corrupt),
            "backend": self.backend,
            "fault_plan": (
                None if self.fault_plan is None else dict(self.fault_plan)
            ),
            "trace_level": self.trace_level,
            "t_assumed": self.t_assumed,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "known_range": self.known_range,
            "project": self.project,
            "chaos_script": (
                None
                if self.chaos_script is None
                else [list(entry) for entry in self.chaos_script]
            ),
            "record": self.record,
        }
        if self.protocol == ASYNC_PROTOCOL:
            payload["scheduler"] = self.scheduler
            payload["max_steps"] = self.max_steps
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Forward-compatible by construction: unknown keys are ignored, a
        missing ``spec_version`` means version 1, and only a *newer*
        version than :data:`SPEC_VERSION` is rejected
        (:class:`SpecVersionError`) — so adding optional fields in a
        future minor revision never breaks version-1 readers.
        """
        version = payload.get("spec_version", 1)
        if not isinstance(version, int) or version < 1 or version > SPEC_VERSION:
            raise SpecVersionError(version)
        inputs = payload.get("inputs")
        script = payload.get("chaos_script")
        return cls(
            protocol=str(payload["protocol"]),
            n=int(payload["n"]),
            t=int(payload["t"]),
            tree=payload.get("tree"),
            inputs=None if inputs is None else tuple(inputs),
            adversary=str(payload.get("adversary", "none")),
            corrupt=tuple(int(pid) for pid in payload.get("corrupt", ())),
            backend=str(payload.get("backend", "reference")),
            fault_plan=payload.get("fault_plan"),
            trace_level=str(payload.get("trace_level", "full")),
            t_assumed=payload.get("t_assumed"),
            seed=int(payload.get("seed", 0)),
            epsilon=float(payload.get("epsilon", 0.5)),
            known_range=payload.get("known_range"),
            project=bool(payload.get("project", False)),
            chaos_script=(
                tuple((int(r), int(p), str(b)) for r, p, b in script)
                if script is not None
                else None
            ),
            record=bool(payload.get("record", False)),
            scheduler=payload.get("scheduler"),
            max_steps=int(payload.get("max_steps", DEFAULT_MAX_STEPS)),
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same spec under a different deterministic seed."""
        return replace(self, seed=seed)

    @property
    def assumed_t(self) -> int:
        """The tolerance the honest parties run with (``t_assumed`` or ``t``)."""
        return self.t if self.t_assumed is None else self.t_assumed

    # -- execution -----------------------------------------------------

    def build_tree(self) -> Any:
        """Parse the spec's tree (:func:`repro.trees.parse_tree_spec`)."""
        if not self.tree:
            raise SpecError(f"{self.protocol} specs need a tree spec")
        return parse_tree_spec(self.tree)

    def make_inputs(self, tree: Optional[Any] = None) -> List[Any]:
        """The concrete input vector: explicit inputs, or the seeded
        worst-case spread pattern the sweep engine uses."""
        if self.inputs is not None:
            return list(self.inputs)
        rng = random.Random(self.seed)
        if self.protocol in _REAL_PROTOCOLS:
            spread = self.known_range if self.known_range is not None else 8.0
            values = [0.0 if i % 2 == 0 else float(spread) for i in range(self.n)]
            rng.shuffle(values)
            return values
        if tree is None:
            tree = self.build_tree()
        if self.protocol == "path-aa" and not self.project:
            # Section-4 inputs must lie on the commonly known path.
            from ..trees.paths import diameter_path

            vertices = diameter_path(tree).canonical().vertices
            picks: List[Any] = [vertices[0], vertices[-1]][: self.n]
            while len(picks) < self.n:
                picks.append(rng.choice(vertices))
            rng.shuffle(picks)
            return picks
        from .sweep import spread_inputs

        return spread_inputs(tree, self.n, rng)

    def make_adversary(self) -> Optional[Any]:
        """Instantiate the spec's adversary (:func:`build_adversary`)."""
        return build_adversary(
            self.adversary,
            t=self.t,
            corrupt=self.corrupt or None,
            seed=self.seed,
            chaos_script=self.chaos_script,
            asynchronous=self.protocol == ASYNC_PROTOCOL,
        )

    def make_fault_plan(self) -> Optional[FaultPlan]:
        """Deserialise the spec's fault plan, if any."""
        if self.fault_plan is None:
            return None
        return FaultPlan.from_dict(self.fault_plan)

    def run(self, observer: Optional[Any] = None) -> Any:
        """Execute the spec through the shared ``run_*`` entry points.

        Returns the protocol's outcome object
        (:class:`~repro.core.api.TreeAAOutcome` or
        :class:`~repro.core.api.RealAAOutcome`; async specs report
        delivery steps as ``rounds``).  ``observer`` is forwarded
        verbatim, exactly as for direct API calls.  Async specs take no
        observer.  ``backend="batch"`` raises
        :class:`~repro.engine.errors.UnsupportedBackendError` for the
        :data:`REFERENCE_ONLY_PROTOCOLS`.
        """
        return run_with_adversary(self, self.make_adversary(), observer)


def run_with_adversary(
    spec: ScenarioSpec, adversary: Optional[Any], observer: Optional[Any] = None
) -> Any:
    """:meth:`ScenarioSpec.run` with an already-built adversary.

    The resilience executor builds the adversary itself so it can read
    the chaos behaviour log after the run; everything else about the
    execution is this one code path.
    """
    from ..core.api import run_path_aa, run_real_aa, run_tree_aa, tree_aa_outcome

    if spec.backend != "reference" and spec.protocol in REFERENCE_ONLY_PROTOCOLS:
        from ..engine.errors import UnsupportedBackendError

        raise UnsupportedBackendError(
            f"{spec.protocol} specs have no batch equivalent; "
            "use backend='reference'"
        )
    fault_plan = spec.make_fault_plan()
    trace_level = TRACE_LEVELS[spec.trace_level]
    if spec.protocol == ASYNC_PROTOCOL:
        return _run_async(spec, adversary, fault_plan, observer)
    if spec.protocol == "real-aa":
        return run_real_aa(
            [float(v) for v in spec.make_inputs()],
            spec.t,
            epsilon=spec.epsilon,
            known_range=spec.known_range,
            adversary=adversary,
            trace_level=trace_level,
            observer=observer,
            fault_plan=fault_plan,
            t_assumed=spec.t_assumed,
            backend=spec.backend,
        )
    tree = spec.build_tree()
    inputs = spec.make_inputs(tree)
    if spec.protocol == "path-aa":
        from ..trees.paths import diameter_path

        return run_path_aa(
            tree,
            diameter_path(tree),
            inputs,
            spec.t,
            adversary=adversary,
            project=spec.project,
            trace_level=trace_level,
            observer=observer,
            fault_plan=fault_plan,
            t_assumed=spec.t_assumed,
            backend=spec.backend,
        )
    if spec.protocol == BASELINE_PROTOCOL:
        from ..baselines import IterativeTreeAAParty
        from ..net.runner import run_protocol

        execution = run_protocol(
            spec.n,
            spec.t,
            lambda pid: IterativeTreeAAParty(
                pid, spec.n, spec.assumed_t, tree, inputs[pid]
            ),
            adversary=adversary,
            trace_level=trace_level,
            observer=observer,
            fault_plan=fault_plan,
        )
        return tree_aa_outcome(execution, tree, inputs)
    return run_tree_aa(
        tree,
        inputs,
        spec.t,
        adversary=adversary,
        trace_level=trace_level,
        observer=observer,
        fault_plan=fault_plan,
        t_assumed=spec.t_assumed,
        backend=spec.backend,
    )


def _run_async(
    spec: ScenarioSpec,
    adversary: Optional[Any],
    fault_plan: Optional[FaultPlan],
    observer: Optional[Any],
) -> Any:
    """Run an ``async-real-aa`` spec on the asynchronous network."""
    from ..asynchrony import AsyncRealAAParty, run_async_protocol
    from ..core.api import real_aa_outcome

    if observer is not None:
        raise SpecError(f"{ASYNC_PROTOCOL} specs take no observer")
    inputs = [float(v) for v in spec.make_inputs()]
    known_range = effective_known_range(spec, inputs)
    execution = run_async_protocol(
        spec.n,
        spec.t,
        lambda pid: AsyncRealAAParty(
            pid,
            spec.n,
            spec.assumed_t,
            inputs[pid],
            epsilon=spec.epsilon,
            known_range=max(known_range, spec.epsilon),
        ),
        adversary=adversary,
        scheduler=build_scheduler(spec.scheduler, n=spec.n, seed=spec.seed),
        max_steps=spec.max_steps,
        fault_plan=fault_plan,
    )
    return real_aa_outcome(execution, inputs, spec.epsilon, execution.trace.steps)


def effective_known_range(spec: ScenarioSpec, inputs: Sequence[float]) -> float:
    """``known_range``, or the spread of the real inputs when it is unset
    (the same default :func:`repro.core.api.run_real_aa` applies)."""
    if spec.known_range is not None:
        return float(spec.known_range)
    return (max(inputs) - min(inputs)) if inputs else 0.0


def run_spec(spec: ScenarioSpec) -> Any:
    """Execute a spec (function form of :meth:`ScenarioSpec.run`)."""
    return spec.run()


def spec_cache_key(spec: ScenarioSpec) -> Dict[str, Any]:
    """The sweep-cache key of one spec execution.

    Identical to the key :func:`repro.analysis.parallel.run_grid` builds
    for a ``spec-point`` grid point under :data:`SPEC_SWEEP_NAME` — the
    spec's backend travels *inside* the params, so local sweeps, the
    scenario service, and direct ``run_grid`` calls all dedupe against
    the same entries.
    """
    return SweepCache.key(SPEC_SWEEP_NAME, SPEC_RUNNER, spec.to_dict(), spec.seed)


def _spec_row(spec: ScenarioSpec, outcome: Any) -> Dict[str, Any]:
    """The JSON result row of one executed spec (sans trace)."""
    row: Dict[str, Any] = {
        "spec": spec.to_dict(),
        "protocol": spec.protocol,
        "n": spec.n,
        "t": spec.t,
        "backend": spec.backend,
        "adversary": spec.adversary.split(":")[0],
        "rounds": outcome.rounds,
        "ok": outcome.achieved_aa,
        "verdicts": {
            "terminated": outcome.terminated,
            "valid": outcome.valid,
            "agreement": outcome.agreement,
        },
    }
    if spec.protocol in _REAL_PROTOCOLS:
        row["verdicts"]["output_spread"] = outcome.output_spread
    else:
        row["verdicts"]["output_diameter"] = outcome.output_diameter
    return row


def execute_spec_point(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute one spec and return its JSON result row.

    With ``record=True`` the row additionally embeds the run's JSONL
    trace under ``"trace_jsonl"`` (written by
    :func:`repro.observability.export_run`), so cached rows carry
    everything the service's report/diff endpoints serve.
    """
    from ..observability import MetricsCollector, export_run

    if not spec.record:
        return _spec_row(spec, spec.run())
    tree = None if spec.protocol == "real-aa" else spec.build_tree()
    collector = MetricsCollector(tree=tree)
    outcome = spec.run(observer=collector)
    row = _spec_row(spec, outcome)
    buffer = io.StringIO()
    export_run(
        buffer,
        collector,
        outcome.execution,
        protocol=spec.protocol,
        params={"spec": spec.to_dict()},
        tree=tree,
        inputs=spec.make_inputs(tree),
        verdicts=row["verdicts"],
        t=spec.t,
    )
    row["trace_jsonl"] = buffer.getvalue()
    return row


@register_runner(SPEC_RUNNER)
def spec_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One ScenarioSpec grid point: the params dict *is* the spec.

    The engine-derived ``seed`` equals the spec's own ``seed`` field
    (specs always carry one), so a row replays bit-identically from its
    JSON alone — the engine's ``base_seed`` never perturbs spec points.
    """
    return execute_spec_point(ScenarioSpec.from_dict(params))
