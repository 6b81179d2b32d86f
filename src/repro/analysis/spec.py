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
* campaign and flywheel points, the shrinker, and ``tests/corpus/`` cases
  are specs too, interpreted by :func:`repro.resilience.run_scenario`
  over the same run path as :func:`execute_spec_point`.

The serialised form carries ``spec_version`` (currently
:data:`SPEC_VERSION`); :meth:`ScenarioSpec.from_dict` rejects specs
written by a *newer* major version with :class:`SpecVersionError` and
ignores unknown keys, so version-1 readers tolerate forward-compatible
additions.
"""

from __future__ import annotations

import functools
import importlib
import io
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.api import default_known_range, real_aa_outcome, run_path_aa, run_real_aa, run_tree_aa
from ..net.faults import FaultPlan
from ..net.network import TraceLevel
from ..protocols.realaa import is_real
from ..protocols.rounds import ROUNDS_PER_ITERATION, realaa_duration, tree_aa_round_bound
from ..trees.grammar import parse_tree_spec
from ..trees.paths import diameter, diameter_path
from .parallel import SweepCache, register_runner

#: Version of the ScenarioSpec JSON schema.  Bump on any incompatible
#: change; :meth:`ScenarioSpec.from_dict` rejects newer versions.
SPEC_VERSION = 1

#: The protocol whose specs take a ``scheduler`` and ``max_steps``.
ASYNC_PROTOCOL = "async-real-aa"

#: The iterated safe-area baseline on trees ([33], Nowak–Rybicki), the
#: prior protocol TreeAA is compared against.
BASELINE_PROTOCOL = "tree-aa-baseline"

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

class SpecError(ValueError):
    """A ScenarioSpec is malformed (as data, before any execution)."""


#: How many grammar-built trees :meth:`ScenarioSpec.build_tree` keeps.
_TREE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def _grammar_tree(tree: str) -> Any:
    """A grammar tree, parsed once per process: trees are immutable, so the
    executions of one point share it and its diameter memo.  A malformed
    string raises on every call (failures are not cached)."""
    return parse_tree_spec(tree)


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
    and :meth:`ScenarioSpec.make_adversary`: it calls the spec's row of
    :data:`ADVERSARIES`.  ``corrupt`` pins the corrupted set (``None``
    lets the strategy choose), ``seed`` is the fallback for seeded kinds
    without an explicit argument, ``t`` sizes the burn schedules, and
    ``chaos_script`` replays a recorded chaos log.  ``asynchronous=True``
    calls the row's ``build_async`` instead.

    Returns ``None`` for ``"none"`` — a genuinely adversary-free run.
    """
    _, row, args = parse_kind(ADVERSARIES, "adversary", spec)
    build = row.build_async if asynchronous else row.build
    if build is None:
        raise SpecError(f"unknown async adversary {spec!r}")
    context = _Context(t=t, corrupt=corrupt, seed=seed, chaos_script=chaos_script)
    return row.call(build, args, context)


def build_scheduler(spec: Optional[str], *, n: int, seed: int = 0) -> Optional[Any]:
    """Instantiate an async delivery scheduler (``None`` = FIFO); the
    grammar is :data:`SCHEDULERS`, and ``seed`` is the fallback for
    ``random``."""
    if spec is None:
        return None
    _, row, args = parse_kind(SCHEDULERS, "scheduler", spec)
    return row.call(row.build, args, _Context(n=n, seed=seed))


@dataclass(frozen=True)
class ScenarioSpec:
    """One protocol execution, fully described by JSON-friendly data.

    ``t`` is the *network's* corruption budget (what the adversary may
    control); ``t_assumed`` optionally runs the honest parties at a
    smaller tolerance — the resilience lab's degradation knob.  With
    ``inputs=None`` the inputs are derived deterministically from
    ``seed`` (the sweep engine's worst-case spread pattern), so a spec
    stays a few short fields even for large ``n``.

    What each ``protocol`` is (its inputs, runner, round budget, batch
    support and the fields only it reads) is its row of :data:`PROTOCOLS`;
    each adversary and scheduler kind is a row of :data:`ADVERSARIES` or
    :data:`SCHEDULERS`.
    """

    #: A key of :data:`PROTOCOLS`.
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
    #: Adversary spec string: a key of :data:`ADVERSARIES` with its arguments.
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
    #: ``chaos`` adversaries only: a replay script (``(round, pid,
    #: behaviour)`` triples).
    chaos_script: Optional[Tuple[Tuple[int, int, str], ...]] = None
    #: Record the execution as an embedded JSONL trace (the service's
    #: report/diff endpoints read it back with ``load_run``).
    record: bool = False
    #: ``async-real-aa`` only: a :data:`SCHEDULERS` spec (``None`` = FIFO).
    scheduler: Optional[str] = None
    #: ``async-real-aa`` only: delivery-step budget.
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        """Validate the spec as *data* (no execution, no tree parsing)."""
        entry = PROTOCOLS.get(self.protocol)
        if entry is None:
            raise SpecError(f"unknown protocol {self.protocol!r}")
        if self.n < 1:
            raise SpecError(f"need n >= 1, got {self.n}")
        if self.t < 0:
            raise SpecError(f"need t >= 0, got {self.t}")
        if self.t_assumed is not None and self.t_assumed < 0:
            raise SpecError(f"need t_assumed >= 0, got {self.t_assumed}")
        if not is_real(self.epsilon) or self.epsilon <= 0:
            raise SpecError(f"need a finite epsilon > 0, got {self.epsilon!r}")
        if self.known_range is not None and (
            not is_real(self.known_range) or self.known_range < 0
        ):
            raise SpecError(
                f"need a finite known_range >= 0, got {self.known_range!r}"
            )
        if self.backend not in SPEC_BACKENDS:
            raise SpecError(f"unknown backend {self.backend!r}")
        if self.trace_level not in TRACE_LEVELS:
            raise SpecError(f"unknown trace_level {self.trace_level!r}")
        if entry.on_tree and not self.tree:
            raise SpecError(f"{self.protocol} specs need a tree spec")
        if self.inputs is not None and len(self.inputs) != self.n:
            raise SpecError(
                f"need exactly n={self.n} inputs, got {len(self.inputs)}"
            )
        if not all(0 <= pid < self.n for pid in self.corrupt):
            raise SpecError(f"corrupt ids {self.corrupt} out of range")
        if len(set(self.corrupt)) != len(self.corrupt):
            raise SpecError(f"duplicate corrupt ids {self.corrupt}")
        _, adversary, _ = parse_kind(ADVERSARIES, "adversary", self.adversary)
        for name, (attribute, owner, what) in _FIELD_OWNERS.items():
            holder = getattr(self, attribute)
            # A dataclass keeps each field's default as a class attribute.
            if owner != holder and getattr(self, name) != getattr(ScenarioSpec, name):
                raise SpecError(f"{name} applies to {owner} {what} only, not {holder}")
        if not entry.asynchronous:
            return
        if adversary.build_async is None:
            raise SpecError(
                f"adversary {self.adversary!r} not available for "
                f"{self.protocol} specs"
            )
        if self.scheduler is not None:
            parse_kind(SCHEDULERS, "scheduler", self.scheduler)
        if self.max_steps < 1:
            raise SpecError(f"need max_steps >= 1, got {self.max_steps}")
        if self.record:
            raise SpecError(f"{self.protocol} specs cannot be recorded")

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON form (round-trips through :meth:`from_dict`).

        Every field is always present, except the fields another protocol
        owns (``project`` predates that rule and is always written), so two
        equal specs serialise to identical dicts — the property the sweep
        cache keys rely on.
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
        for name in self.entry.owns:
            payload[name] = getattr(self, name)
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
    def entry(self) -> "SpecProtocol":
        """This spec's row of the protocol table (:data:`PROTOCOLS`)."""
        return PROTOCOLS[self.protocol]

    @property
    def adversary_kind(self) -> str:
        """The kind of the spec's adversary: a key of :data:`ADVERSARIES`."""
        return self.adversary.split(":")[0]

    @property
    def assumed_t(self) -> int:
        """The tolerance the honest parties run with (``t_assumed`` or ``t``)."""
        return self.t if self.t_assumed is None else self.t_assumed

    # -- execution -----------------------------------------------------

    def build_tree(self) -> Any:
        """The spec's tree (:func:`repro.trees.parse_tree_spec`); grammar
        trees come from a bounded per-process cache, ``@file`` trees are
        read anew on every call."""
        if not self.tree:
            raise SpecError(f"{self.protocol} specs need a tree spec")
        if self.tree.startswith("@"):
            return parse_tree_spec(self.tree)
        return _grammar_tree(self.tree)

    def make_inputs(self) -> List[Any]:
        """The concrete input vector: explicit inputs, or the seeded
        worst-case spread pattern the sweep engine uses."""
        if self.inputs is not None:
            return list(self.inputs)
        return self.entry.draw_inputs(self, random.Random(self.seed))

    def make_adversary(self) -> Optional[Any]:
        """Instantiate the spec's adversary (:func:`build_adversary`)."""
        return build_adversary(
            self.adversary,
            t=self.t,
            corrupt=self.corrupt or None,
            seed=self.seed,
            chaos_script=self.chaos_script,
            asynchronous=self.entry.asynchronous,
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
        protocols without a batch engine (:attr:`SpecProtocol.batch`).
        """
        return run_with_adversary(self, self.make_adversary(), observer)


# ----------------------------------------------------------------------
# The protocol table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpecProtocol:
    """What one spec protocol is: its row of :data:`PROTOCOLS`, which every
    layer reads instead of comparing protocol names."""

    #: Inputs are tree vertices: the spec needs a tree, ``judge_tree``
    #: judges it and its row reports ``output_diameter`` (else reals,
    #: ``judge_real``, ``output_spread``).
    on_tree: bool
    #: A batch engine exists (else ``backend="batch"`` raises).
    batch: bool
    #: ``run(spec, *, adversary, trace_level, observer, fault_plan)``.
    run: Callable[..., Any]
    #: The most rounds (async: delivery steps) a run of the spec may take.
    budget: Callable[[ScenarioSpec], int]
    #: The seed-derived inputs of a spec without explicit ones.
    draw_inputs: Callable[[ScenarioSpec, random.Random], List[Any]]
    #: Spec fields only this protocol reads (others keep the defaults).
    owns: Tuple[str, ...] = ()
    #: Runs on the asynchronous network (async adversaries, never recorded).
    asynchronous: bool = False
    #: ``repro campaign`` samples it (its inputs may be any vertex or real).
    campaign: bool = False
    #: What the flywheel's ``cross-protocol`` oracle re-runs its instances as.
    compared_with: Optional[str] = None


def _spread_reals(spec: ScenarioSpec, rng: random.Random) -> List[Any]:
    """Alternating 0 and the spread (``known_range``, else 8), shuffled."""
    spread = spec.known_range if spec.known_range is not None else 8.0
    values = [0.0 if i % 2 == 0 else float(spread) for i in range(spec.n)]
    rng.shuffle(values)
    return values


def _spread_vertices(spec: ScenarioSpec, rng: random.Random) -> List[Any]:
    """The sweep engine's worst-case spread over the spec's tree."""
    from .sweep import spread_inputs

    return spread_inputs(spec.build_tree(), spec.n, rng)


def _path_vertices(spec: ScenarioSpec, rng: random.Random) -> List[Any]:
    """Section-4 inputs lie on the commonly known path; Section 5
    projects any vertex."""
    if spec.project:
        return _spread_vertices(spec, rng)
    vertices = diameter_path(spec.build_tree()).canonical().vertices
    picks: List[Any] = [vertices[0], vertices[-1]][: spec.n]
    while len(picks) < spec.n:
        picks.append(rng.choice(vertices))
    rng.shuffle(picks)
    return picks


def _run_real_aa(spec: ScenarioSpec, **options: Any) -> Any:
    return run_real_aa(
        [float(v) for v in spec.make_inputs()],
        spec.t,
        epsilon=spec.epsilon,
        known_range=spec.known_range,
        t_assumed=spec.t_assumed,
        backend=spec.backend,
        **options,
    )


def _run_path_aa(spec: ScenarioSpec, **options: Any) -> Any:
    tree = spec.build_tree()
    inputs = spec.make_inputs()
    return run_path_aa(
        tree,
        diameter_path(tree),
        inputs,
        spec.t,
        project=spec.project,
        t_assumed=spec.t_assumed,
        backend=spec.backend,
        **options,
    )


def _run_tree_aa(spec: ScenarioSpec, **options: Any) -> Any:
    tree = spec.build_tree()
    inputs = spec.make_inputs()
    return run_tree_aa(
        tree,
        inputs,
        spec.t,
        t_assumed=spec.t_assumed,
        backend=spec.backend,
        **options,
    )


def _run_baseline(spec: ScenarioSpec, **options: Any) -> Any:
    """The iterated safe-area parties on the simulator, judged as TreeAA."""
    from ..baselines import IterativeTreeAAParty
    from ..core.api import tree_aa_outcome
    from ..net.runner import run_protocol

    tree = spec.build_tree()
    inputs = spec.make_inputs()
    execution = run_protocol(
        spec.n,
        spec.t,
        lambda pid: IterativeTreeAAParty(
            pid, spec.n, spec.assumed_t, tree, inputs[pid]
        ),
        **options,
    )
    return tree_aa_outcome(execution, tree, inputs)


def _run_async(
    spec: ScenarioSpec,
    *,
    adversary: Optional[Any],
    trace_level: TraceLevel,
    observer: Optional[Any],
    fault_plan: Optional[FaultPlan],
) -> Any:
    """Run an ``async-real-aa`` spec on the asynchronous network, which
    has no trace levels or observers."""
    from ..asynchrony import AsyncRealAAParty, run_async_protocol

    if observer is not None:
        raise SpecError(f"{spec.protocol} specs take no observer")
    inputs = [float(v) for v in spec.make_inputs()]
    known_range = _known_range(spec, inputs)
    execution = run_async_protocol(
        spec.n,
        spec.t,
        lambda pid: AsyncRealAAParty(
            pid,
            spec.n,
            spec.assumed_t,
            inputs[pid],
            epsilon=spec.epsilon,
            known_range=known_range,
        ),
        adversary=adversary,
        scheduler=build_scheduler(spec.scheduler, n=spec.n, seed=spec.seed),
        max_steps=spec.max_steps,
        fault_plan=fault_plan,
    )
    return real_aa_outcome(execution, inputs, spec.epsilon, execution.trace.steps)


def _known_range(spec: ScenarioSpec, inputs: Sequence[float]) -> float:
    """The range bound a real run works with: ``known_range``, else
    :func:`repro.core.api.run_real_aa`'s default for the inputs, and at
    least ε."""
    known = spec.known_range if spec.known_range is not None else default_known_range(inputs)
    return max(float(known), spec.epsilon)


def _real_aa_budget(spec: ScenarioSpec) -> int:
    """Theorem 3 at the effective known range."""
    inputs = [float(v) for v in spec.make_inputs()]
    return realaa_duration(_known_range(spec, inputs), spec.epsilon, spec.n, spec.assumed_t)


def _path_aa_budget(spec: ScenarioSpec) -> int:
    """RealAA over the path's positions with ε = 1."""
    return realaa_duration(max(diameter(spec.build_tree()), 1), 1, spec.n, spec.assumed_t)


def _tree_aa_budget(spec: ScenarioSpec) -> int:
    """Theorem 4."""
    tree = spec.build_tree()
    return tree_aa_round_bound(tree.n_vertices, diameter(tree))


def _baseline_budget(spec: ScenarioSpec) -> int:
    """The halving baseline's ``O(log D)`` iterations."""
    from ..baselines.iterative_tree import tree_halving_iterations

    return ROUNDS_PER_ITERATION * tree_halving_iterations(diameter(spec.build_tree()))


#: The protocol table: one row per protocol a spec can describe — the
#: three ``run_*`` entry points, the asynchronous iterated RealAA and the
#: Nowak–Rybicki baseline.  Adding a protocol is adding a row.
PROTOCOLS: Dict[str, SpecProtocol] = {
    "real-aa": SpecProtocol(
        on_tree=False, batch=True, run=_run_real_aa, budget=_real_aa_budget,
        draw_inputs=_spread_reals, campaign=True,
    ),
    "path-aa": SpecProtocol(
        on_tree=True, batch=True, run=_run_path_aa, budget=_path_aa_budget,
        draw_inputs=_path_vertices, owns=("project",),
    ),
    "tree-aa": SpecProtocol(
        on_tree=True, batch=True, run=_run_tree_aa, budget=_tree_aa_budget,
        draw_inputs=_spread_vertices, campaign=True, compared_with=BASELINE_PROTOCOL,
    ),
    ASYNC_PROTOCOL: SpecProtocol(
        on_tree=False, batch=False, run=_run_async, budget=lambda spec: spec.max_steps,
        draw_inputs=_spread_reals, owns=("scheduler", "max_steps"), asynchronous=True,
        campaign=True,
    ),
    BASELINE_PROTOCOL: SpecProtocol(
        on_tree=True, batch=False, run=_run_baseline, budget=_baseline_budget,
        draw_inputs=_spread_vertices,
    ),
}


# ----------------------------------------------------------------------
# The adversary and scheduler tables
# ----------------------------------------------------------------------


class _Context(NamedTuple):
    """What a grammar row's builder reads besides its own arguments."""

    n: int = 0
    t: int = 0
    corrupt: Optional[Sequence[int]] = None
    seed: int = 0
    chaos_script: Optional[Sequence[Tuple[int, int, str]]] = None


@dataclass(frozen=True)
class GrammarKind:
    """What one adversary or scheduler kind is: its row of
    :data:`ADVERSARIES` or :data:`SCHEDULERS`, which every layer reads
    instead of comparing kind names.  A spec string is the kind's name
    followed by up to ``len(args)`` integers: ``KIND[:ARG[:ARG]]``."""

    #: ``build(context, *args)``: the synchronous adversary, or the scheduler.
    build: Callable[..., Any]
    #: The integer arguments, by name, with their defaults: an int, or a
    #: function of the :class:`_Context` (the spec's seed, its ``n``).
    args: Tuple[Tuple[str, Any], ...] = ()
    #: The :mod:`repro.asynchrony` adversary (``None``: synchronous only).
    build_async: Optional[Callable[..., Any]] = None
    #: Spec fields only this kind reads (others keep the defaults).
    owns: Tuple[str, ...] = ()
    #: The flywheel stream's and campaigns' seeded argument draw, ``(rng, n)``.
    draw: Callable[[random.Random, int], Tuple[int, ...]] = lambda rng, n: ()
    #: The kind controls the parties of a spec's ``corrupt`` set.
    corrupts: bool = True
    #: ``repro campaign`` samples it (adversaries only).
    campaign: bool = False
    #: Its arguments are rounds, party counts or party ids: never negative.
    unsigned: bool = False

    def usage(self, kind: str) -> str:
        """The kind's grammar, e.g. ``crash[:ROUND[:PARTIAL_TO]]``."""
        return kind + "".join(f"[:{name}" for name, _ in self.args) + "]" * len(self.args)

    def spell(self, kind: str, rng: random.Random, n: int) -> str:
        """A spec string of the kind with seeded arguments (:attr:`draw`)."""
        return ":".join((kind, *map(str, self.draw(rng, n))))

    def call(self, build: Callable[..., Any], args: Tuple[int, ...], context: _Context) -> Any:
        """``build`` on *args*, the missing trailing ones at their defaults."""
        defaults = (d(context) if callable(d) else d for _, d in self.args[len(args):])
        return build(context, *args, *defaults)


def parse_kind(
    table: Dict[str, GrammarKind], what: str, text: str
) -> Tuple[str, GrammarKind, Tuple[int, ...]]:
    """``(kind, row, args)`` of a spec string, validated as data: an
    unknown kind, an extra argument, one that is not a canonical integer
    (``07``, ``+7``, ``7_0``) or a negative one of an :attr:`~GrammarKind
    .unsigned` row is a :class:`SpecError`."""
    kind, *parts = text.split(":")
    row = table.get(kind)
    if row is None:
        raise SpecError(f"unknown {what} {text!r}")
    try:
        args = tuple(int(part) for part in parts)
        if (
            list(map(str, args)) == parts
            and len(args) <= len(row.args)
            and not (row.unsigned and any(arg < 0 for arg in args))
        ):
            return kind, row, args
    except ValueError:
        pass
    raise SpecError(f"malformed {what} spec {text!r}: expected {row.usage(kind)}")


def _module(name: str) -> Any:
    """A ``repro`` module of adversaries or schedulers, imported on first build."""
    return importlib.import_module(f"..{name}", __package__)


def _strategy(module: str, name: str) -> Callable[..., Any]:
    """A builder of ``repro.<module>.<name>``: the row's arguments by
    position, the spec's corrupted set by keyword."""
    return lambda c, *args: getattr(_module(module), name)(*args, corrupt=c.corrupt)


def _burn(direction: str) -> Callable[..., Any]:
    """A builder of the burn attack: one burner in each of ``t`` iterations."""
    return lambda c: _module("adversary.realaa_attacks").BurnScheduleAdversary(
        [1] * c.t, corrupt=c.corrupt, direction=direction
    )


def _draw_seed(rng: random.Random, n: int) -> Tuple[int, ...]:
    return (rng.randint(0, 9999),)


#: A seed argument, defaulting to the spec's ``seed``.
_SEED = ("SEED", lambda context: context.seed)

#: The adversary table: one row per kind an ``adversary`` spec string
#: names.  Adding a kind is adding a row.
ADVERSARIES: Dict[str, GrammarKind] = {
    "none": GrammarKind(
        build=lambda c: None, build_async=lambda c: None, corrupts=False, campaign=True
    ),
    "silent": GrammarKind(
        build=_strategy("adversary", "SilentAdversary"),
        build_async=_strategy("asynchrony", "AsyncSilentAdversary"),
        campaign=True,
    ),
    "passive": GrammarKind(
        build=_strategy("adversary", "PassiveAdversary"),
        build_async=_strategy("asynchrony", "AsyncPassiveAdversary"),
        campaign=True,
    ),
    "noise": GrammarKind(
        args=(_SEED,),
        build=_strategy("adversary", "RandomNoiseAdversary"),
        build_async=_strategy("asynchrony", "AsyncNoiseAdversary"),
        draw=_draw_seed,
        campaign=True,
    ),
    "crash": GrammarKind(
        args=(("ROUND", 1), ("PARTIAL_TO", 0)),
        build=_strategy("adversary", "CrashAdversary"),
        draw=lambda rng, n: (rng.randint(0, 4), rng.randint(0, 4)),
        campaign=True,
        unsigned=True,
    ),
    "chaos": GrammarKind(
        args=(_SEED,),
        build=lambda c, seed: _module("adversary").ChaosAdversary(
            seed, corrupt=c.corrupt, script=c.chaos_script
        ),
        owns=("chaos_script",),
        draw=_draw_seed,
        campaign=True,
    ),
    "burn": GrammarKind(build=_burn("up")),
    "burn-down": GrammarKind(build=_burn("down")),
    "asym": GrammarKind(build=_strategy("adversary.realaa_attacks", "AsymmetricTrustAdversary")),
}

#: The scheduler table: one row per kind an ``async-real-aa`` spec's
#: ``scheduler`` names (``split``: parties ``0..K-1`` against the rest;
#: ``delay``: hold back the first ``K`` senders).
SCHEDULERS: Dict[str, GrammarKind] = {
    "fifo": GrammarKind(build=lambda c: _module("asynchrony").FIFOScheduler()),
    "random": GrammarKind(
        args=(_SEED,),
        build=lambda c, seed: _module("asynchrony").RandomScheduler(seed),
        draw=_draw_seed,
    ),
    "split": GrammarKind(
        args=(("K", lambda c: max(1, c.n // 2)),),
        build=lambda c, k: _module("asynchrony").SplitScheduler(list(range(min(k, c.n)))),
        draw=lambda rng, n: (rng.randint(1, max(1, n - 1)),),
        unsigned=True,
    ),
    "delay": GrammarKind(
        args=(("K", 1),),
        build=lambda c, k: _module("asynchrony").DelaySendersScheduler(list(range(min(k, c.n)))),
        draw=lambda rng, n: (rng.randint(1, max(1, n // 2)),),
        unsigned=True,
    ),
}

#: Each owned spec field: the spec attribute naming its owner, the owner
#: (a protocol or an adversary kind), and what the owner is.
_FIELD_OWNERS = {
    **{f: ("protocol", name, "specs") for name, row in PROTOCOLS.items() for f in row.owns},
    **{f: ("adversary_kind", k, "adversaries") for k, row in ADVERSARIES.items() for f in row.owns},
}


def run_with_adversary(
    spec: ScenarioSpec, adversary: Optional[Any], observer: Optional[Any] = None
) -> Any:
    """:meth:`ScenarioSpec.run` with an already-built adversary.

    The resilience executor (via :func:`run_spec_point`) builds the
    adversary itself so it can read the chaos behaviour log after the
    run; everything else about the execution is this one code path.
    """
    entry = spec.entry
    if spec.backend != "reference" and not entry.batch:
        from ..engine.errors import UnsupportedBackendError

        raise UnsupportedBackendError(
            f"{spec.protocol} specs have no batch equivalent; use backend='reference'"
        )
    return entry.run(
        spec,
        adversary=adversary,
        trace_level=TRACE_LEVELS[spec.trace_level],
        observer=observer,
        fault_plan=spec.make_fault_plan(),
    )


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
        "adversary": spec.adversary_kind,
        "rounds": outcome.rounds,
        "ok": outcome.achieved_aa,
        "verdicts": {
            "terminated": outcome.terminated,
            "valid": outcome.valid,
            "agreement": outcome.agreement,
        },
    }
    if spec.entry.on_tree:
        row["verdicts"]["output_diameter"] = outcome.output_diameter
    else:
        row["verdicts"]["output_spread"] = outcome.output_spread
    return row


def execute_spec_point(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute one spec and return its JSON result row.

    With ``record=True`` the row additionally embeds the run's JSONL
    trace under ``"trace_jsonl"`` (written by
    :func:`repro.observability.export_run`), so cached rows carry
    everything the service's report/diff endpoints serve.
    """
    return run_spec_point(spec, spec.make_adversary())[1]


def run_spec_point(spec: ScenarioSpec, adversary: Optional[Any]) -> Tuple[Any, Dict[str, Any]]:
    """:func:`execute_spec_point` with an already-built adversary.

    Returns the protocol outcome next to the row, so a caller that
    judges the execution itself (the resilience executor) runs it once.
    """
    from ..observability import MetricsCollector, export_run

    if not spec.record:
        outcome = run_with_adversary(spec, adversary)
        return outcome, _spec_row(spec, outcome)
    tree = spec.build_tree() if spec.entry.on_tree else None
    collector = MetricsCollector(tree=tree)
    outcome = run_with_adversary(spec, adversary, collector)
    row = _spec_row(spec, outcome)
    buffer = io.StringIO()
    export_run(
        buffer,
        collector,
        outcome.execution,
        protocol=spec.protocol,
        params={"spec": spec.to_dict()},
        tree=tree,
        inputs=spec.make_inputs(),
        verdicts=row["verdicts"],
        t=spec.t,
    )
    row["trace_jsonl"] = buffer.getvalue()
    return outcome, row


@register_runner(SPEC_RUNNER)
def spec_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One ScenarioSpec grid point: the params dict *is* the spec.

    The engine-derived ``seed`` equals the spec's own ``seed`` field
    (specs always carry one), so a row replays bit-identically from its
    JSON alone — the engine's ``base_seed`` never perturbs spec points.
    """
    return execute_spec_point(ScenarioSpec.from_dict(params))
