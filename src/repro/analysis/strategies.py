"""Seeded scenario generators shared by the test suite and the flywheel.

This module is the promoted home of what used to be ``tests/strategies.py``
(a test-side shim still re-exports every name, so test imports are
unchanged).  It holds two generator families over the same scenario
space:

* **Hypothesis strategies** (``small_trees``, ``scenario_specs``, …) —
  the property-test drivers, available whenever Hypothesis is importable
  (it always is in the test environment; the guard only protects bare
  production installs).
* **RNG point streams** (:func:`draw_flywheel_spec`,
  :func:`spec_stream`) — plain ``random.Random``-driven generation of
  :class:`~repro.analysis.spec.ScenarioSpec` points for the
  :mod:`repro.flywheel` mega-campaigns.  Unlike Hypothesis draws these
  are *position-addressable*: point ``i`` of stream ``seed`` is the same
  spec in every process on every machine, which is what makes a killed
  campaign resumable from its ledger without re-executing finished
  points.

Both families draw from one shared vocabulary (tree families, adversary
spec strings, the batch-supported matrix) so the flywheel exercises
exactly the space the conformance suite quantifies over — just a few
orders of magnitude more of it.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Set, Tuple

from ..trees import LabeledTree, tree_from_pruefer

try:  # Hypothesis is a test/dev dependency, not a runtime requirement.
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised only on bare installs
    st = None  # type: ignore[assignment]

#: The execution backends every differential property test compares.
BACKENDS: Tuple[str, ...] = ("reference", "batch")

#: Small tree specs (:func:`repro.trees.parse_tree_spec` grammar) that keep
#: spec-driven property tests fast.
SPEC_TREES: Tuple[str, ...] = ("path:4", "path:6", "star:5", "caterpillar:3x2")

#: Adversary spec strings the batch backend can replay.
BATCH_SPEC_ADVERSARIES: Tuple[str, ...] = (
    "none",
    "silent",
    "passive",
    "crash",
    "crash:2:3",
    "chaos",
    "chaos:9",
)

#: Adversary spec strings only the reference backend accepts.
REFERENCE_ONLY_SPEC_ADVERSARIES: Tuple[str, ...] = ("noise", "noise:7", "asym")


# ----------------------------------------------------------------------
# RNG point streams (the flywheel's generators)
# ----------------------------------------------------------------------

#: Inclusive bounds of the flywheel regime.  Kept deliberately small:
#: a flywheel point must cost milliseconds, because its value is in the
#: millions of (shape × n × t × adversary × backend) combinations, not
#: in any single large instance (benchmarks S1/S2 cover scale).
FLYWHEEL_MAX_T = 2
FLYWHEEL_MAX_N = 8


def _draw_tree_spec(rng: random.Random) -> str:
    """A small tree spec, over every family the shrinker can reduce."""
    family = rng.choice(("path", "star", "caterpillar", "random"))
    if family == "path":
        return f"path:{rng.randint(3, 10)}"
    if family == "star":
        return f"star:{rng.randint(3, 9)}"
    if family == "caterpillar":
        return f"caterpillar:{rng.randint(2, 4)}x{rng.randint(1, 3)}"
    return f"random:{rng.randint(4, 12)}:{rng.randint(0, 999)}"


def _draw_adversary_spec(rng: random.Random, t: int) -> str:
    """An adversary spec string; mostly batch-replayable, occasionally not.

    Reference-only adversaries (``noise``/``asym``) appear with ~1/8
    probability so the stream keeps exercising the refusal path and the
    reference-side oracles without starving the differential ones.
    """
    if rng.random() < 0.125:
        kind = rng.choice(("noise", "asym"))
        if kind == "noise":
            return f"noise:{rng.randint(0, 9999)}"
        return "asym"
    menu = ["none", "silent", "passive", "crash", "chaos"]
    if t >= 1:
        menu += ["burn", "burn-down"]
    kind = rng.choice(menu)
    if kind == "crash":
        return f"crash:{rng.randint(0, 4)}:{rng.randint(0, 4)}"
    if kind == "chaos":
        return f"chaos:{rng.randint(0, 9999)}"
    return kind


def draw_flywheel_spec(rng: random.Random) -> Any:
    """One flywheel point: a valid, runnable ``ScenarioSpec``.

    The draw covers tree shape × ``n`` × ``t`` × adversary × trace level
    × (sometimes) an explicit corrupted set, with ``backend`` always
    ``"reference"`` — the flywheel's differential oracles run the batch
    counterpart themselves, so a point describes the *instance*, not the
    engine.  ``record=True`` appears on ~1/8 of points to feed the
    metrics-row parity oracle.
    """
    from .spec import ScenarioSpec

    protocol = rng.choice(("real-aa", "path-aa", "tree-aa", "tree-aa"))
    t = rng.randint(0, FLYWHEEL_MAX_T)
    n = rng.randint(3 * t + 2, max(FLYWHEEL_MAX_N, 3 * t + 2))
    adversary = _draw_adversary_spec(rng, t)
    corrupt: Tuple[int, ...] = ()
    if t and rng.random() < 0.5:
        corrupt = tuple(sorted(rng.sample(range(n), rng.randint(1, t))))
    return ScenarioSpec(
        protocol=protocol,
        n=n,
        t=t,
        tree=None if protocol == "real-aa" else _draw_tree_spec(rng),
        adversary=adversary,
        corrupt=corrupt,
        backend="reference",
        trace_level=rng.choice(("full", "aggregate")),
        seed=rng.randint(0, 2**31 - 1),
        known_range=8.0 if protocol == "real-aa" else None,
        project=(protocol == "path-aa" and rng.random() < 0.5),
        record=(rng.random() < 0.125),
    )


def spec_stream(seed: int, count: int) -> Iterator[Any]:
    """The first *count* points of flywheel stream *seed*, in order.

    A pure function of ``(seed, count)``: the stream is driven by a
    single ``random.Random(seed)``, so point ``i`` is identical across
    processes, machines, and resumed runs — the property the flywheel
    ledger's exactly-once accounting rests on (and that
    ``tests/analysis/test_strategies_meta.py`` pins across a real
    process boundary).
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield draw_flywheel_spec(rng)


def stream_digest(seed: int, count: int) -> str:
    """A SHA-256 over the canonical JSON of stream ``(seed, count)``.

    Cheap cross-process identity check: two processes agree on the
    entire stream iff they agree on this digest.
    """
    import hashlib

    from .parallel import canonical_json

    digest = hashlib.sha256()
    for spec in spec_stream(seed, count):
        digest.update(canonical_json(spec.to_dict()).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Hypothesis strategies (the property-test drivers)
# ----------------------------------------------------------------------

if st is not None:

    @st.composite
    def small_trees(draw, min_vertices: int = 1, max_vertices: int = 12):
        """Uniform-ish random labeled trees via Prüfer sequences."""
        n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
        if n == 1:
            return LabeledTree(vertices=["v00"])
        if n == 2:
            return LabeledTree(edges=[("v00", "v01")])
        sequence = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=n - 2,
                max_size=n - 2,
            )
        )
        return tree_from_pruefer(sequence)

    @st.composite
    def trees_with_vertex_choices(draw, n_choices: int, min_vertices: int = 2):
        """A random tree plus *n_choices* (not necessarily distinct) vertices."""
        tree = draw(small_trees(min_vertices=min_vertices))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=tree.n_vertices - 1),
                min_size=n_choices,
                max_size=n_choices,
            )
        )
        return tree, [tree.vertices[i] for i in indices]

    @st.composite
    def corruption_sets(
        draw, n: int, max_size: Optional[int] = None
    ) -> Optional[Set[int]]:
        """``None`` (the adversary's default choice) or an explicit corrupt set.

        Explicit sets are drawn from ``0..n-1`` with at most *max_size*
        members (default ``n``); the empty set is a legal, meaningful draw
        (an adversary holding no parties at all).
        """
        if draw(st.booleans()):
            return None
        bound = n if max_size is None else min(max_size, n)
        return draw(
            st.sets(
                st.integers(min_value=0, max_value=max(0, n - 1)), max_size=bound
            )
            if n
            else st.just(set())
        )

    @st.composite
    def batch_supported_adversaries(draw, n: int, t: int):
        """An adversary instance the batch backend can replay (or ``None``).

        Covers the full supported matrix: fault-free, :class:`NoAdversary`,
        silent, passive, partial-broadcast crashes at varying rounds, seeded
        chaos streams, and burn schedules — each over both default and
        explicit corruption sets.
        """
        from ..adversary.base import NoAdversary, PassiveAdversary
        from ..adversary.chaos import ChaosAdversary
        from ..adversary.realaa_attacks import BurnScheduleAdversary
        from ..adversary.strategies import CrashAdversary, SilentAdversary

        kind = draw(
            st.sampled_from(
                ["none", "no-adversary", "silent", "passive", "crash", "chaos", "burn"]
            )
        )
        if kind == "none":
            return None
        corrupt = draw(corruption_sets(n, max_size=max(t, 1)))
        if kind == "no-adversary":
            return NoAdversary(corrupt)
        if kind == "silent":
            return SilentAdversary(corrupt)
        if kind == "passive":
            return PassiveAdversary(corrupt)
        if kind == "chaos":
            seed = draw(st.integers(min_value=0, max_value=2**16))
            weights = None
            if draw(st.booleans()):
                weights = {
                    name: draw(st.floats(min_value=0.1, max_value=4.0))
                    for name in ChaosAdversary.BEHAVIOURS
                }
            return ChaosAdversary(seed=seed, weights=weights, corrupt=corrupt)
        if kind == "burn":
            schedule = draw(
                st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)
            )
            direction = draw(st.sampled_from(["up", "down", "alternate"]))
            reuse = draw(st.booleans())
            return BurnScheduleAdversary(
                schedule, direction=direction, reuse_burners=reuse, corrupt=corrupt
            )
        crash_round = draw(st.integers(min_value=0, max_value=30))
        partial_to = draw(st.integers(min_value=0, max_value=n))
        return CrashAdversary(crash_round, partial_to=partial_to, corrupt=corrupt)

    @st.composite
    def fault_plans(draw):
        """``None`` (the common case) or a seeded honest-channel fault plan.

        Faulty plans set ``allow_model_violations=True`` — the same explicit
        gate the resilience lab requires — with moderate per-message rates so
        that most runs still complete and exercise the recovery paths rather
        than degenerating into all-drop noise.
        """
        from ..net.faults import FaultPlan

        if draw(st.booleans()):
            return None
        return FaultPlan(
            drop=draw(st.sampled_from([0.0, 0.1, 0.25])),
            duplicate=draw(st.sampled_from([0.0, 0.1, 0.2])),
            corrupt=draw(st.sampled_from([0.0, 0.1, 0.2])),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            allow_model_violations=True,
        )

    def backends() -> "st.SearchStrategy[str]":
        """One of the two execution backends (:data:`BACKENDS`)."""
        return st.sampled_from(BACKENDS)

    @st.composite
    def scenario_specs(draw, runnable: bool = True):
        """A valid :class:`repro.analysis.spec.ScenarioSpec`.

        With ``runnable=True`` (the default) the draw is restricted so that
        ``spec.run()`` succeeds on the spec's own backend: adversaries the
        batch engine cannot replay only appear with ``backend="reference"``,
        burn schedules require ``t >= 1``, and sizes stay small enough for
        property-test budgets.
        """
        from .spec import ScenarioSpec

        protocol = draw(st.sampled_from(["real-aa", "path-aa", "tree-aa"]))
        backend = draw(backends())
        t = draw(st.integers(min_value=0, max_value=1))
        n = draw(st.integers(min_value=3 * t + 2, max_value=6))
        adversaries = list(BATCH_SPEC_ADVERSARIES)
        if backend == "reference" or not runnable:
            adversaries += list(REFERENCE_ONLY_SPEC_ADVERSARIES)
        if t >= 1 or not runnable:
            adversaries += ["burn", "burn-down"]
        adversary = draw(st.sampled_from(adversaries))
        corrupt: Tuple[int, ...] = ()
        if t and draw(st.booleans()):
            corrupt = (draw(st.integers(min_value=0, max_value=n - 1)),)
        return ScenarioSpec(
            protocol=protocol,
            n=n,
            t=t,
            tree=None if protocol == "real-aa" else draw(st.sampled_from(SPEC_TREES)),
            adversary=adversary,
            corrupt=corrupt,
            backend=backend,
            trace_level=draw(st.sampled_from(["full", "aggregate"])),
            t_assumed=draw(st.sampled_from([None, t])),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            known_range=8.0 if protocol == "real-aa" else None,
            project=(protocol == "path-aa" and draw(st.booleans())),
            record=draw(st.booleans()),
        )

    @st.composite
    def real_inputs(draw, n: int, magnitude: float = 16.0) -> List[float]:
        """``n`` finite real inputs bounded by *magnitude* in absolute value."""
        return draw(
            st.lists(
                st.floats(
                    min_value=-magnitude,
                    max_value=magnitude,
                    allow_nan=False,
                    allow_infinity=False,
                    width=32,
                ),
                min_size=n,
                max_size=n,
            )
        )
