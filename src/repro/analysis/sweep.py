"""Parameter-sweep harness shared by the benchmarks.

Each sweep runs full protocol executions over a grid and returns rows ready
for :func:`repro.analysis.tables.format_table`.  Imports of the protocol
layers are local to the functions to keep the package import graph acyclic.

The ``*_runner`` functions at the bottom are the *data-driven* forms of
the same sweeps, registered with :mod:`repro.analysis.parallel` so that
grids of them can execute through the process-pool engine (every argument
a JSON-serialisable scalar, trees and adversaries described by the CLI's
spec strings).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.network import TraceLevel
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import diameter
from .parallel import register_runner


@dataclass
class TreeSweepPoint:
    """One grid point of a TreeAA-vs-baseline sweep."""

    family: str
    n_vertices: int
    tree_diameter: int
    tree_rounds: int
    baseline_rounds: int
    tree_ok: bool
    baseline_ok: bool


def spread_inputs(
    tree: LabeledTree, n: int, rng: random.Random
) -> List[Label]:
    """Inputs stretching across the tree: both diameter endpoints plus
    random vertices — the worst case for convergence distance.

    Always returns exactly ``n`` inputs: for ``n < 2`` the endpoint seeds
    are truncated (a 1-party sweep gets one diameter endpoint, an empty
    sweep gets no inputs) rather than handing back more inputs than
    parties.
    """
    if n < 0:
        raise ValueError(f"need n >= 0 parties, got {n}")
    from ..trees.paths import diameter_path

    longest = diameter_path(tree)
    picks: List[Label] = [longest.start, longest.end][:n]
    while len(picks) < n:
        picks.append(rng.choice(tree.vertices))
    rng.shuffle(picks)
    return picks


def run_tree_point(
    family: str,
    tree: LabeledTree,
    n: int,
    t: int,
    seed: int = 0,
    adversary_factory: Optional[Callable[[], Any]] = None,
    trace_level: TraceLevel = TraceLevel.FULL,
    observer: Optional[Any] = None,
    backend: str = "reference",
) -> TreeSweepPoint:
    """Run TreeAA and the iterated-safe-area baseline on the same instance.

    ``observer`` (e.g. a :class:`~repro.observability.MetricsCollector`)
    watches the TreeAA execution only.

    ``backend`` selects the engine for the *TreeAA* execution (see
    :func:`repro.core.api.run_tree_aa`); the iterated-safe-area baseline
    has no batch implementation and always runs on the reference engine.
    """
    from ..core.api import run_tree_aa
    from ..baselines.iterative_tree import IterativeTreeAAParty
    from ..net.runner import run_protocol
    from .metrics import tree_agreement, tree_validity

    rng = random.Random(seed)
    inputs = spread_inputs(tree, n, rng)

    adversary = adversary_factory() if adversary_factory is not None else None
    outcome = run_tree_aa(
        tree,
        inputs,
        t,
        adversary=adversary,
        trace_level=trace_level,
        observer=observer,
        backend=backend,
    )

    adversary2 = adversary_factory() if adversary_factory is not None else None
    baseline_exec = run_protocol(
        n,
        t,
        lambda pid: IterativeTreeAAParty(pid, n, t, tree, inputs[pid]),
        adversary=adversary2,
        trace_level=trace_level,
    )
    honest_inputs = [inputs[pid] for pid in sorted(baseline_exec.honest)]
    honest_outputs = list(baseline_exec.honest_outputs.values())
    baseline_ok = tree_validity(
        tree, honest_inputs, honest_outputs
    ) and tree_agreement(tree, honest_outputs)

    return TreeSweepPoint(
        family=family,
        n_vertices=tree.n_vertices,
        tree_diameter=diameter(tree),
        tree_rounds=outcome.rounds,
        baseline_rounds=baseline_exec.trace.rounds_executed,
        tree_ok=outcome.achieved_aa,
        baseline_ok=baseline_ok,
    )


def measured_realaa_rounds(
    spread: float,
    epsilon: float,
    n: int,
    t: int,
    adversary_factory: Optional[Callable[[], Any]] = None,
    seed: int = 0,
    trace_level: TraceLevel = TraceLevel.FULL,
    backend: str = "reference",
) -> Tuple[int, Optional[int], bool]:
    """(budgeted rounds, measured rounds, AA achieved) for one RealAA run.

    Inputs are the worst case: half the honest parties at 0, half at
    ``spread``, with corrupted parties' puppets mixed between.
    """
    from ..core.api import run_real_aa

    rng = random.Random(seed)
    inputs = [0.0 if i % 2 == 0 else float(spread) for i in range(n)]
    rng.shuffle(inputs)
    adversary = adversary_factory() if adversary_factory is not None else None
    outcome = run_real_aa(
        inputs,
        t,
        epsilon=epsilon,
        known_range=float(spread),
        adversary=adversary,
        trace_level=trace_level,
        backend=backend,
    )
    return outcome.rounds, outcome.measured_rounds, outcome.achieved_aa


# ----------------------------------------------------------------------
# Data-driven runners for the parallel engine
# ----------------------------------------------------------------------


def tree_spec_for(family: str, size: int) -> str:
    """The CLI tree spec matching the T1 benchmark's tree families."""
    if family == "path":
        return f"path:{size}"
    if family == "caterpillar":
        return f"caterpillar:{max(1, size // 2)}x1"
    if family == "random":
        return f"random:{size}:42"
    if family == "star":
        return f"star:{size - 1}"
    raise ValueError(f"unknown sweep tree family {family!r}")


def _adversary_factory(spec: Optional[str], t: int) -> Optional[Callable[[], Any]]:
    """A fresh-adversary factory from a CLI adversary spec (``None``/"none"
    mean fault-free)."""
    if spec is None or spec == "none":
        return None
    from ..cli import make_adversary

    return lambda: make_adversary(spec, t)


@register_runner("tree-point")
def tree_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One TreeAA-vs-baseline grid point, described entirely by data.

    ``params``: ``tree`` (CLI tree spec), ``n``, ``t``, optional
    ``family`` (display name), ``adversary`` (CLI adversary spec), and
    ``metrics`` (truthy to attach a
    :class:`~repro.observability.MetricsCollector` to the TreeAA execution
    and embed its :meth:`~repro.observability.MetricsCollector.summary`
    under the row's ``"metrics"`` key).  Without ``metrics`` the collector
    stays detached and payload accounting is skipped
    (``TraceLevel.AGGREGATE``) — the fast path, byte-identical to the
    historical rows, which only carry rounds and AA verdicts.
    """
    from ..cli import parse_tree_spec

    tree = parse_tree_spec(params["tree"])
    n, t = int(params["n"]), int(params["t"])
    collector = None
    if params.get("metrics"):
        from ..observability import MetricsCollector

        collector = MetricsCollector(tree=tree)
    point = run_tree_point(
        str(params.get("family", "tree")),
        tree,
        n,
        t,
        seed=seed,
        adversary_factory=_adversary_factory(params.get("adversary"), t),
        trace_level=TraceLevel.AGGREGATE,
        observer=collector,
        backend=str(params.get("backend", "reference")),
    )
    row = asdict(point)
    if collector is not None:
        row["metrics"] = collector.summary()
    return row


@register_runner("realaa-point")
def realaa_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One RealAA grid point: ``spread``, ``epsilon``, ``n``, ``t``,
    optional ``adversary`` — a CLI spec or ``"even-burn"`` (the T2
    schedule: the budget spread evenly over the iteration count)."""
    n, t = int(params["n"]), int(params["t"])
    spread, epsilon = float(params["spread"]), float(params["epsilon"])
    spec = params.get("adversary")
    if spec == "even-burn":
        from ..adversary.realaa_attacks import (
            BurnScheduleAdversary,
            even_burn_schedule,
        )
        from ..protocols.rounds import realaa_iterations

        iterations = realaa_iterations(spread, epsilon, n, t)
        factory: Optional[Callable[[], Any]] = lambda: BurnScheduleAdversary(
            even_burn_schedule(min(t, iterations), iterations)
        )
    else:
        factory = _adversary_factory(spec, t)
    budget, measured, ok = measured_realaa_rounds(
        spread,
        epsilon,
        n,
        t,
        adversary_factory=factory,
        seed=seed,
        trace_level=TraceLevel.AGGREGATE,
        backend=str(params.get("backend", "reference")),
    )
    return {
        "n": n,
        "t": t,
        "spread": spread,
        "epsilon": epsilon,
        "budget": budget,
        "measured": measured,
        "ok": ok,
    }
