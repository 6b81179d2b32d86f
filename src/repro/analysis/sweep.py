"""Sweep helpers shared by the benchmarks and the command line.

Runs themselves are :class:`~repro.analysis.spec.ScenarioSpec` points
(the ``spec-point`` runner); this module holds what sweeps add around
them: the worst-case input pattern specs derive their tree inputs from,
the T1 tree families as tree specs, and the ``realaa-point`` runner,
which reports RealAA's measured round count next to its budget.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import diameter_path
from .parallel import register_runner


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
    longest = diameter_path(tree)
    picks: List[Label] = [longest.start, longest.end][:n]
    # One ``rng.choice`` per pick, as a loop of them would draw.
    choice, vertices = rng.choice, tree.vertices
    picks += [choice(vertices) for _ in range(n - len(picks))]
    rng.shuffle(picks)
    return picks


def tree_spec_for(family: str, size: int) -> str:
    """The tree spec matching the T1 benchmark's tree families."""
    if family == "path":
        return f"path:{size}"
    if family == "caterpillar":
        return f"caterpillar:{max(1, size // 2)}x1"
    if family == "random":
        return f"random:{size}:42"
    if family == "star":
        return f"star:{size - 1}"
    raise ValueError(f"unknown sweep tree family {family!r}")


@register_runner("realaa-point")
def realaa_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One RealAA grid point: ``spread``, ``epsilon``, ``n``, ``t``, and
    optional ``adversary`` (spec grammar) and ``backend``.

    Runs the ``real-aa`` spec those params describe and adds the measured
    round count, which spec rows do not carry.
    """
    from .spec import ScenarioSpec

    spec = ScenarioSpec(
        protocol="real-aa",
        n=int(params["n"]),
        t=int(params["t"]),
        adversary=str(params.get("adversary") or "none"),
        backend=str(params.get("backend", "reference")),
        trace_level="aggregate",
        seed=seed,
        epsilon=float(params["epsilon"]),
        known_range=float(params["spread"]),
    )
    outcome = spec.run()
    return {
        "n": spec.n,
        "t": spec.t,
        "spread": spec.known_range,
        "epsilon": spec.epsilon,
        "budget": outcome.rounds,
        "measured": outcome.measured_rounds,
        "ok": outcome.achieved_aa,
    }
