"""repro — round-optimal Byzantine Approximate Agreement on trees.

A from-scratch reproduction of *“Brief Announcement: Towards Round-Optimal
Approximate Agreement on Trees”* (Fuchs, Ghinea, Parsaeian; PODC 2025),
including every substrate the paper relies on:

* :mod:`repro.trees` — labeled trees, convex hulls, projections, and the
  Euler-tour ``ListConstruction`` of Section 6;
* :mod:`repro.net` — the synchronous authenticated message-passing model of
  Section 2, as a deterministic lockstep simulator;
* :mod:`repro.adversary` — Byzantine strategies, from crash faults to the
  budget-splitting equivocation attack matching Fekete's lower bound;
* :mod:`repro.protocols` — gradecast and the RealAA protocol of Ben-Or,
  Dolev, and Hoch ([6]) that TreeAA uses as its building block;
* :mod:`repro.core` — the paper's contribution: the path reduction
  (Section 4), projection (Section 5), PathsFinder (Section 6), and TreeAA
  (Section 7), and the AA judgement every verdict and oracle reads;
* :mod:`repro.baselines` — the prior iteration-outline protocols on ℝ and
  on trees the paper improves upon;
* :mod:`repro.lowerbound` — Fekete's ``K(R, D)`` bound and Theorem 2's
  round lower bound, plus executable chain-of-views constructions;
* :mod:`repro.analysis` — convergence statistics and experiment harnesses;
* :mod:`repro.observability` — structured per-round metrics, the JSONL
  trace format, and offline run reports (see docs/OBSERVABILITY.md).

Quickstart::

    from repro import LabeledTree, run_tree_aa
    from repro.adversary import SilentAdversary

    tree = LabeledTree(edges=[("a", "b"), ("b", "c"), ("b", "d")])
    outcome = run_tree_aa(
        tree,
        inputs=["a", "c", "d", "a", "c", "d", "a"],  # one per party
        t=2,
        adversary=SilentAdversary(),
    )
    assert outcome.achieved_aa
"""

from .analysis.spec import ScenarioSpec, run_spec
from .core import (
    KnownPathAAParty,
    PathAAParty,
    PathsFinderParty,
    RealAAOutcome,
    TreeAAOutcome,
    TreeAAParty,
    closest_int,
    run_path_aa,
    run_real_aa,
    run_tree_aa,
)
from .net import run_fault_free, run_protocol
from .observability import MetricsCollector, export_run, load_run
from .protocols import RealAAParty
from .trees import LabeledTree, TreePath, list_construction

__version__ = "1.0.0"

__all__ = [
    "LabeledTree",
    "TreePath",
    "list_construction",
    "closest_int",
    "RealAAParty",
    "PathAAParty",
    "KnownPathAAParty",
    "PathsFinderParty",
    "TreeAAParty",
    "run_tree_aa",
    "run_path_aa",
    "run_real_aa",
    "run_protocol",
    "run_fault_free",
    "TreeAAOutcome",
    "RealAAOutcome",
    "ScenarioSpec",
    "run_spec",
    "MetricsCollector",
    "export_run",
    "load_run",
    "__version__",
]
