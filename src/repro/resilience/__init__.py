"""Resilience lab: fault-injection campaigns, oracles, and shrinking.

The robustness layer over the simulator: describe an execution as a
:class:`~repro.analysis.spec.ScenarioSpec` (tree × adversary × corruption
set × scheduler × fault plan), generate seeded campaigns of them, judge
every run with the invariant oracles, delta-debug any violation to a
minimal reproduction, and freeze reproductions as a regression corpus.

Entry points: :func:`generate_scenarios` (``repro campaign`` runs its
specs through :func:`repro.flywheel.run_flywheel`), :func:`shrink`
(``repro shrink``), and :mod:`repro.resilience.corpus` for the
``tests/corpus/`` replay format.
"""

from .campaign import CampaignConfig, generate_scenarios
from .corpus import (
    CORPUS_SCHEMA_VERSION,
    CorpusFormatError,
    ReproCase,
    case_from_scenario,
    iter_corpus,
    load_case,
    save_case,
    verify,
    verify_corpus,
)
from .oracles import ORACLE_NAMES, Violation, check_violations, evaluate, violated_oracles
from .scenario import ScenarioResult, execute_scenario, round_budget, run_scenario
from .shrink import NotViolatingError, ShrinkResult, cost, shrink, shrink_report

__all__ = [
    "ScenarioResult",
    "execute_scenario",
    "round_budget",
    "run_scenario",
    "Violation",
    "ORACLE_NAMES",
    "evaluate",
    "violated_oracles",
    "CampaignConfig",
    "generate_scenarios",
    "shrink",
    "ShrinkResult",
    "shrink_report",
    "check_violations",
    "cost",
    "NotViolatingError",
    "ReproCase",
    "CORPUS_SCHEMA_VERSION",
    "CorpusFormatError",
    "case_from_scenario",
    "save_case",
    "load_case",
    "iter_corpus",
    "verify",
    "verify_corpus",
]
