"""Resilience lab: fault-injection campaigns, oracles, and shrinking.

The robustness layer over the simulator: describe an execution as a
:class:`~repro.analysis.spec.ScenarioSpec` (tree × adversary × corruption
set × scheduler × fault plan), run seeded campaigns of them through the
parallel sweep engine, judge every run with the invariant oracles,
delta-debug any violation to a minimal reproduction, and freeze
reproductions as a regression corpus.

Entry points: :func:`run_campaign` (``repro campaign``), :func:`shrink`
(``repro shrink``), and :mod:`repro.resilience.corpus` for the
``tests/corpus/`` replay format.
"""

from .campaign import (
    CampaignConfig,
    CampaignReport,
    generate_scenarios,
    resilience_point_runner,
    run_campaign,
)
from .corpus import (
    CORPUS_SCHEMA_VERSION,
    CorpusFormatError,
    ReproCase,
    case_from_scenario,
    iter_corpus,
    load_case,
    replay,
    save_case,
    save_cases,
    verify,
    verify_corpus,
)
from .oracles import ORACLE_NAMES, Violation, evaluate, violated_oracles
from .scenario import ScenarioResult, execute_scenario
from .shrink import (
    NotViolatingError,
    ShrinkResult,
    check_violations,
    cost,
    shrink,
    shrink_report,
)

__all__ = [
    "ScenarioResult",
    "execute_scenario",
    "Violation",
    "ORACLE_NAMES",
    "evaluate",
    "violated_oracles",
    "CampaignConfig",
    "CampaignReport",
    "generate_scenarios",
    "run_campaign",
    "resilience_point_runner",
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
    "save_cases",
    "load_case",
    "iter_corpus",
    "replay",
    "verify",
    "verify_corpus",
]
