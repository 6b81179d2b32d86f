"""The paper's contribution: TreeAA and its reduction pipeline.

``closestInt`` (Section 4) → AA on paths (Section 4) → AA with a known path
(Section 5) → PathsFinder (Section 6) → TreeAA (Section 7), plus the
high-level :func:`run_tree_aa` / :func:`run_path_aa` / :func:`run_real_aa`
entry points.
"""

from .api import (
    AAJudgement,
    RealAAOutcome,
    TreeAAOutcome,
    judge_real,
    judge_tree,
    run_path_aa,
    run_real_aa,
    run_tree_aa,
)
from .closest_int import closest_int
from .errors import ValidityViolationError
from .path_aa import PathAAParty
from .paths_finder import PathsFinderParty, paths_finder_duration
from .projection_aa import KnownPathAAParty
from .tree_aa import (
    ProjectionPhaseParty,
    TreeAAParty,
    projection_phase_iterations,
)

__all__ = [
    "closest_int",
    "ValidityViolationError",
    "PathAAParty",
    "KnownPathAAParty",
    "PathsFinderParty",
    "paths_finder_duration",
    "TreeAAParty",
    "ProjectionPhaseParty",
    "projection_phase_iterations",
    "run_tree_aa",
    "run_path_aa",
    "run_real_aa",
    "TreeAAOutcome",
    "RealAAOutcome",
    "AAJudgement",
    "judge_real",
    "judge_tree",
]
