"""Guard parity: both backends reject illegal runs with the same error.

Every ``run_*`` entry point validates its arguments through the party
constructors of the reference simulator.  The batch engine must raise
the *same* exception type with the *same* message, in the same order
when several guards would fire.  Each row of :data:`GUARD_CASES` runs
through :func:`~tests.engine.conformance.differential_check` (which
compares the two backends' verdicts) and must end in the pinned error.

"Neither ``known_range`` nor ``iterations``" is not a row:
:func:`repro.core.api.run_real_aa` derives ``known_range`` from the
inputs when both are omitted, so that guard cannot fire through the API.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core.api import run_path_aa, run_real_aa, run_tree_aa
from repro.trees.generators import figure_tree
from repro.trees.labeled_tree import LabeledTree
from repro.trees.paths import diameter_path

from .conformance import differential_check

pytest.importorskip("numpy")

NAN = float("nan")
INF = float("inf")
REALS = [0.0, 1.0, 2.0, 3.0, 4.0]
TREE = figure_tree()
#: v6 - v3 - v2 - v4 - v8; v1, v5 and v7 lie off it.
PATH = diameter_path(TREE)
ON_PATH = ["v6", "v3", "v2", "v4", "v8"]
#: Diameter 1: TreeAA is trivial and runs no phase.
EDGE = LabeledTree.from_parent_map({"b": "a"})

#: (case id, entry point, keyword arguments, error type, message fragment)
GuardCase = Tuple[str, Callable[..., Any], Dict[str, Any], str, str]

GUARD_CASES: List[GuardCase] = [
    # -- party counts and tolerance ---------------------------------
    ("real-t-negative", run_real_aa,
     dict(inputs=REALS, t=-1, epsilon=1.0),
     "ValueError", "need n >= 1 and t >= 0"),
    ("real-t-assumed-negative", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=1.0, t_assumed=-1),
     "ValueError", "need n >= 1 and t >= 0"),
    ("real-t-too-large", run_real_aa,
     dict(inputs=REALS, t=2, epsilon=1.0),
     "ValueError", "requires t < n/3"),
    ("tree-t-negative", run_tree_aa,
     dict(tree=TREE, inputs=ON_PATH, t=-1),
     "ValueError", "need n >= 1 and t >= 0"),
    ("tree-t-too-large", run_tree_aa,
     dict(tree=TREE, inputs=ON_PATH, t=2),
     "ValueError", "requires t < n/3"),
    ("path-t-too-large", run_path_aa,
     dict(tree=TREE, path=PATH, inputs=ON_PATH, t=2),
     "ValueError", "requires t < n/3"),
    # -- real inputs --------------------------------------------------
    ("real-nan-at-pid-0", run_real_aa,
     dict(inputs=[NAN] + REALS[1:], t=1, epsilon=1.0, known_range=4.0),
     "ValueError", "input must be a finite real, got nan"),
    ("real-inf-at-pid-2", run_real_aa,
     dict(inputs=REALS[:2] + [INF] + REALS[3:], t=1, epsilon=1.0,
          known_range=4.0),
     "ValueError", "input must be a finite real, got inf"),
    ("real-first-bad-pid-wins", run_real_aa,
     dict(inputs=REALS[:3] + [NAN, INF], t=1, epsilon=1.0, known_range=4.0),
     "ValueError", "got nan"),
    # -- epsilon, known_range, iterations -----------------------------
    ("real-epsilon-zero", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=0.0),
     "ValueError", "epsilon must be positive"),
    ("real-epsilon-negative", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=-1.0, iterations=3),
     "ValueError", "epsilon must be positive"),
    ("real-both-range-and-iterations", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=1.0, known_range=4.0, iterations=3),
     "ValueError", "give exactly one of known_range / iterations"),
    ("real-iterations-zero", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=1.0, iterations=0),
     "ValueError", "iterations must be >= 1"),
    ("real-known-range-negative", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=1.0, known_range=-3.0),
     "ValueError", "known_range must be non-negative"),
    ("real-epsilon-nan", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=NAN),
     "ValueError", "epsilon must be finite, got nan"),
    ("real-epsilon-inf", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=INF),
     "ValueError", "epsilon must be finite, got inf"),
    ("real-epsilon-nan-with-iterations", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=NAN, iterations=3),
     "ValueError", "epsilon must be finite, got nan"),
    ("real-epsilon-negative-inf", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=-INF),
     "ValueError", "epsilon must be positive"),
    ("real-known-range-nan", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=1.0, known_range=NAN),
     "ValueError", "known_range must be finite, got nan"),
    ("real-known-range-inf", run_real_aa,
     dict(inputs=REALS, t=1, epsilon=1.0, known_range=INF),
     "ValueError", "known_range must be finite, got inf"),
    # -- guard order: the earlier guard wins --------------------------
    ("real-tolerance-before-input", run_real_aa,
     dict(inputs=[NAN] + REALS[1:], t=2, epsilon=-1.0),
     "ValueError", "requires t < n/3"),
    ("real-input-before-epsilon", run_real_aa,
     dict(inputs=[NAN] + REALS[1:], t=1, epsilon=-1.0, known_range=4.0),
     "ValueError", "input must be a finite real"),
    ("real-pid-0-epsilon-before-pid-1-input", run_real_aa,
     dict(inputs=[0.0, NAN] + REALS[2:], t=1, epsilon=0.0, known_range=4.0),
     "ValueError", "epsilon must be positive"),
    # -- tree inputs and the root -------------------------------------
    ("tree-non-vertex-at-pid-0", run_tree_aa,
     dict(tree=TREE, inputs=["zz"] + ON_PATH[1:], t=1),
     "KeyError", "vertex 'zz' is not in the tree"),
    ("tree-non-vertex-at-pid-3", run_tree_aa,
     dict(tree=TREE, inputs=ON_PATH[:3] + ["zz"] + ON_PATH[4:], t=1),
     "KeyError", "vertex 'zz' is not in the tree"),
    ("tree-bad-root", run_tree_aa,
     dict(tree=TREE, inputs=ON_PATH, t=1, root="zz"),
     "KeyError", "vertex 'zz' is not in the tree"),
    ("tree-tolerance-before-input", run_tree_aa,
     dict(tree=TREE, inputs=["zz"] + ON_PATH[1:], t=2),
     "ValueError", "requires t < n/3"),
    ("tree-input-before-root", run_tree_aa,
     dict(tree=TREE, inputs=["yy"] + ON_PATH[1:], t=1, root="zz"),
     "KeyError", "vertex 'yy' is not in the tree"),
    ("trivial-tree-non-vertex-at-pid-2", run_tree_aa,
     dict(tree=EDGE, inputs=["a", "b", "zz", "a"], t=1),
     "KeyError", "vertex 'zz' is not in the tree"),
    # -- path inputs --------------------------------------------------
    ("path-off-path-at-pid-0", run_path_aa,
     dict(tree=TREE, path=PATH, inputs=["v1"] + ON_PATH[1:], t=1),
     "KeyError", "vertex 'v1' is not on the path"),
    ("path-off-path-at-pid-4", run_path_aa,
     dict(tree=TREE, path=PATH, inputs=ON_PATH[:4] + ["v7"], t=1),
     "KeyError", "vertex 'v7' is not on the path"),
    ("projected-non-vertex-at-pid-0", run_path_aa,
     dict(tree=TREE, path=PATH, inputs=["zz"] + ON_PATH[1:], t=1,
          project=True),
     "KeyError", "vertex 'zz' is not in the tree"),
    ("projected-non-vertex-at-pid-4", run_path_aa,
     dict(tree=TREE, path=PATH, inputs=ON_PATH[:4] + ["zz"], t=1,
          project=True),
     "KeyError", "vertex 'zz' is not in the tree"),
    ("path-input-before-tolerance", run_path_aa,
     dict(tree=TREE, path=PATH, inputs=["v1"] + ON_PATH[1:], t=2),
     "KeyError", "vertex 'v1' is not on the path"),
]


@pytest.mark.parametrize(
    "call, kwargs, error, fragment",
    [case[1:] for case in GUARD_CASES],
    ids=[case[0] for case in GUARD_CASES],
)
def test_both_backends_raise_the_same_error(call, kwargs, error, fragment):
    verdict = differential_check(call, **kwargs)
    assert verdict[0] == "error", verdict
    assert verdict[1] == error
    assert fragment in verdict[2], verdict[2]


def test_trivial_tree_never_checks_the_root():
    """A diameter-1 tree runs no phase, so no guard reads ``root``."""
    verdict = differential_check(
        run_tree_aa, tree=EDGE, inputs=["a", "b", "b", "a"], t=1, root="zz"
    )
    assert verdict[0] == "ok"


def test_projected_off_path_vertex_is_legal():
    """With ``project=True`` an off-path *vertex* is an input, not an error."""
    verdict = differential_check(
        run_path_aa, tree=TREE, path=PATH, inputs=["v1", "v5", "v7", "v3", "v8"],
        t=1, project=True,
    )
    assert verdict[0] == "ok"
