"""The final-output validity guards must be real exceptions, not asserts.

``python -O`` strips ``assert`` statements; a RealAA-validity violation
(an engine bug) would then surface as a wrong output or an ``IndexError``
deep in the path lookup.  These tests drive each guard directly and — the
actual regression — re-run one of them in a ``python -O`` subprocess.
"""

import os
import subprocess
import sys

import pytest

from repro.authenticated import (
    AuthPathsFinderParty,
    AuthProjectionPhaseParty,
    SignatureAuthority,
)
from repro.core import ValidityViolationError
from repro.core.path_aa import PathAAParty
from repro.core.paths_finder import PathsFinderParty
from repro.core.projection_aa import KnownPathAAParty
from repro.core.tree_aa import ProjectionPhaseParty
from repro.trees import diameter_path, path_tree

N, T = 4, 1

#: Both engines' phase parties share the core's tree maps and guards.
PATHS_FINDERS = {
    "core": lambda tree, vertex: PathsFinderParty(0, N, T, tree, vertex),
    "authenticated": lambda tree, vertex: AuthPathsFinderParty(
        0, N, T, SignatureAuthority(), tree, vertex
    ),
}
PROJECTION_PHASES = {
    "core": lambda tree, path, vertex: ProjectionPhaseParty(
        0, N, T, tree, path, vertex, iterations=1
    ),
    "authenticated": lambda tree, path, vertex: AuthProjectionPhaseParty(
        0, N, T, SignatureAuthority(), tree, path, vertex
    ),
}


def _tree_and_path():
    tree = path_tree(5)
    return tree, diameter_path(tree).canonical()


class TestGuardsRaise:
    def test_known_path_party_guard(self):
        tree, path = _tree_and_path()
        party = KnownPathAAParty(0, N, T, tree, path, tree.vertices[0])
        party.value = 1e9
        with pytest.raises(ValidityViolationError, match="validity"):
            party._final_output()

    def test_path_aa_party_guard(self):
        tree, path = _tree_and_path()
        party = PathAAParty(0, N, T, path, path[0])
        party.value = -50.0
        with pytest.raises(ValidityViolationError, match="validity"):
            party._final_output()

    @pytest.mark.parametrize("engine", list(PATHS_FINDERS))
    def test_paths_finder_party_guard(self, engine):
        tree, _ = _tree_and_path()
        party = PATHS_FINDERS[engine](tree, tree.vertices[0])
        party.value = 1e9
        with pytest.raises(ValidityViolationError, match="validity"):
            party._final_output()

    @pytest.mark.parametrize("engine", list(PROJECTION_PHASES))
    def test_projection_phase_negative_guard(self, engine):
        tree, path = _tree_and_path()
        party = PROJECTION_PHASES[engine](tree, path, tree.vertices[0])
        party.value = -3.0
        with pytest.raises(ValidityViolationError, match="validity"):
            party._final_output()

    def test_in_range_value_does_not_raise(self):
        tree, path = _tree_and_path()
        party = KnownPathAAParty(0, N, T, tree, path, tree.vertices[0])
        party.value = 1.0
        assert party._final_output() == path[1]


_O_SCRIPT = """
from repro.core import ValidityViolationError
from repro.core.projection_aa import KnownPathAAParty
from repro.trees import diameter_path, path_tree

assert not __debug__, "this script must run under python -O"
tree = path_tree(5)
path = diameter_path(tree).canonical()
party = KnownPathAAParty(0, 4, 1, tree, path, tree.vertices[0])
party.value = 1e9
try:
    party._final_output()
except ValidityViolationError:
    print("GUARDED")
else:
    raise SystemExit("validity guard did not fire under -O")
"""


def test_guard_survives_python_O():
    """Run the guard in ``python -O``: a bare assert would be stripped."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _O_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "GUARDED" in proc.stdout
