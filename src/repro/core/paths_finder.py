"""PathsFinder — approximately agreeing on a path (Section 6).

Finding a path through the honest inputs' convex hull exactly would amount
to Byzantine Agreement and cost ``t + 1 = O(n)`` rounds.  PathsFinder
instead lets the honest parties *approximately* agree on such a path:

1. every party computes the identical Euler-tour list
   ``L = ListConstruction(T, v_root)`` (Lemma 2);
2. every party joins ``RealAA(1)`` with ``min L(v_IN)``, the first index of
   its input vertex;
3. the 1-close, valid indices ``closestInt(j)`` select 1-close vertices
   ``L_closestInt(j)`` lying in a subtree rooted at a *valid* vertex
   (Lemma 3), and each party returns the root path ``P(v_root, L_...)``.

Lemma 4 summarises the guarantees: every returned path intersects the
honest inputs' hull, and any two returned paths are equal or differ by one
trailing edge.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..net.messages import PartyId
from ..protocols.realaa import RealAAParty
from ..protocols.rounds import realaa_duration
from ..trees.euler import EulerList, list_construction
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath
from .closest_int import closest_index


def euler_list(tree: LabeledTree, root: Optional[Label] = None) -> EulerList:
    """``ListConstruction(T, v_root)``, built once per tree object and root:
    every party derives the identical list (Lemma 2), so one serves all."""
    key = tree.root_label if root is None else root
    euler = tree._euler_lists.get(key)
    if euler is None:
        euler = tree._euler_lists[key] = list_construction(tree, key)
    return euler


def euler_root_path(euler: EulerList, value: float) -> Tuple[Label, TreePath]:
    """``L_closestInt(value)`` and its root path ``P(v_root, L_…)``."""
    vertex = euler[closest_index(value, len(euler), "L")]
    return vertex, TreePath(euler.rooted.root_path(vertex))


def paths_finder_duration(tree: LabeledTree, n: int, t: int) -> int:
    """The publicly computable duration of PathsFinder, in rounds.

    The honest RealAA inputs are indices into ``L``, hence at most
    ``|L| − 1`` apart (Lemma 2 property 2).  The Euler list holds one
    entry per vertex plus one per edge, so ``|L| = 2·|V(T)| − 1`` for
    every root, and the exact ``|L| − 1 = 2·|V(T)| − 2`` is used without
    building the list.  This is the operational counterpart of the
    paper's ``R_PathsFinder := R_RealAA(2·|V(T)|, 1)``.
    """
    return realaa_duration(float(2 * tree.n_vertices - 2), 1.0, n, t)


class PathsFinderParty(RealAAParty):
    """One party of ``PathsFinder(T, v_root, v_IN)``.

    Output: a :class:`~repro.trees.paths.TreePath` from the root to the
    selected vertex (Lemma 4's ``P``).
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        tree: LabeledTree,
        input_vertex: Label,
        root: Optional[Label] = None,
    ) -> None:
        tree.require_vertex(input_vertex)
        euler = euler_list(tree, root)
        index = euler.first_occurrence(input_vertex)  # i := min L(v_IN)
        super().__init__(
            pid,
            n,
            t,
            input_value=float(index),
            epsilon=1.0,
            known_range=float(len(euler) - 1),
        )
        self.tree = tree
        self.euler: EulerList = euler
        self.input_vertex = input_vertex
        #: The vertex ``L_closestInt(j)`` selected by the final real value.
        self.selected_vertex: Optional[Label] = None

    def _final_output(self) -> TreePath:
        self.selected_vertex, path = euler_root_path(self.euler, self.value)
        return path
