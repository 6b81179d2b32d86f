"""AA on trees given a known path — the stepping stone (Section 5).

Assume all parties know one common path ``P`` of the input space tree that
intersects the honest inputs' convex hull.  Then each party projects its
input vertex onto ``P`` (Lemma 1: the projection lies in ``V(P) ∩ ⟨S⟩``)
and the problem becomes AA on the path ``P``, solved as in Section 4.

The full protocol (Section 7) replaces the "known path" assumption with
PathsFinder; this module exists both as the paper presents it — a correct
protocol under the stronger assumption — and as the second phase's logic.
"""

from __future__ import annotations

from typing import Tuple

from ..net.messages import PartyId
from ..protocols.realaa import RealAAParty
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath
from ..trees.projection import project_onto_path
from .path_aa import vertex_at


def project_position(tree: LabeledTree, vertex: Label, path: TreePath) -> Tuple[Label, float]:
    """``proj_P(vertex)`` and its position on *path*, the RealAA input."""
    projection = project_onto_path(tree, vertex, path)
    return projection, float(path.position_of(projection))


class KnownPathAAParty(RealAAParty):
    """One party of the Section-5 protocol.

    Parameters
    ----------
    tree:
        The publicly known input space tree.
    path:
        The commonly known path intersecting the honest inputs' hull.  Every
        honest party must be constructed with the identical path (Section 5
        *assumes* this; Section 6 constructs it).
    input_vertex:
        The party's input — any vertex of *tree*.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        tree: LabeledTree,
        path: TreePath,
        input_vertex: Label,
    ) -> None:
        projection, position = project_position(tree, input_vertex, path)
        super().__init__(
            pid,
            n,
            t,
            input_value=position,
            epsilon=1.0,
            known_range=float(path.length),
        )
        self.tree = tree
        self.path = path
        self.input_vertex = input_vertex
        self.projection = projection

    def _final_output(self) -> Label:
        return vertex_at(self.path, self.value)
