"""AA on paths — the warm-up protocol (Section 4).

When the input space is a labeled path ``P = (v_1, …, v_k)`` (ordered so
that ``v_1`` is the lexicographically lower endpoint), AA on ``P`` reduces
directly to ``RealAA(1)``: a party with input ``v_i`` joins with the real
value ``i`` and outputs ``v_closestInt(j)``.  Remark 1 gives Validity and
Remark 2 gives 1-Agreement; Theorem 3 gives
``O(log D(P) / log log D(P))`` rounds.

Positions here are 0-based (the paper's are 1-based; only the origin
differs).
"""

from __future__ import annotations

from ..net.messages import PartyId
from ..protocols.realaa import RealAAParty
from ..trees.labeled_tree import Label
from ..trees.paths import TreePath
from .closest_int import closest_index


def vertex_at(path: TreePath, value: float) -> Label:
    """``v_closestInt(value)``: the vertex of *path* a final real value
    names (guarded: Remark 1 makes the rounded index a legal position)."""
    return path[closest_index(value, len(path), "the path")]


class PathAAParty(RealAAParty):
    """One party of the Section-4 protocol for a path input space.

    Parameters
    ----------
    path:
        The publicly known input space path, in canonical orientation.
        Every honest party must be constructed with the identical path.
    input_vertex:
        The party's input, a vertex of *path*.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        path: TreePath,
        input_vertex: Label,
    ) -> None:
        canonical = path.canonical()
        if canonical != path:
            raise ValueError(
                "path must be in canonical orientation (lower-labeled "
                "endpoint first) so that all parties index it identically"
            )
        position = path.position_of(input_vertex)
        super().__init__(
            pid,
            n,
            t,
            input_value=float(position),
            epsilon=1.0,
            known_range=float(path.length),
        )
        self.path = path
        self.input_vertex = input_vertex

    def _final_output(self) -> Label:
        return vertex_at(self.path, self.value)
