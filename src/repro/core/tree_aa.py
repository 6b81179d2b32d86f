"""TreeAA — round-optimal Approximate Agreement on trees (Section 7).

The final protocol composes the pieces of Sections 4–6:

1. fix ``v_root`` as the lowest-labeled vertex (line 1);
2. run **PathsFinder** to approximately agree on a root path intersecting
   the honest inputs' convex hull (line 2);
3. wait until round ``R_PathsFinder`` ends so every honest party enters the
   next stage simultaneously (line 4) — realised here by the fixed phase
   boundary of :class:`~repro.net.protocol.PhasedParty`;
4. project the input onto the obtained path and run ``RealAA(1)`` on the
   path positions (line 5);
5. output the vertex at position ``closestInt(j)`` — or, if ``closestInt(j)``
   points one past the own (shorter) path, the own path's last vertex
   (line 6, the Figure-5 case).

Theorem 4: the protocol achieves AA (Termination, Validity, 1-Agreement)
for any ``t < n/3`` within ``O(log |V(T)| / log log |V(T)|)`` rounds.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..net.messages import Inbox, Outbox, PartyId
from ..net.protocol import PhasedParty, ProtocolParty
from ..protocols.realaa import RealAAParty
from ..protocols.rounds import (
    ROUNDS_PER_ITERATION,
    check_resilience,
    realaa_iterations,
)
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath, diameter
from .closest_int import closest_int
from .errors import ValidityViolationError
from .paths_finder import PathsFinderParty, euler_list, paths_finder_duration
from .projection_aa import project_position

#: (declared rounds, factory) for PathsFinder, then for the projection phase.
TreeAAPhases = Tuple[
    Tuple[int, Callable[[], ProtocolParty]],
    Tuple[int, Callable[[TreePath], ProtocolParty]],
]


def clamp_to_path(path: TreePath, value: float) -> Label:
    """TreeAA lines 5–6: the vertex of the own *path* at ``closestInt(value)``.

    An index past the path's end means this party holds the shorter path of
    the Lemma-4 pair; it outputs its last vertex ``v_k``, and Theorem 4
    shows all honest parties then output ``v_{k*}`` or ``v_{k*+1}``.  An
    index below the start can only come from a RealAA validity violation.
    """
    index = closest_int(value)
    if index < 0:
        raise ValidityViolationError(
            f"closestInt({value}) = {index} below the path start — "
            "RealAA validity was violated"
        )
    return path.end if index >= len(path) else path[index]


class ProjectionPhaseParty(RealAAParty):
    """Phase 2 of TreeAA: ``RealAA(1)`` on path positions with clamping.

    The iteration count must be supplied explicitly (it is fixed from the
    public tree height so that all parties — who may hold paths of slightly
    different lengths — run the same number of rounds).
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        tree: LabeledTree,
        path: TreePath,
        input_vertex: Label,
        iterations: int,
    ) -> None:
        projection, position = project_position(tree, input_vertex, path)
        super().__init__(
            pid,
            n,
            t,
            input_value=position,
            epsilon=1.0,
            iterations=iterations,
        )
        self.path = path
        self.projection = projection

    def _final_output(self) -> Label:
        return clamp_to_path(self.path, self.value)


def projection_phase_iterations(
    tree: LabeledTree, n: int, t: int, root: Optional[Label] = None
) -> int:
    """The public iteration count of TreeAA's second RealAA run.

    Honest inputs to the second run are positions on root paths, which are
    bounded by the rooted tree's height — a public quantity (and at most
    ``D(T)``, the bound Theorem 4's statement uses).
    """
    rooted = euler_list(tree, root).rooted
    height = max(rooted.depth(v) for v in tree.vertices)
    return realaa_iterations(float(max(1, height)), 1.0, n, t)


class TreeAAParty(ProtocolParty):
    """One party of TreeAA.

    For trees of diameter ≤ 1 the problem is trivial (every party returns
    its input immediately; Section 2), so the protocol proper only runs for
    ``D(T) > 1``.

    The reduction does not depend on the real-valued engine (the paper's
    §7 note): a subclass may swap :meth:`_check_resilience` and
    :meth:`_phases`, and keeps everything else.

    Attributes
    ----------
    paths_finder:
        The phase-1 sub-party (available after construction; its output and
        diagnostics are populated as rounds execute).
    projection_phase:
        The phase-2 sub-party (available once phase 1's boundary passed).
    """

    _check_resilience = staticmethod(check_resilience)

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        tree: LabeledTree,
        input_vertex: Label,
        root: Optional[Label] = None,
    ) -> None:
        super().__init__(pid, n, t)
        self._check_resilience(n, t)
        tree.require_vertex(input_vertex)
        self.tree = tree
        self.input_vertex = input_vertex
        self.root = tree.root_label if root is None else root
        self.paths_finder: Optional[ProtocolParty] = None
        self.projection_phase: Optional[ProtocolParty] = None
        self._inner: Optional[PhasedParty] = None
        if diameter(tree) <= 1:
            # Trivial input space: 0 rounds, output the own input.
            self.output = input_vertex
            return
        (phase1_rounds, make_finder), (phase2_rounds, make_projection) = (
            self._phases()
        )

        def make_phase1(_previous: object) -> ProtocolParty:
            self.paths_finder = make_finder()
            return self.paths_finder

        def make_phase2(path: TreePath) -> ProtocolParty:
            self.projection_phase = make_projection(path)
            return self.projection_phase

        self._inner = PhasedParty(
            pid,
            n,
            t,
            phases=[(phase1_rounds, make_phase1), (phase2_rounds, make_phase2)],
        )

    def _phases(self) -> TreeAAPhases:
        """PathsFinder and the projection phase, each on ``RealAA(1)``."""
        pid, n, t, tree, vertex = self.pid, self.n, self.t, self.tree, self.input_vertex
        finder_rounds = paths_finder_duration(tree, n, t)
        iterations = projection_phase_iterations(tree, n, t, self.root)

        def finder() -> ProtocolParty:
            return PathsFinderParty(pid, n, t, tree, vertex, root=self.root)

        def projection(path: TreePath) -> ProtocolParty:
            return ProjectionPhaseParty(pid, n, t, tree, path, vertex, iterations)

        return (finder_rounds, finder), (ROUNDS_PER_ITERATION * iterations, projection)

    @property
    def duration(self) -> int:
        return 0 if self._inner is None else self._inner.duration

    @property
    def path(self) -> Optional[TreePath]:
        """The path obtained from PathsFinder (``None`` until phase 1 ends)."""
        if self.paths_finder is None:
            return None
        return self.paths_finder.output

    def messages_for_round(self, round_index: int) -> Outbox:
        if self._inner is None:
            return {}
        return self._inner.messages_for_round(round_index)

    def receive_round(self, round_index: int, inbox: Inbox) -> None:
        if self._inner is None:
            return
        self._inner.receive_round(round_index, inbox)
        if self._inner.output is not None:
            self.output = self._inner.output
