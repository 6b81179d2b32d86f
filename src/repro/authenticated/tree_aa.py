"""TreeAA in the authenticated setting: ``t < n/2`` (the paper's §7 note).

"Our reduction is independent of the number of corrupted parties: whenever
protocol RealAA achieves AA on ``[1, 2·|V(T)|]``, our protocol TreeAA
achieves AA on the input space tree ``T``" — demonstrated here by swapping
the real-valued engine.  With the Dolev–Strong exact-AA engine the two
stages each cost ``t + 1`` rounds, tolerate every ``t < n/2``, and (since
the engine is *exact*) the honest parties obtain identical paths and
identical output vertices — AA with room to spare.

Round-optimality at ``t < n/2`` would require Proxcensus [22] as the
engine (out of scope here); this module reproduces the *reduction* claim,
which is the paper's point.
"""

from __future__ import annotations

from typing import Optional

from ..core.closest_int import closest_int
from ..core.errors import ValidityViolationError, check_index_in_range
from ..net.messages import Inbox, Outbox, PartyId
from ..net.protocol import PhasedParty, ProtocolParty
from ..trees.euler import EulerList, list_construction
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath, diameter
from ..trees.projection import project_onto_path
from .exact_aa import ExactRealAAParty, check_authenticated_resilience
from .signatures import SignatureAuthority


class AuthPathsFinderParty(ExactRealAAParty):
    """PathsFinder with the exact engine: ``t + 1`` rounds, ``t < n/2``."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        authority: SignatureAuthority,
        tree: LabeledTree,
        input_vertex: Label,
        root: Optional[Label] = None,
    ) -> None:
        tree.require_vertex(input_vertex)
        euler = list_construction(tree, root)
        index = euler.first_occurrence(input_vertex)
        # Domain separation: this phase's signatures must be useless in the
        # projection phase (and vice versa).
        super().__init__(pid, n, t, authority, float(index), session="tree-aa/pf")
        self.tree = tree
        self.euler: EulerList = euler

    def _final_output(self) -> TreePath:
        index = closest_int(self.value)
        check_index_in_range(index, len(self.euler), "L", self.value)
        return TreePath(self.euler.rooted.root_path(self.euler[index]))


class AuthProjectionPhaseParty(ExactRealAAParty):
    """Phase 2 with the exact engine; the line-6 clamp kept for symmetry
    (unreachable with an exact engine — all paths coincide)."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        authority: SignatureAuthority,
        tree: LabeledTree,
        path: TreePath,
        input_vertex: Label,
    ) -> None:
        projection = project_onto_path(tree, input_vertex, path)
        super().__init__(
            pid,
            n,
            t,
            authority,
            float(path.position_of(projection)),
            session="tree-aa/proj",
        )
        self.path = path

    def _final_output(self) -> Label:
        index = closest_int(self.value)
        if index < 0:
            raise ValidityViolationError(
                f"closestInt({self.value}) = {index} below the path start — "
                "engine validity violated"
            )
        if index >= len(self.path):
            return self.path.end
        return self.path[index]


class AuthTreeAAParty(ProtocolParty):
    """TreeAA with the authenticated exact-AA engine (``t < n/2``)."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        authority: SignatureAuthority,
        tree: LabeledTree,
        input_vertex: Label,
        root: Optional[Label] = None,
    ) -> None:
        super().__init__(pid, n, t)
        check_authenticated_resilience(n, t)
        tree.require_vertex(input_vertex)
        self.tree = tree
        self.authority = authority
        self.signer = authority.signer(pid)
        self.input_vertex = input_vertex
        self.root = tree.root_label if root is None else root
        self.paths_finder: Optional[AuthPathsFinderParty] = None
        self.projection_phase: Optional[AuthProjectionPhaseParty] = None
        self._inner: Optional[PhasedParty] = None
        if diameter(tree) <= 1:
            self.output = input_vertex
            return
        phase_rounds = t + 1

        def make_phase1(_previous: object) -> ProtocolParty:
            self.paths_finder = AuthPathsFinderParty(
                pid, n, t, authority, tree, input_vertex, root=self.root
            )
            return self.paths_finder

        def make_phase2(path: TreePath) -> ProtocolParty:
            self.projection_phase = AuthProjectionPhaseParty(
                pid, n, t, authority, tree, path, input_vertex
            )
            return self.projection_phase

        self._inner = PhasedParty(
            pid,
            n,
            t,
            phases=[(phase_rounds, make_phase1), (phase_rounds, make_phase2)],
        )

    @property
    def duration(self) -> int:
        return 0 if self._inner is None else self._inner.duration

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


def run_auth_tree_aa(
    tree: LabeledTree,
    inputs,
    t: int,
    adversary=None,
    root: Optional[Label] = None,
):
    """Run authenticated TreeAA end to end; returns a
    :class:`~repro.core.api.TreeAAOutcome`."""
    from ..core.api import tree_aa_outcome
    from ..net.runner import run_protocol

    n = len(inputs)
    authority = SignatureAuthority()
    execution = run_protocol(
        n,
        t,
        lambda pid: AuthTreeAAParty(
            pid, n, t, authority, tree, inputs[pid], root=root
        ),
        adversary=adversary,
    )
    return tree_aa_outcome(execution, tree, inputs)
