"""TreeAA in the authenticated setting: ``t < n/2`` (the paper's §7 note).

"Our reduction is independent of the number of corrupted parties: whenever
protocol RealAA achieves AA on ``[1, 2·|V(T)|]``, our protocol TreeAA
achieves AA on the input space tree ``T``" — demonstrated here by a
:class:`~repro.core.tree_aa.TreeAAParty` subclass that swaps only the
real-valued engine: the resilience check becomes ``t < n/2`` and both
phases run the Dolev–Strong exact-AA engine, ``t + 1`` rounds each.  The
tree↔ℝ maps, the phase plumbing and the trivial-diameter case are
TreeAA's own.  Since the engine is *exact*, the honest parties obtain
identical paths and identical output vertices — AA with room to spare.

Round-optimality at ``t < n/2`` would require Proxcensus [22] as the
engine (out of scope here); this module reproduces the *reduction* claim,
which is the paper's point.
"""

from __future__ import annotations

from typing import Optional

from ..core.paths_finder import euler_list, euler_root_path
from ..core.projection_aa import project_position
from ..core.tree_aa import TreeAAParty, TreeAAPhases, clamp_to_path
from ..net.messages import PartyId
from ..net.protocol import ProtocolParty
from ..trees.euler import EulerList
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import TreePath
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
        euler = euler_list(tree, root)
        index = euler.first_occurrence(input_vertex)
        # Domain separation: this phase's signatures must be useless in the
        # projection phase (and vice versa).
        super().__init__(pid, n, t, authority, float(index), session="tree-aa/pf")
        self.tree = tree
        self.euler: EulerList = euler

    def _final_output(self) -> TreePath:
        return euler_root_path(self.euler, self.value)[1]


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
        position = project_position(tree, input_vertex, path)[1]
        super().__init__(pid, n, t, authority, position, session="tree-aa/proj")
        self.path = path

    def _final_output(self) -> Label:
        return clamp_to_path(self.path, self.value)


class AuthTreeAAParty(TreeAAParty):
    """TreeAA with the authenticated exact-AA engine (``t < n/2``)."""

    _check_resilience = staticmethod(check_authenticated_resilience)

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
        # Set before TreeAA's constructor, which builds phase 1.
        self.authority = authority
        self.signer = authority.signer(pid)
        super().__init__(pid, n, t, tree, input_vertex, root=root)

    def _phases(self) -> TreeAAPhases:
        """Both phases on the exact engine, ``t + 1`` rounds each."""
        pid, n, t, tree, vertex = self.pid, self.n, self.t, self.tree, self.input_vertex
        authority = self.authority

        def finder() -> ProtocolParty:
            return AuthPathsFinderParty(pid, n, t, authority, tree, vertex, self.root)

        def projection(path: TreePath) -> ProtocolParty:
            return AuthProjectionPhaseParty(pid, n, t, authority, tree, path, vertex)

        return (t + 1, finder), (t + 1, projection)


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
