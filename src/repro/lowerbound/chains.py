"""Executable chain-of-views constructions (the mechanism behind Theorem 1).

Fekete's proof builds, for a deterministic full-information protocol, a
chain of views ``V_0, …, V_s`` such that (i) adjacent views co-occur in a
single legal execution — two honest parties hold them simultaneously — and
(ii) Validity pins the outputs of the chain's endpoints to the two extreme
inputs.  Some adjacent pair must then exhibit an output gap ≥ ``D/s``.

This module makes the ``R = 1`` instance of that argument *runnable*: a
one-round full-information protocol is just a deterministic output rule
``f(view)``, and the chain is explicit.  Benchmark T4 and
``examples/lower_bound_demo.py`` apply it to the actual trimmed-mean and
safe-area-midpoint rules this library uses, exhibiting concrete adversarial
executions that force the predicted gap.

The view convention: party ``p``'s view after one round is the tuple of the
``n`` values it received (entry ``q`` = what party ``q`` sent to ``p``);
with authenticated channels the adversary controls only the entries of
corrupted parties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from ..protocols.realaa import trimmed_mean, trimmed_midpoint
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import diameter_path, distance
from ..trees.safe_area import safe_area_midpoint

#: A one-round full-information view: what each of the n parties reported.
View = Tuple[Any, ...]

#: A deterministic output rule for a one-round protocol.
OutputRule = Callable[[View], Any]


@dataclass
class ChainLink:
    """One adversarial execution connecting two adjacent views.

    In this execution the parties of ``byzantine_block`` are corrupted; they
    report ``high_value`` to the honest party holding ``view_after`` and
    ``low_value`` to the one holding ``view_before``.  All other parties are
    honest with the inputs their view entries show.
    """

    index: int
    byzantine_block: Tuple[int, ...]
    view_before: View
    view_after: View


@dataclass
class ChainDemonstration:
    """The outcome of running an output rule along the chain."""

    views: List[View]
    links: List[ChainLink]
    outputs: List[Any]
    gaps: List[float]
    max_gap: float
    witness_index: int  # link whose two honest outputs differ the most
    guaranteed_gap: float  # D / s — what the argument promises

    @property
    def witness(self) -> ChainLink:
        return self.links[self.witness_index]


def one_round_view_chain(n: int, t: int, low: Any, high: Any) -> List[View]:
    """The chain ``V_0 … V_s``: a sliding block of ``t`` parties flips
    ``low → high``.  ``V_0`` is all-``low``, ``V_s`` all-``high``,
    ``s = ⌈n/t⌉``."""
    if t < 1 or n < 1 or t >= n:
        raise ValueError("need 1 <= t < n")
    blocks = [tuple(range(i, min(i + t, n))) for i in range(0, n, t)]
    views: List[View] = []
    for k in range(len(blocks) + 1):
        flipped = {p for block in blocks[:k] for p in block}
        views.append(tuple(high if p in flipped else low for p in range(n)))
    return views


def chain_links(n: int, t: int, low: Any, high: Any) -> List[ChainLink]:
    """The executions connecting adjacent views of the chain."""
    views = one_round_view_chain(n, t, low, high)
    blocks = [tuple(range(i, min(i + t, n))) for i in range(0, n, t)]
    return [
        ChainLink(
            index=k,
            byzantine_block=blocks[k],
            view_before=views[k],
            view_after=views[k + 1],
        )
        for k in range(len(blocks))
    ]


def demonstrate_real(
    rule: OutputRule, n: int, t: int, low: float = 0.0, high: float = 1.0
) -> ChainDemonstration:
    """Run a real-valued output rule along the chain.

    Validity forces ``rule(V_0) = low`` and ``rule(V_s) = high`` (all-honest
    executions), so some adjacent pair — two honest parties inside one
    Byzantine execution — must differ by at least ``(high − low)/s``.
    """
    views = one_round_view_chain(n, t, low, high)
    links = chain_links(n, t, low, high)
    outputs = [rule(view) for view in views]
    gaps = [abs(outputs[k + 1] - outputs[k]) for k in range(len(links))]
    max_gap = max(gaps)
    return ChainDemonstration(
        views=views,
        links=links,
        outputs=outputs,
        gaps=gaps,
        max_gap=max_gap,
        witness_index=gaps.index(max_gap),
        guaranteed_gap=(high - low) / len(links),
    )


def demonstrate_tree(
    rule: Callable[[View], Label], tree: LabeledTree, n: int, t: int
) -> ChainDemonstration:
    """Corollary 1 made concrete: the chain with the diameter endpoints.

    The two extreme inputs are the endpoints of a longest path of *tree*
    (``D(T)``-distant vertices); gaps are tree distances.
    """
    longest = diameter_path(tree)
    low, high = longest.start, longest.end
    views = one_round_view_chain(n, t, low, high)
    links = chain_links(n, t, low, high)
    outputs = [rule(view) for view in views]
    gaps = [
        float(distance(tree, outputs[k], outputs[k + 1]))
        for k in range(len(links))
    ]
    max_gap = max(gaps)
    return ChainDemonstration(
        views=views,
        links=links,
        outputs=outputs,
        gaps=gaps,
        max_gap=max_gap,
        witness_index=gaps.index(max_gap),
        guaranteed_gap=longest.length / len(links),
    )


def trimmed_mean_rule(t: int) -> OutputRule:
    """The one-round rule RealAA's iterations use: trim ``t``/``t``, average."""

    def rule(view: View) -> float:
        return trimmed_mean(view, t)

    return rule


def trimmed_midpoint_rule(t: int) -> OutputRule:
    """The outline baseline's rule: trim ``t``/``t``, take the midpoint."""

    def rule(view: View) -> float:
        return trimmed_midpoint(view, t)

    return rule


def safe_area_midpoint_rule(tree: LabeledTree, t: int) -> Callable[[View], Label]:
    """The tree baseline's one-round rule: midpoint of the tree safe area."""

    def rule(view: View) -> Label:
        return safe_area_midpoint(tree, list(view), t)

    return rule
