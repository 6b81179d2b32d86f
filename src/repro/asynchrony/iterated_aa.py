"""Asynchronous iterated AA — the model of [1], [12], and, on trees, [33].

The asynchronous counterpart of the iteration-based outline: in every
iteration a party reliably broadcasts its current value, collects values
from ``n − t`` parties, and applies a safe-area update.  Asynchrony adds
one famous wrinkle: two honest parties may collect *different* ``n − t``
subsets, so without care their safe areas need not overlap enough.  The
classic **witness technique** repairs this:

1. after delivering ``n − t`` values for iteration ``r``, a party reports
   the *set of senders* it has seen (a plain authenticated message);
2. a reporter ``j`` becomes my *witness* once every sender in ``j``'s
   report has also been delivered to me (reliable-broadcast totality
   guarantees this eventually happens for honest ``j``);
3. only after accumulating ``n − t`` witnesses does the party update.

Any two honest parties then share ``≥ n − 2t ≥ t + 1`` witnesses — hence
at least one *honest* common witness, whose ``n − t`` reported values both
parties used.  With the trimmed-midpoint (reals) or safe-area-midpoint
(trees) update this overlap yields the classic per-iteration halving, so
``O(log(D/ε))`` iterations suffice — exactly the ``O(log D)`` bound of
[33] that TreeAA improves on in the synchronous model.

Byzantine origins are harmless: reliable broadcast makes their values
*consistent* across honest parties, the update rules trim/trim-robustly
against up to ``t`` of them, and malformed values are rejected at
delivery.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set

from ..baselines.iterative_real import halving_iterations
from ..net.messages import PartyId
from ..protocols.realaa import is_real, trimmed_midpoint
from ..trees.labeled_tree import Label, LabeledTree
from ..trees.paths import diameter
from ..trees.safe_area import safe_area_midpoint
from .network import AsyncOutbox, AsyncParty
from .rbc import BrachaBroadcast


@dataclass
class AsyncIterationRecord:
    """Diagnostics for one completed asynchronous iteration."""

    iteration: int
    value_count: int
    witness_count: int
    new_value: Any


class IteratedAsyncAAParty(AsyncParty):
    """Shared skeleton: RBC value distribution + witnesses + safe update.

    Subclasses provide the value validator, the update rule, and the final
    output mapping.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        input_value: Any,
        iterations: int,
    ) -> None:
        super().__init__(pid, n, t)
        if n <= 3 * t:
            raise ValueError(f"need n > 3t (got n={n}, t={t})")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.input_value = input_value
        self.value: Any = input_value
        self.iteration = 0
        self.history: List[AsyncIterationRecord] = []
        #: iteration -> origin -> delivered value
        self._delivered: Dict[int, Dict[PartyId, Any]] = {}
        #: iteration -> reporter -> reported sender set
        self._reports: Dict[int, Dict[PartyId, FrozenSet[PartyId]]] = {}
        self._reported: Set[int] = set()
        self.rbc = BrachaBroadcast(
            pid, n, t, self._on_rbc_deliver, validate=self._validate_value
        )

    # -- protocol hooks --------------------------------------------------

    @abc.abstractmethod
    def _validate_value(self, value: Any) -> bool:
        """Whether *value* is a legal protocol value."""

    @abc.abstractmethod
    def _update(self, values: List[Any]) -> Any:
        """The safe-area update over the collected values."""

    def _final_output(self) -> Any:
        return self.value

    # -- async machinery ---------------------------------------------------

    def start(self) -> AsyncOutbox:
        return self.rbc.broadcast(("val", 0), self.value) + self._progress()

    def on_message(self, sender: PartyId, payload: Any) -> AsyncOutbox:
        out: AsyncOutbox = []
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == "report"
        ):
            self._on_report(sender, payload[1], payload[2])
        else:
            out.extend(self.rbc.handle(sender, payload))
        out.extend(self._progress())
        return out

    def _on_rbc_deliver(self, origin: PartyId, tag: Any, value: Any) -> None:
        if (
            isinstance(tag, tuple)
            and len(tag) == 2
            and tag[0] == "val"
            and isinstance(tag[1], int)
            and 0 <= tag[1] < self.iterations
        ):
            self._delivered.setdefault(tag[1], {})[origin] = value

    def _on_report(self, reporter: PartyId, iteration: Any, senders: Any) -> None:
        if not isinstance(iteration, int) or not 0 <= iteration < self.iterations:
            return
        if not isinstance(senders, tuple) or len(senders) > self.n:
            return
        if not all(isinstance(s, int) and 0 <= s < self.n for s in senders):
            return
        # First report per reporter counts; honest parties report once.
        self._reports.setdefault(iteration, {}).setdefault(
            reporter, frozenset(senders)
        )

    def _progress(self) -> AsyncOutbox:
        """Drive the iteration state machine as far as possible."""
        out: AsyncOutbox = []
        while self.iteration < self.iterations:
            r = self.iteration
            delivered = self._delivered.setdefault(r, {})
            if r not in self._reported:
                if len(delivered) < self.n - self.t:
                    break
                self._reported.add(r)
                out.extend(
                    self.broadcast(
                        ("report", r, tuple(sorted(delivered)))
                    )
                )
            witnesses = {
                reporter
                for reporter, senders in self._reports.get(r, {}).items()
                if senders <= set(delivered)
            }
            if len(witnesses) < self.n - self.t:
                break
            values = [delivered[origin] for origin in sorted(delivered)]
            self.value = self._update(values)
            self.history.append(
                AsyncIterationRecord(
                    iteration=r,
                    value_count=len(values),
                    witness_count=len(witnesses),
                    new_value=self.value,
                )
            )
            self.iteration += 1
            if self.iteration == self.iterations:
                self.output = self._final_output()
                break
            out.extend(
                self.rbc.broadcast(("val", self.iteration), self.value)
            )
        return out


class AsyncRealAAParty(IteratedAsyncAAParty):
    """Asynchronous AA on ℝ: trimmed-midpoint updates, halving per
    iteration — the structure of [12]/[1] at resilience ``t < n/3``."""

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        input_value: float,
        epsilon: float = 1.0,
        known_range: Optional[float] = None,
        iterations: Optional[int] = None,
    ) -> None:
        if not is_real(input_value):
            raise ValueError(f"input must be a finite real, got {input_value!r}")
        if iterations is None:
            if known_range is None:
                raise ValueError("give known_range or iterations")
            iterations = halving_iterations(known_range, epsilon)
        super().__init__(pid, n, t, float(input_value), iterations)
        self.epsilon = epsilon

    def _validate_value(self, value: Any) -> bool:
        return is_real(value)

    def _update(self, values: List[Any]) -> float:
        return trimmed_midpoint([float(v) for v in values], self.t)


class AsyncTreeAAParty(IteratedAsyncAAParty):
    """Asynchronous AA on trees: the [33]-style protocol TreeAA improves on.

    Values are vertices of the public input space tree; the update is the
    midpoint of the tree safe area; ``O(log D(T))`` iterations reach
    1-agreement.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        tree: LabeledTree,
        input_vertex: Label,
        iterations: Optional[int] = None,
    ) -> None:
        tree.require_vertex(input_vertex)
        if iterations is None:
            from ..baselines.iterative_tree import tree_halving_iterations

            iterations = tree_halving_iterations(diameter(tree))
        self.tree = tree
        super().__init__(pid, n, t, input_vertex, iterations)

    def _validate_value(self, value: Any) -> bool:
        try:
            return value in self.tree
        except TypeError:
            return False

    def _update(self, values: List[Any]) -> Label:
        return safe_area_midpoint(self.tree, values, self.t)
