"""Structured per-round metrics for protocol executions.

:class:`MetricsCollector` is an :class:`~repro.net.trace.Observer` that
turns one synchronous execution into machine-readable numbers: message and
payload-unit counts split by sender class, the convex-hull diameter of the
honest parties' current estimates on the input tree (the quantity whose
shrinkage Theorem 4 is about), the spread of honest real values (the
RealAA convergence measure of Theorem 3), and wall-clock time per round.

The collector is *pull-free*: it never calls into the network, it only
consumes what every observer is handed after delivery (honest outboxes
plus the round's Byzantine ``Message`` objects).  Payload units are
summed with :func:`~repro.net.network.payload_unit_sum`, so a broadcast
payload is walked once per round, not once per recipient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..net.messages import Message, Outbox, PartyId
from ..net.network import payload_unit_sum
from ..net.protocol import ProtocolStateError
from ..net.trace import Observer
from ..trees.convex import steiner_diameter
from ..trees.labeled_tree import Label, LabeledTree

#: Extracts a party's current vertex estimate (or ``None`` when it has none).
EstimateFn = Callable[[Any], Optional[Label]]


@dataclass
class RoundMetrics:
    """The structured record of one observed round.

    ``hull_diameter`` and ``value_spread`` are convergence measures and are
    ``None`` when they do not apply (no tree was supplied / the parties
    carry no real-valued state).  ``wall_seconds`` is the only
    non-deterministic field; comparisons (tests, :func:`~repro
    .observability.events.diff_runs`) ignore it.
    """

    round_index: int
    #: Honest / Byzantine messages delivered this round.
    honest_messages: int
    byzantine_messages: int
    #: Payload sizes in atomic value units (see :func:`repro.net.network
    #: .payload_units`).
    honest_payload_units: int
    byzantine_payload_units: int
    #: Parties corrupted so far (cumulative, sorted).
    corrupted: Tuple[PartyId, ...]
    #: Honest parties whose ``output`` is already set.
    outputs_decided: int
    #: Diameter of the convex hull of honest estimates on the tree.
    hull_diameter: Optional[int]
    #: ``max - min`` of honest parties' real values (RealAA-style state).
    value_spread: Optional[float]
    #: Wall-clock seconds since the previous observation.
    wall_seconds: float

    @property
    def message_count(self) -> int:
        return self.honest_messages + self.byzantine_messages

    @property
    def payload_unit_count(self) -> int:
        return self.honest_payload_units + self.byzantine_payload_units


class MetricsCollector(Observer):
    """Compute :class:`RoundMetrics` for every round of an execution.

    Parameters
    ----------
    tree:
        The public input-space tree.  When given, each round records the
        Steiner (convex-hull) diameter of the honest parties' current
        vertex estimates — the tree-AA convergence measure.
    estimate_fn:
        How to read a party's current vertex estimate.  The default uses
        the party's ``output`` once set and falls back to its
        ``input_vertex`` attribute (the estimate before any output exists);
        parties exposing neither contribute nothing to the hull.
    clock:
        The monotonic clock used for ``wall_seconds`` (injectable so tests
        can make timing deterministic).
    """

    def __init__(
        self,
        tree: Optional[LabeledTree] = None,
        estimate_fn: Optional[EstimateFn] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.tree = tree
        self._estimate_fn = estimate_fn
        self._clock = clock
        self._last_time = clock()
        self.rounds: List[RoundMetrics] = []

    # -- estimate extraction ------------------------------------------------

    def _estimate(self, party: Any) -> Optional[Label]:
        if self._estimate_fn is not None:
            return self._estimate_fn(party)
        if self.tree is None:  # only reachable when a tree was supplied
            raise ProtocolStateError("estimate requested without tree/estimate_fn")
        output = getattr(party, "output", None)
        if output is not None and output in self.tree:
            return output
        vertex = getattr(party, "input_vertex", None)
        if vertex is not None and vertex in self.tree:
            return vertex
        return None

    # -- Observer interface -------------------------------------------------

    def on_round(
        self,
        round_index: int,
        honest_messages: Dict[PartyId, Outbox],
        byzantine_messages: Sequence[Message],
        parties: Mapping[PartyId, Any],
        corrupted: Sequence[PartyId],
    ) -> None:
        now = self._clock()
        wall = now - self._last_time
        self._last_time = now

        corrupted_set = set(corrupted)
        honest_parties = [
            parties[pid] for pid in sorted(parties) if pid not in corrupted_set
        ]

        hull_diameter: Optional[int] = None
        if self.tree is not None:
            estimates = [
                estimate
                for estimate in (self._estimate(p) for p in honest_parties)
                if estimate is not None
            ]
            if estimates:
                hull_diameter = steiner_diameter(self.tree, estimates)

        values = [
            value
            for value in (getattr(p, "value", None) for p in honest_parties)
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        value_spread = (max(values) - min(values)) if values else None

        self.rounds.append(
            RoundMetrics(
                round_index=round_index,
                honest_messages=sum(
                    len(outbox) for outbox in honest_messages.values()
                ),
                byzantine_messages=len(byzantine_messages),
                honest_payload_units=payload_unit_sum(
                    payload
                    for outbox in honest_messages.values()
                    for payload in outbox.values()
                ),
                byzantine_payload_units=payload_unit_sum(
                    message.payload for message in byzantine_messages
                ),
                corrupted=tuple(sorted(corrupted_set)),
                outputs_decided=sum(
                    1
                    for p in honest_parties
                    if getattr(p, "output", None) is not None
                ),
                hull_diameter=hull_diameter,
                value_spread=value_spread,
                wall_seconds=wall,
            )
        )

    # -- aggregates ---------------------------------------------------------

    @property
    def rounds_observed(self) -> int:
        return len(self.rounds)

    @property
    def honest_message_total(self) -> int:
        return sum(r.honest_messages for r in self.rounds)

    @property
    def byzantine_message_total(self) -> int:
        return sum(r.byzantine_messages for r in self.rounds)

    @property
    def message_total(self) -> int:
        return self.honest_message_total + self.byzantine_message_total

    @property
    def payload_unit_total(self) -> int:
        return sum(r.payload_unit_count for r in self.rounds)

    @property
    def final_hull_diameter(self) -> Optional[int]:
        """The last round's hull diameter (``None`` without a tree)."""
        for record in reversed(self.rounds):
            if record.hull_diameter is not None:
                return record.hull_diameter
        return None

    def summary(self) -> Dict[str, Any]:
        """Aggregate totals as a JSON-serialisable dict."""
        return {
            "rounds": self.rounds_observed,
            "honest_messages": self.honest_message_total,
            "byzantine_messages": self.byzantine_message_total,
            "messages": self.message_total,
            "payload_units": self.payload_unit_total,
            "per_round_messages": [r.message_count for r in self.rounds],
            "final_hull_diameter": self.final_hull_diameter,
        }
