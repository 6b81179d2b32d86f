"""Round-by-round observation of synchronous executions.

An :class:`Observer` attached to :class:`~repro.net.network
.SynchronousNetwork` sees every round after delivery — the honest traffic,
the Byzantine traffic, and the party objects.  Concrete observers:

* :class:`TranscriptRecorder` — records everything and renders a readable
  transcript (the debugging view of an execution);
* :class:`InvariantMonitor` — evaluates predicates over the parties after
  every round and fails fast with the round number when one breaks (used
  by tests to pin *when* a protocol invariant would be violated, not just
  that the final output is wrong);
* :class:`~repro.observability.collector.MetricsCollector` (in
  :mod:`repro.observability`) — structured per-round metrics feeding the
  JSONL trace export;
* :class:`MultiObserver` — fans one execution out to several observers,
  so a transcript, an invariant monitor, and a metrics collector can all
  watch the same run.

Observers are handed each round's Byzantine traffic as
:class:`~repro.net.messages.Message` objects, built only when an observer
is attached; delivery itself takes the same path either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .messages import Message, Outbox, PartyId


class Observer:
    """Base observer: override :meth:`on_round`."""

    def on_round(
        self,
        round_index: int,
        honest_messages: Dict[PartyId, Outbox],
        byzantine_messages: Sequence[Message],
        parties: Mapping[PartyId, Any],
        corrupted: Sequence[PartyId],
    ) -> None:
        """Called once per round, after delivery and processing."""


@dataclass
class RoundRecord:
    """Everything that happened in one round."""

    round_index: int
    honest_messages: Dict[PartyId, Outbox]
    byzantine_messages: Tuple[Message, ...]
    corrupted: Tuple[PartyId, ...]


class TranscriptRecorder(Observer):
    """Record every round; render a human-readable transcript.

    ``payload_filter`` optionally shortens payloads in the rendering (raw
    echo vectors are long); recording always keeps the originals.
    """

    def __init__(
        self, payload_filter: Optional[Callable[[Any], Any]] = None
    ) -> None:
        self.rounds: List[RoundRecord] = []
        self._payload_filter = payload_filter or self._default_filter

    @staticmethod
    def _default_filter(payload: Any) -> Any:
        if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
            if len(payload) >= 3 and isinstance(payload[2], dict):
                return (payload[0], payload[1], f"<{len(payload[2])} entries>")
            return payload[:3]
        return payload

    def on_round(
        self,
        round_index: int,
        honest_messages: Mapping[PartyId, Outbox],
        byzantine_messages: Sequence[Message],
        parties: Mapping[PartyId, Any],
        corrupted: Sequence[PartyId],
    ) -> None:
        self.rounds.append(
            RoundRecord(
                round_index=round_index,
                honest_messages={
                    pid: dict(outbox) for pid, outbox in honest_messages.items()
                },
                byzantine_messages=tuple(byzantine_messages),
                corrupted=tuple(sorted(corrupted)),
            )
        )

    def render(self, max_rounds: Optional[int] = None) -> str:
        """A compact text transcript of the execution."""
        lines: List[str] = []
        for record in self.rounds[: max_rounds or len(self.rounds)]:
            lines.append(
                f"— round {record.round_index} "
                f"(corrupted: {list(record.corrupted) or 'none'})"
            )
            for pid in sorted(record.honest_messages):
                outbox = record.honest_messages[pid]
                if not outbox:
                    continue
                sample = self._payload_filter(next(iter(outbox.values())))
                lines.append(
                    f"    {pid} → {len(outbox)} recipients: {sample!r}"
                )
            by_sender: Dict[PartyId, int] = {}
            for message in record.byzantine_messages:
                by_sender[message.sender] = by_sender.get(message.sender, 0) + 1
            for sender in sorted(by_sender):
                lines.append(
                    f"    {sender} (byz) → {by_sender[sender]} messages"
                )
        return "\n".join(lines)

    @property
    def byzantine_message_total(self) -> int:
        return sum(len(r.byzantine_messages) for r in self.rounds)


class MultiObserver(Observer):
    """Fan one execution's observations out to several observers.

    Observers are notified in the given order; an exception from one (for
    example an :class:`InvariantViolation`) aborts the round and skips the
    remaining observers — the fail-fast semantics invariant monitoring
    wants.
    """

    def __init__(self, *observers: Observer) -> None:
        self.observers: Tuple[Observer, ...] = tuple(observers)

    def on_round(
        self,
        round_index: int,
        honest_messages: Mapping[PartyId, Outbox],
        byzantine_messages: Sequence[Message],
        parties: Mapping[PartyId, Any],
        corrupted: Sequence[PartyId],
    ) -> None:
        for observer in self.observers:
            observer.on_round(
                round_index, honest_messages, byzantine_messages, parties, corrupted
            )


class InvariantViolation(AssertionError):
    """An execution invariant broke; carries the round it broke in."""

    def __init__(self, name: str, round_index: int) -> None:
        super().__init__(f"invariant {name!r} violated in round {round_index}")
        self.name = name
        self.round_index = round_index


class InvariantMonitor(Observer):
    """Check named predicates over the honest parties after every round.

    Each predicate receives ``(round_index, parties, corrupted)`` and
    returns ``True`` while the invariant holds.
    """

    def __init__(
        self,
        invariants: Dict[str, Callable[[int, Mapping[PartyId, Any], Sequence[PartyId]], bool]],
    ) -> None:
        self.invariants = dict(invariants)
        self.checked_rounds = 0

    def on_round(
        self,
        round_index: int,
        honest_messages: Mapping[PartyId, Outbox],
        byzantine_messages: Sequence[Message],
        parties: Mapping[PartyId, Any],
        corrupted: Sequence[PartyId],
    ) -> None:
        self.checked_rounds += 1
        for name, predicate in self.invariants.items():
            if not predicate(round_index, parties, corrupted):
                raise InvariantViolation(name, round_index)
