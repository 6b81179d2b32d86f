"""Messages and authenticated envelopes for the synchronous network.

The model (Section 2) assumes a fully connected network of authenticated
channels: when a party receives a message it knows, unforgeably, who sent
it.  The simulator enforces this structurally — the ``sender`` field of a
delivered :class:`Message` is stamped by the network, never by the
(possibly Byzantine) sender, so no party can impersonate another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping

PartyId = int

#: The declared wire-message types of the whole codebase, keyed by the tag
#: string every tagged payload tuple starts with.  This registry is the
#: source of truth for the PL003 handler-exhaustiveness lint
#: (:mod:`repro.statics.rules.handlers`): a protocol module may only
#: construct or match payload tags declared here, and every tag it sends it
#: must also handle.  New protocol variants add their tags (and handlers)
#: here first.
MESSAGE_TYPES: Mapping[str, str] = {
    "val": (
        "value distribution: gradecast round 1 "
        "(RealAA appends its accusation list); also the per-iteration "
        "RBC session tag of the asynchronous iterated-AA baseline"
    ),
    "echo": (
        "gradecast round-2 echo vector {origin: value}; also Bracha RBC's "
        "echo message in the asynchronous substrate"
    ),
    "sup": "gradecast round-3 support vector {origin: value}",
    "nval": "naive 1-round value distribution (ablation A2 baseline)",
    "dsmsg": "Dolev-Strong relay envelope: (tag, session, round, items)",
    "ds": (
        "Dolev-Strong signature preimage (never delivered as a payload on "
        "its own; only signed and verified inside 'dsmsg' items)"
    ),
    "init": "Bracha reliable-broadcast init (asynchronous substrate)",
    "ready": "Bracha reliable-broadcast ready (asynchronous substrate)",
    "report": "asynchronous iterated-AA progress report (iteration, origins)",
}

#: Declared types that are *not* wire envelopes and therefore need no
#: receive-side handler: signature preimages are constructed and verified,
#: never dispatched on.
HANDLER_EXEMPT_TYPES: FrozenSet[str] = frozenset({"ds"})

#: Round-r outgoing traffic of one party: recipient → payload.
Outbox = Dict[PartyId, Any]

#: Round-r incoming traffic of one party: authenticated sender → payload.
Inbox = Dict[PartyId, Any]


@dataclass(frozen=True)
class Message:
    """A single authenticated point-to-point message.

    ``sender`` is stamped by the network (authenticated channels), ``round``
    is the synchronous round in which the message was sent — and, in the
    synchronous model, also the round in which it is delivered.
    """

    sender: PartyId
    recipient: PartyId
    round: int
    payload: Any

    def __repr__(self) -> str:  # compact traces
        return (
            f"Message(r{self.round} {self.sender}->{self.recipient}: "
            f"{self.payload!r})"
        )


def broadcast(payload: Any, n: int) -> Outbox:
    """An outbox sending *payload* to every party (including oneself).

    Self-delivery keeps protocol code uniform: a party processes its own
    value through the same path as everyone else's.
    """
    return {recipient: payload for recipient in range(n)}
