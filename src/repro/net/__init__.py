"""Synchronous message-passing substrate (the model of Section 2).

Lockstep rounds, authenticated channels, and a rushing full-information
adversary hook.  See :mod:`repro.net.network` for the execution semantics.
"""

from .faults import CORRUPTION_MENU, FaultInjector, FaultModelError, FaultPlan
from .messages import Inbox, Message, Outbox, PartyId, broadcast
from .network import (
    AdversaryView,
    ByzantineModelError,
    ExecutionResult,
    ExecutionTrace,
    SynchronousNetwork,
    TraceLevel,
)
from .protocol import (
    PhasedParty,
    ProtocolParty,
    ProtocolStateError,
    SilentParty,
)
from .trace import (
    InvariantMonitor,
    InvariantViolation,
    MultiObserver,
    Observer,
    RoundRecord,
    TranscriptRecorder,
)
from .runner import run_fault_free, run_protocol

__all__ = [
    "PartyId",
    "Message",
    "Inbox",
    "Outbox",
    "broadcast",
    "ProtocolParty",
    "ProtocolStateError",
    "SilentParty",
    "PhasedParty",
    "SynchronousNetwork",
    "AdversaryView",
    "ExecutionResult",
    "ExecutionTrace",
    "TraceLevel",
    "ByzantineModelError",
    "FaultPlan",
    "FaultInjector",
    "FaultModelError",
    "CORRUPTION_MENU",
    "run_protocol",
    "run_fault_free",
    "Observer",
    "MultiObserver",
    "TranscriptRecorder",
    "RoundRecord",
    "InvariantMonitor",
    "InvariantViolation",
]
