"""The synchronous network simulator.

Implements the model of Section 2: ``n`` parties in a fully connected
network of authenticated channels, with synchronized clocks and guaranteed
delivery within the round.  In simulation this is lockstep execution:

1. every honest party emits its round-``r`` messages;
2. the adversary — *rushing* and with full information — inspects the honest
   traffic and all honest state, may adaptively corrupt further parties (up
   to ``t`` in total), and chooses the Byzantine parties' round-``r``
   messages;
3. all messages are delivered; every honest party processes its inbox.

Authenticated channels are enforced structurally: Byzantine messages can
only ever carry a corrupted party's own id as the sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .faults import FaultInjector, FaultPlan
from .messages import Inbox, Message, Outbox, PartyId
from .protocol import ProtocolParty

if TYPE_CHECKING:  # runtime import would be circular (adversary imports net)
    from ..adversary.base import Adversary
    from .trace import Observer


class ByzantineModelError(RuntimeError):
    """Raised when an adversary exceeds the powers the model grants it."""


class TraceLevel(IntEnum):
    """How much accounting :class:`ExecutionTrace` performs per round.

    ``AGGREGATE``
        Message *counts* only (total, per sender class, per round).  The
        executor skips payload-unit accounting and nothing else: both
        levels deliver through the same path.
    ``FULL``
        Everything ``AGGREGATE`` tracks plus payload-unit accounting, the
        level the message-complexity experiment (T8) needs.  The default.
        Each round walks every distinct payload object once
        (:func:`payload_unit_sum`), not once per recipient.

    An attached :class:`~repro.net.trace.Observer` is handed the round's
    Byzantine traffic as :class:`~repro.net.messages.Message` objects at
    either level; honest traffic is never turned into objects.
    """

    AGGREGATE = 0
    FULL = 1


@dataclass
class AdversaryView:
    """Everything the (full-information, rushing) adversary sees in a round.

    ``honest_messages`` is the honest round-``r`` traffic — available
    *before* the adversary commits its own messages (rushing).  The honest
    party objects themselves are exposed read-only by convention: the
    computationally unbounded adversary of the paper knows the full state of
    the system, and worst-case strategies exploit it.
    """

    round_index: int
    n: int
    t: int
    corrupted: Set[PartyId]
    honest_messages: Dict[PartyId, Outbox]
    parties: Mapping[PartyId, ProtocolParty]

    @property
    def honest(self) -> Set[PartyId]:
        return set(range(self.n)) - self.corrupted


def payload_units(payload: Any) -> int:
    """The size of a payload in atomic *value units*.

    Counts the scalars a real network would have to encode: each atom
    (number, string, ``None``, …) is one unit; containers contribute the
    sum of their parts (dict keys included).  Used by the
    message-complexity experiment (T8): the paper cites ``O(R·n³)``
    message complexity for RealAA ([6]), which here shows up as ``O(n²)``
    messages per round carrying ``O(n)``-entry echo/support vectors.

    Iterative on purpose: the payload is adversary-controlled, and a
    Byzantine sender must not be able to crash the *simulator* with a
    deeply nested container (Python's recursion limit is ~1000 frames).
    """
    total = 0
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            for key, value in item.items():
                stack.append(key)
                stack.append(value)
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            total += 1
    return total


def payload_unit_sum(payloads: Iterable[Any]) -> int:
    """The total :func:`payload_units` of *payloads*, one walk per object.

    A broadcast hands the *same* payload object to every recipient, so
    the sum memoises each object's units by ``id()`` for the duration of
    this call.  That is exact: the memo holds a reference to every object
    it has seen, so no id can be recycled for a different object before
    the sum returns, and payloads are never mutated in flight.
    """
    seen: Dict[int, Tuple[Any, int]] = {}
    total = 0
    for payload in payloads:
        entry = seen.get(id(payload))
        if entry is None:
            entry = seen[id(payload)] = (payload, payload_units(payload))
        total += entry[1]
    return total


@dataclass
class ExecutionTrace:
    """Accounting for one protocol execution.

    ``honest_payload_units`` / ``byzantine_payload_units`` are only
    accumulated at :attr:`TraceLevel.FULL`; at ``AGGREGATE`` they stay 0
    while every message *count* remains exact.
    """

    level: TraceLevel = TraceLevel.FULL
    rounds_executed: int = 0
    honest_message_count: int = 0
    byzantine_message_count: int = 0
    honest_payload_units: int = 0
    byzantine_payload_units: int = 0
    #: Messages sent in each round (honest + Byzantine).
    per_round_messages: List[int] = field(default_factory=list)
    corruption_rounds: Dict[PartyId, int] = field(default_factory=dict)
    #: Honest messages altered by an attached :class:`~repro.net.faults
    #: .FaultPlan` (all stay 0 on model-clean executions).
    faults_dropped: int = 0
    faults_duplicated: int = 0
    faults_corrupted: int = 0

    @property
    def message_count(self) -> int:
        return self.honest_message_count + self.byzantine_message_count

    @property
    def payload_unit_count(self) -> int:
        return self.honest_payload_units + self.byzantine_payload_units


@dataclass
class ExecutionResult:
    """The outcome of a synchronous execution."""

    outputs: Dict[PartyId, Any]
    honest: Set[PartyId]
    corrupted: Set[PartyId]
    trace: ExecutionTrace
    #: pid → party.  A plain dict of the live parties on the reference
    #: engine; a read-only mapping of views on the batch backend.
    parties: Mapping[PartyId, ProtocolParty]

    @property
    def honest_outputs(self) -> Dict[PartyId, Any]:
        honest = sorted(self.honest)
        return dict(zip(honest, map(self.outputs.__getitem__, honest)))


def admit_corruptions(
    corrupted: Set[PartyId],
    requested: Iterable[PartyId],
    n: int,
    t: int,
    trace: ExecutionTrace,
    round_index: int,
) -> List[PartyId]:
    """Corrupt the *requested* parties within the budget *t*: every engine's
    one corruption check.  Returns the newly corrupted ids, ascending.

    The budget is checked first, then the ids in ascending order; a
    failed check raises before anything is admitted."""
    new = set(requested) - corrupted
    if not new:
        return []
    if len(corrupted) + len(new) > t:
        raise ByzantineModelError(
            f"adversary requested {len(corrupted) + len(new)} "
            f"corruptions but the budget is t={t}"
        )
    admitted = sorted(new)
    unknown = [pid for pid in admitted if not 0 <= pid < n]
    if unknown:
        raise ByzantineModelError(f"cannot corrupt unknown party {unknown[0]}")
    corrupted.update(admitted)
    trace.corruption_rounds.update(dict.fromkeys(admitted, round_index))
    return admitted


class SynchronousNetwork:
    """Lockstep executor for one protocol instance.

    Parameters
    ----------
    parties:
        One :class:`ProtocolParty` per id ``0..n−1``.  Instances belonging
        to corrupted ids are handed to the adversary as *puppets* — it may
        drive them faithfully (a passively corrupted party), drive them with
        altered inputs, or ignore them entirely.
    t:
        The corruption budget.  The adversary may never control more than
        ``t`` parties; exceeding the budget raises
        :class:`ByzantineModelError` (a bug in the experiment, not a legal
        execution).
    adversary:
        An object implementing the :class:`repro.adversary.base.Adversary`
        protocol, or ``None`` for a fault-free execution.
    trace_level:
        How much accounting to perform per round (see :class:`TraceLevel`).
        ``FULL`` (the default) also counts payload units;
        ``AGGREGATE`` keeps exact message counts and skips only the
        payload-unit accounting.
    fault_plan:
        An optional :class:`~repro.net.faults.FaultPlan` applied to
        *honest* traffic at delivery time (drops, late duplicates,
        payload corruption).  Any plan that can actually alter a message
        requires ``allow_model_violations=True`` — it breaks the
        reliable-delivery guarantee the paper's lemmas assume, and exists
        so the resilience lab can measure degradation beyond the model.
        The adversary still sees the traffic as *sent* (rushing is a
        property of the adversary, not of the lossy channel).
    """

    def __init__(
        self,
        parties: Dict[PartyId, ProtocolParty],
        t: int,
        adversary: Optional[Adversary] = None,
        observer: Optional[Observer] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        n = len(parties)
        if sorted(parties) != list(range(n)):
            raise ValueError("parties must be keyed 0..n-1")
        self.n = n
        self.t = t
        self.parties = parties
        self.adversary = adversary
        self.observer = observer
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: Late duplicates scheduled by the fault plan: recipient →
        #: sender → payload, delivered (one round after the original)
        #: unless a fresh message from the same sender supersedes them.
        self._carryover: Dict[PartyId, Dict[PartyId, Any]] = {}
        self.corrupted: Set[PartyId] = set()
        self.trace = ExecutionTrace(level=TraceLevel(trace_level))
        if adversary is not None:
            initial = set(adversary.initial_corruptions(self._setup_view()))
            self._register_corruptions(initial, round_index=0)

    def _setup_view(self) -> AdversaryView:
        return AdversaryView(
            round_index=-1,
            n=self.n,
            t=self.t,
            corrupted=set(self.corrupted),
            honest_messages={},
            parties=self.parties,
        )

    def _register_corruptions(self, new: Set[PartyId], round_index: int) -> None:
        admitted = admit_corruptions(
            self.corrupted, new, self.n, self.t, self.trace, round_index
        )
        if admitted and self.adversary is not None:
            self.adversary.on_corrupted({pid: self.parties[pid] for pid in admitted})

    def run(self, max_rounds: Optional[int] = None) -> ExecutionResult:
        """Execute until every honest party's protocol duration has elapsed."""
        total = max(
            (self.parties[pid].duration for pid in self._honest()), default=0
        )
        if max_rounds is not None:
            total = min(total, max_rounds)
        for round_index in range(total):
            self._run_round(round_index)
        if self.fault_injector is not None:
            self.trace.faults_dropped = self.fault_injector.dropped
            self.trace.faults_duplicated = self.fault_injector.duplicated
            self.trace.faults_corrupted = self.fault_injector.corrupted
        outputs = {pid: self.parties[pid].output for pid in range(self.n)}
        return ExecutionResult(
            outputs=outputs,
            honest=self._honest(),
            corrupted=set(self.corrupted),
            trace=self.trace,
            parties=self.parties,
        )

    def _honest(self) -> Set[PartyId]:
        return set(range(self.n)) - self.corrupted

    def _apply_faults(
        self, round_index: int, honest_out: Dict[PartyId, Outbox]
    ) -> Tuple[Dict[PartyId, Outbox], Dict[PartyId, Dict[PartyId, Any]]]:
        """Fault-filtered honest traffic plus next round's late duplicates."""
        injector = self.fault_injector
        if injector is None:  # pragma: no cover - callers gate on the field
            return honest_out, {}
        delivered: Dict[PartyId, Outbox] = {}
        carry: Dict[PartyId, Dict[PartyId, Any]] = {}
        for sender in sorted(honest_out):
            kept: Outbox = {}
            for recipient, payload in honest_out[sender].items():
                copies = injector.transmit(round_index, payload)
                if not copies:
                    continue
                kept[recipient] = copies[0]
                if len(copies) > 1:
                    carry.setdefault(recipient, {})[sender] = copies[1]
            delivered[sender] = kept
        return delivered, carry

    def _run_round(self, round_index: int) -> None:
        # 1. Honest parties commit their round-r messages first.
        honest_out: Dict[PartyId, Outbox] = {}
        for pid in sorted(self._honest()):
            party = self.parties[pid]
            if round_index < party.duration:
                honest_out[pid] = dict(party.messages_for_round(round_index))
            else:
                honest_out[pid] = {}

        # 2. The rushing adversary reacts: adaptive corruption + messages.
        byzantine_out: Dict[PartyId, Outbox] = {}
        byzantine_sent = 0
        if self.adversary is not None:
            view = AdversaryView(
                round_index=round_index,
                n=self.n,
                t=self.t,
                corrupted=set(self.corrupted),
                honest_messages=honest_out,
                parties=self.parties,
            )
            newly = set(self.adversary.adapt_corruptions(view))
            self._register_corruptions(newly, round_index)
            for pid in sorted(newly):
                # A party corrupted in round r no longer speaks honestly in r.
                honest_out.pop(pid, None)
            view.corrupted = set(self.corrupted)
            view.honest_messages = honest_out
            byz_out = self.adversary.byzantine_messages(view)
            for sender, outbox in byz_out.items():
                if sender not in self.corrupted:
                    raise ByzantineModelError(
                        f"adversary tried to speak for honest party {sender}"
                    )
                for recipient in outbox:
                    # Authenticated point-to-point channels only exist
                    # between the n modelled parties: a Byzantine message
                    # addressed outside 0..n-1 is a power the model does
                    # not grant, not traffic delivery may silently drop.
                    if type(recipient) is not int or not 0 <= recipient < self.n:
                        raise ByzantineModelError(
                            f"byzantine sender {sender} addressed unknown "
                            f"recipient {recipient!r}"
                        )
                byzantine_out[sender] = dict(outbox)
                byzantine_sent += len(outbox)

        # 2b. The (gated) fault plan mangles honest traffic at delivery
        # time.  Accounting below stays on the *sent* traffic: the trace
        # answers "what did honest parties emit", the fault counters
        # answer "what did the channel do to it".
        delivered_out = honest_out
        next_carry: Dict[PartyId, Dict[PartyId, Any]] = {}
        if self.fault_injector is not None:
            delivered_out, next_carry = self._apply_faults(
                round_index, honest_out
            )

        # 3. Deliver everything at once; honest parties process their inbox.
        honest_sent = sum(len(outbox) for outbox in honest_out.values())
        self.trace.honest_message_count += honest_sent
        self.trace.byzantine_message_count += byzantine_sent
        self.trace.per_round_messages.append(honest_sent + byzantine_sent)

        if self.trace.level is TraceLevel.FULL:
            self.trace.honest_payload_units += payload_unit_sum(
                payload
                for outbox in honest_out.values()
                for payload in outbox.values()
            )
            self.trace.byzantine_payload_units += payload_unit_sum(
                payload
                for outbox in byzantine_out.values()
                for payload in outbox.values()
            )
        # Each sender's outbox is a dict, so (sender, recipient) pairs are
        # unique within a round and filling the inboxes directly cannot
        # depend on delivery order.  Byzantine recipients were checked
        # above; an honest message addressed outside 0..n-1 is dropped.
        inboxes: Dict[PartyId, Inbox] = {pid: {} for pid in range(self.n)}
        for sender, outbox in byzantine_out.items():
            for recipient, payload in outbox.items():
                inboxes[recipient][sender] = payload
        for sender, outbox in delivered_out.items():
            for recipient, payload in outbox.items():
                if 0 <= recipient < self.n:
                    inboxes[recipient][sender] = payload
        if self._carryover:
            # Late duplicates from the previous round; a fresh message
            # from the same sender supersedes its stale copy.
            for recipient, stale in self._carryover.items():
                inbox = inboxes[recipient]
                for sender, payload in stale.items():
                    inbox.setdefault(sender, payload)
        self._carryover = next_carry
        if self.adversary is not None and self.corrupted:
            self.adversary.observe_delivery(
                round_index,
                {pid: inboxes[pid] for pid in sorted(self.corrupted)},
            )
        for pid in sorted(self._honest()):
            party = self.parties[pid]
            if round_index < party.duration:
                party.receive_round(round_index, inboxes[pid])
        self.trace.rounds_executed = round_index + 1
        if self.observer is not None:
            self.observer.on_round(
                round_index,
                honest_out,
                [
                    Message(sender, recipient, round_index, payload)
                    for sender, outbox in byzantine_out.items()
                    for recipient, payload in outbox.items()
                ],
                self.parties,
                sorted(self.corrupted),
            )
