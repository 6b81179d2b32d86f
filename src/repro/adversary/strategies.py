"""General-purpose Byzantine strategies.

These strategies are protocol-agnostic: they work against any protocol run
on the synchronous network.  Protocol-aware worst-case attacks against
RealAA live in :mod:`repro.adversary.realaa_attacks`.
"""

from __future__ import annotations

import functools
import random
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Set,
)

from ..net.messages import Outbox, PartyId
from ..net.network import AdversaryView
from ..net.protocol import ProtocolParty
from .base import Adversary, PuppetDrivingAdversary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.spec import BatchAdversarySpec


class SilentAdversary(Adversary):
    """Corrupted parties never send anything (omission / crash-at-start).

    Against gradecast-based protocols every honest party sees confidence 0
    for these senders, so they are detected and ignored immediately.
    """

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        return {pid: {} for pid in view.corrupted}

    def batch_spec(self) -> "BatchAdversarySpec":
        """Permanent omission: the silent batch kind."""
        if type(self) is not SilentAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_SILENT

        return self._batch_spec(KIND_SILENT, SilentAdversary)


class CrashAdversary(PuppetDrivingAdversary):
    """Follow the protocol faithfully, then crash at a chosen round.

    In the crash round itself, only the recipients with ids below
    ``partial_to`` still receive the faithful messages — modelling the
    classic "crash mid-send" behaviour that leaves honest parties with
    inconsistent views.
    """

    def __init__(
        self,
        crash_round: int,
        partial_to: int = 0,
        corrupt: Optional[Iterable[PartyId]] = None,
    ) -> None:
        super().__init__(corrupt)
        if crash_round < 0:
            raise ValueError("crash_round must be non-negative")
        self.crash_round = crash_round
        self.partial_to = partial_to

    def transform_outbox(
        self, pid: PartyId, view: AdversaryView, faithful: Outbox
    ) -> Outbox:
        if view.round_index < self.crash_round:
            return faithful
        if view.round_index == self.crash_round:
            return {
                recipient: payload
                for recipient, payload in faithful.items()
                if recipient < self.partial_to
            }
        return {}

    def batch_spec(self) -> "BatchAdversarySpec":
        """Faithful-until-crash with a deterministic mid-send recipient cut."""
        if type(self) is not CrashAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_CRASH

        return self._batch_spec(
            KIND_CRASH,
            functools.partial(CrashAdversary, self.crash_round, self.partial_to),
            crash_round=self.crash_round,
            partial_to=self.partial_to,
        )


class ConsistentLiarAdversary(PuppetDrivingAdversary):
    # statics: batch-unsupported(forged puppet inputs require per-party state replay)
    """Run the protocol honestly but from forged inputs.

    The corrupted parties behave indistinguishably from honest parties that
    happened to hold different inputs.  AA's Validity quantifies only over
    *honest* inputs, so the protocols must tolerate arbitrary consistent
    lies — this strategy checks exactly that.

    Parameters
    ----------
    liar_factory:
        Builds the forged-state party for a corrupted id (same protocol,
        different input).
    """

    def __init__(
        self,
        liar_factory: Callable[[PartyId], ProtocolParty],
        corrupt: Optional[Iterable[PartyId]] = None,
    ) -> None:
        super().__init__(corrupt)
        self._liar_factory = liar_factory

    def on_corrupted(self, puppets: Dict[PartyId, ProtocolParty]) -> None:
        forged = {pid: self._liar_factory(pid) for pid in puppets}
        super().on_corrupted(forged)


class RandomNoiseAdversary(Adversary):
    # statics: batch-unsupported(random malformed payloads have no declarative batch form)
    """Spray structurally random garbage at random recipients.

    Payloads include wrong types, malformed tuples, huge and non-finite
    numbers.  Protocol implementations must validate everything they parse;
    this strategy is the fuzzer that keeps them honest.
    """

    #: Payload menu: a mix of near-miss protocol shapes and raw junk.
    _JUNK: Sequence[Any] = (
        None,
        0,
        -1,
        3.5,
        float("inf"),
        float("nan"),
        "garbage",
        ("val",),
        ("val", 0),
        ("echo", 0, "not-a-dict"),
        ("sup", -3, {}),
        ("unknown", 1, 2, 3),
        {"not": "expected"},
        [1, 2, 3],
    )

    def __init__(
        self,
        seed: int = 0,
        send_probability: float = 0.8,
        corrupt: Optional[Iterable[PartyId]] = None,
    ) -> None:
        super().__init__(corrupt)
        self._rng = random.Random(seed)
        self._send_probability = send_probability

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        out: Dict[PartyId, Outbox] = {}
        for pid in sorted(view.corrupted):
            outbox: Outbox = {}
            for recipient in range(view.n):
                if self._rng.random() < self._send_probability:
                    outbox[recipient] = self._rng.choice(self._JUNK)
            out[pid] = outbox
        return out


class EchoAdversary(Adversary):
    # statics: batch-unsupported(echoing depends on per-round inbox contents the batch engine never materialises)
    """Replay to everyone the first honest message observed this round.

    A cheap equivocation-free strategy that stays syntactically valid; it
    stresses protocols' sender-attribution logic (the payload may describe a
    different party's state, but the authenticated sender id cannot lie).
    """

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        sample: Any = None
        for sender in sorted(view.honest_messages):
            outbox = view.honest_messages[sender]
            for recipient in sorted(outbox):
                sample = outbox[recipient]
                break
            if sample is not None:
                break
        out: Dict[PartyId, Outbox] = {}
        for pid in sorted(view.corrupted):
            out[pid] = (
                {recipient: sample for recipient in range(view.n)}
                if sample is not None
                else {}
            )
        return out


class AdaptiveCrashAdversary(PuppetDrivingAdversary):
    # statics: batch-unsupported(adaptive corruption schedules are not replayable as a static batch spec)
    """Adaptive corruption: seize parties on a schedule, then silence them.

    ``schedule`` maps round → party ids to corrupt at the start of that
    round.  Until corrupted, those parties behave honestly (they are not
    puppets yet); afterwards they go silent.  Exercises the model's
    adaptive-adversary clause.
    """

    def __init__(self, schedule: Dict[int, Sequence[PartyId]]) -> None:
        super().__init__(corrupt=())
        self.schedule = {r: list(pids) for r, pids in schedule.items()}

    def initial_corruptions(self, view: AdversaryView) -> Set[PartyId]:
        return set(self.schedule.get(-1, ()))

    def adapt_corruptions(self, view: AdversaryView) -> Set[PartyId]:
        return set(self.schedule.get(view.round_index, ()))

    def transform_outbox(
        self, pid: PartyId, view: AdversaryView, faithful: Outbox
    ) -> Outbox:
        return {}
