"""The adversary interface (Section 2's threat model).

The adversary is computationally unbounded in the paper; in simulation it
is an object with *full information* (it may read every party's state), a
*rushing* capability (it sees the honest round-``r`` traffic before sending
its own), and an *adaptive* corruption hook (it may corrupt parties at any
point, up to the budget ``t``).  Corrupted parties are handed over as
puppets: the adversary may keep running their faithful state machines,
alter them, or discard them.
"""

from __future__ import annotations

import abc
import functools
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Set

from ..net.messages import Inbox, Outbox, PartyId
from ..net.network import AdversaryView
from ..net.protocol import ProtocolParty

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.spec import BatchAdversarySpec


class Adversary(abc.ABC):
    """Base class for adversary strategies.

    Subclasses override :meth:`byzantine_messages` and, if they corrupt
    adaptively, :meth:`adapt_corruptions`.  The default corruption pattern
    is static: a fixed set chosen before round 0.
    """

    def __init__(self, corrupt: Optional[Iterable[PartyId]] = None) -> None:
        self._requested: Optional[Set[PartyId]] = (
            set(corrupt) if corrupt is not None else None
        )
        self.puppets: Dict[PartyId, ProtocolParty] = {}

    # -- corruption ----------------------------------------------------

    def initial_corruptions(self, view: AdversaryView) -> Set[PartyId]:
        """Parties corrupted before the execution starts.

        Defaults to the explicitly requested set, or the *last* ``t`` ids
        (``n−t .. n−1``) when none was given — a deterministic, documented
        convention used across the experiments.
        """
        if self._requested is not None:
            return set(self._requested)
        return set(range(view.n - view.t, view.n))

    def adapt_corruptions(self, view: AdversaryView) -> Set[PartyId]:
        """Additional corruptions at the start of round ``view.round_index``."""
        return set()

    def on_corrupted(self, puppets: Dict[PartyId, ProtocolParty]) -> None:
        """Receive the state machines of newly corrupted parties."""
        self.puppets.update(puppets)

    # -- traffic --------------------------------------------------------

    @abc.abstractmethod
    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        """Round-``r`` messages of every corrupted party (rushing)."""

    def observe_delivery(
        self, round_index: int, inboxes: Dict[PartyId, Inbox]
    ) -> None:
        """See what the corrupted parties received this round."""

    # -- batch backend --------------------------------------------------

    def batch_spec(self) -> "BatchAdversarySpec":
        """Declarative description of this strategy for ``backend="batch"``.

        Strategies the batch engine can replay exactly override this to
        return a :class:`repro.engine.spec.BatchAdversarySpec`; everything
        else refuses here, preserving the batch backend's contract that
        unsupported features fail loudly instead of silently diverging.
        """
        from ..engine.errors import UnsupportedBackendError

        raise UnsupportedBackendError(
            f"{type(self).__name__} cannot be replayed by the batch "
            "backend; use backend='reference'"
        )

    def _batch_spec(
        self, kind: str, fresh: Callable[..., "Adversary"], **fields: Any
    ) -> "BatchAdversarySpec":
        """A spec of *kind* over the explicitly requested corruption set
        (``None`` = default) whose ``fresh`` is ``fresh(corrupt=that set)``."""
        from ..engine.spec import BatchAdversarySpec

        corrupted = None if self._requested is None else frozenset(self._requested)
        return BatchAdversarySpec(
            kind=kind,
            corrupted=corrupted,
            fresh=functools.partial(fresh, corrupt=corrupted),
            **fields,
        )


class NoAdversary(Adversary):
    """Corrupts nothing and sends nothing: a fault-free execution."""

    def initial_corruptions(self, view: AdversaryView) -> Set[PartyId]:
        return set()

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        return {}

    def batch_spec(self) -> "BatchAdversarySpec":
        """Fault-free, whatever corruption set was requested."""
        if type(self) is not NoAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_NONE, BatchAdversarySpec

        return BatchAdversarySpec(kind=KIND_NONE, corrupted=frozenset())


class PuppetDrivingAdversary(Adversary):
    # statics: batch-unsupported(drives faithful per-party state machines that the batch engine does not model)
    """Shared machinery for strategies that run the faithful state machines.

    Keeps every puppet's protocol running (collecting its outbox each round
    and feeding it the delivered inbox) and lets subclasses *transform* the
    faithful traffic via :meth:`transform_outbox` — identity by default,
    which yields a passively corrupted (honest-but-controlled) party.
    """

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        out: Dict[PartyId, Outbox] = {}
        for pid in sorted(view.corrupted):
            puppet = self.puppets.get(pid)
            if puppet is None or view.round_index >= puppet.duration:
                out[pid] = {}
                continue
            faithful = dict(puppet.messages_for_round(view.round_index))
            out[pid] = self.transform_outbox(pid, view, faithful)
        return out

    def observe_delivery(
        self, round_index: int, inboxes: Dict[PartyId, Inbox]
    ) -> None:
        for pid, inbox in inboxes.items():
            puppet = self.puppets.get(pid)
            if puppet is not None and round_index < puppet.duration:
                try:
                    puppet.receive_round(round_index, inbox)
                except Exception:
                    # A puppet is a *corrupted* party: if a subclass drove
                    # it off its state machine's rails, its internal crash
                    # is the adversary's problem, never the execution's.
                    self.puppets.pop(pid, None)

    def transform_outbox(
        self, pid: PartyId, view: AdversaryView, faithful: Outbox
    ) -> Outbox:
        """Rewrite one puppet's faithful round traffic (identity = passive)."""
        return faithful


class PassiveAdversary(PuppetDrivingAdversary):
    """Corrupted parties that follow the protocol to the letter.

    The weakest admissible adversary: useful as a sanity baseline (all
    guarantees must hold, and outputs usually coincide with the fault-free
    run) and as the base class for strategies that deviate selectively.
    """

    def batch_spec(self) -> "BatchAdversarySpec":
        """Faithful broadcasts every round: the passive batch kind."""
        if type(self) is not PassiveAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_PASSIVE

        return self._batch_spec(KIND_PASSIVE, PassiveAdversary)
