"""Worst-case, protocol-aware attacks on the gradecast-based protocols.

**BurnScheduleAdversary** implements the adversary of Fekete's lower bound
as adapted to RealAA's mechanics (Section 4's discussion): the corruption
budget ``t`` is split across iterations as ``t_1 + … + t_R ≤ t``; in
iteration ``i``, ``t_i`` previously clean Byzantine parties *burn*
themselves by equivocating once, splitting the honest parties into a group
that accepts the planted value (confidence 1) and a group that does not
(confidence 0).  The honest range then shrinks only by factor
``≈ t_i / (n − 2t)`` instead of collapsing.  Afterwards every honest party
has the burner in its BAD set, so the slot is spent — unless the victim
protocol is *memoryless* (ablation A1), in which case ``reuse_burners=True``
lets the same parties equivocate forever.

Mechanics of one burn (for burner ``b`` with planted value ``v``):

* round *value*: ``b`` sends ``v`` to exactly ``n − 2t`` honest parties;
* round *echo*:  all corrupted parties echo ``b → v`` only to the target
  group ``A`` (``|A| ≤ t`` honest parties).  ``A`` thus sees
  ``(n − 2t) + t = n − t`` echoes and supports ``v``; everyone else sees
  only ``n − 2t < n − t`` and stays silent;
* round *support*: all corrupted parties support ``b → v`` only towards
  ``A``.  ``A`` sees ``|A| + t ≥ t + 1`` supports — confidence 1, value
  accepted (and ``b`` detected); the rest see ``|A| ≤ t`` supports —
  confidence 0, value rejected (and ``b`` detected).

All corrupted parties other than the active burners follow the protocol
faithfully (they must stay clean to burn later), driven as puppets.

**SplitBroadcastAdversary** targets the naive-distribution baseline
(ablation A2): with plain point-to-point sends there is no detection at
all, so the corrupted parties simply tell the upper half of the honest
parties the honest maximum and the lower half the honest minimum — every
iteration, forever, sustaining the outline's worst-case ``1/2`` factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..net.messages import Outbox, PartyId
from ..net.network import AdversaryView
from ..protocols.realaa import is_real
from .base import Adversary, PassiveAdversary, PuppetDrivingAdversary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.spec import BatchAdversarySpec


def even_burn_schedule(t: int, iterations: int) -> List[int]:
    """Split budget ``t`` over *iterations* as evenly as possible.

    This is the split that maximises ``∏ t_i`` (hence minimises convergence)
    when ``t ≥ iterations``; with ``t < iterations`` the first ``t`` entries
    get one burn each.
    """
    if t < 0 or iterations < 1:
        raise ValueError("need t >= 0 and iterations >= 1")
    base, extra = divmod(t, iterations)
    return [base + (1 if i < extra else 0) for i in range(iterations)]


@dataclass
class _BurnPlan:
    """The adversary's choices for one gradecast iteration."""

    tag: Any  # the iteration tag used in payloads this phase
    planted: Dict[PartyId, float]  # burner -> planted value
    group_a: FrozenSet[PartyId]  # honest parties meant to accept
    receivers: FrozenSet[PartyId]  # honest parties receiving the round-1 value


class BurnScheduleAdversary(PuppetDrivingAdversary):
    """Split the budget across iterations; one equivocation per burn slot.

    Parameters
    ----------
    schedule:
        ``schedule[i]`` = number of burns in the ``i``-th gradecast iteration
        *globally observed* (TreeAA's two RealAA phases share the counter).
        Iterations beyond the schedule see no burns.
    direction:
        ``"up"`` plants the honest maximum (pulling group A upwards),
        ``"down"`` the minimum, ``"alternate"`` flips per iteration.
    reuse_burners:
        Allow re-using burnt parties (pointless against RealAA, which
        blacklists them, but demonstrates sustained slowdown against the
        memoryless baseline — ablation A1).
    """

    def __init__(
        self,
        schedule: Sequence[int],
        corrupt: Optional[Sequence[PartyId]] = None,
        direction: str = "up",
        reuse_burners: bool = False,
    ) -> None:
        super().__init__(corrupt)
        if direction not in ("up", "down", "alternate"):
            raise ValueError(f"unknown direction {direction!r}")
        self.schedule = list(schedule)
        if any(s < 0 for s in self.schedule):
            raise ValueError("schedule entries must be non-negative")
        self.direction = direction
        self.reuse_burners = reuse_burners
        self.burned: Set[PartyId] = set()
        self._iteration = -1  # global gradecast-iteration counter
        self._plan: Optional[_BurnPlan] = None
        self._phase: Optional[int] = None
        #: (iteration, burners, |A|) tuples, for experiment diagnostics.
        self.burn_log: List[Tuple[int, Tuple[PartyId, ...], int]] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _sniff(view: AdversaryView) -> Optional[Tuple[int, Any, Dict[PartyId, float]]]:
        """Identify the gradecast phase from the honest round traffic.

        Returns ``(phase, iteration_tag, honest_values)`` where
        ``honest_values`` is only populated in phase 0.
        """
        kinds = {"val": 0, "echo": 1, "sup": 2}
        phase: Optional[int] = None
        tag: Any = None
        values: Dict[PartyId, float] = {}
        for sender in sorted(view.honest_messages):
            outbox = view.honest_messages[sender]
            for payload in outbox.values():
                if (
                    isinstance(payload, tuple)
                    and len(payload) >= 3
                    and payload[0] in kinds
                ):
                    phase = kinds[payload[0]]
                    tag = payload[1]
                    if phase == 0 and is_real(payload[2]):
                        values[sender] = float(payload[2])
                break  # outboxes are broadcasts; one payload suffices
        if phase is None:
            return None
        return phase, tag, values

    def _pick_burners(self, view: AdversaryView, count: int) -> List[PartyId]:
        fresh = [p for p in sorted(view.corrupted) if p not in self.burned]
        picked = fresh[:count]
        if len(picked) < count and self.reuse_burners:
            recycled = [p for p in sorted(view.corrupted) if p in self.burned]
            picked.extend(recycled[: count - len(picked)])
        return picked

    def _make_plan(
        self, view: AdversaryView, tag: Any, honest_values: Dict[PartyId, float]
    ) -> Optional[_BurnPlan]:
        if self._iteration >= len(self.schedule):
            return None
        count = self.schedule[self._iteration]
        if count == 0 or not honest_values or view.t == 0:
            return None
        burners = self._pick_burners(view, count)
        if not burners:
            return None
        honest = sorted(honest_values)
        h = len(honest)
        up = self.direction == "up" or (
            self.direction == "alternate" and self._iteration % 2 == 0
        )
        planted_value = (
            max(honest_values.values()) if up else min(honest_values.values())
        )
        a = min(view.t, h - 1)
        if a < 1:
            return None
        by_value = sorted(honest, key=lambda p: (honest_values[p], p))
        group_a = frozenset(by_value[-a:] if up else by_value[:a])
        receivers = frozenset(honest[: max(0, view.n - 2 * view.t)])
        self.burned.update(burners)
        self.burn_log.append((self._iteration, tuple(burners), a))
        return _BurnPlan(
            tag=tag,
            planted={b: planted_value for b in burners},
            group_a=group_a,
            receivers=receivers,
        )

    # ------------------------------------------------------------------

    def batch_spec(self) -> "BatchAdversarySpec":
        """Replay parameters for the dense batch engine.

        The burn attack is deterministic but *stateful* (global iteration
        counter, burnt set), so — as with chaos — the spec's ``fresh``
        holds the constructor arguments and the dense engine replays a
        fresh instance.  Subclasses may override the planning methods, so only
        the exact class is claimed.
        """
        if type(self) is not BurnScheduleAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_BURN

        return self._batch_spec(
            KIND_BURN,
            functools.partial(
                BurnScheduleAdversary,
                list(self.schedule),
                direction=self.direction,
                reuse_burners=self.reuse_burners,
            ),
        )

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        sniffed = self._sniff(view)
        if sniffed is None:
            self._phase = None
            self._plan = None
            return super().byzantine_messages(view)
        phase, tag, honest_values = sniffed
        self._phase = phase
        if phase == 0:
            self._iteration += 1
            self._plan = self._make_plan(view, tag, honest_values)
        return super().byzantine_messages(view)

    def transform_outbox(
        self, pid: PartyId, view: AdversaryView, faithful: Outbox
    ) -> Outbox:
        plan, phase = self._plan, self._phase
        if plan is None or phase is None:
            return faithful
        if phase == 0:
            if pid in plan.planted:
                value_payload = ("val", plan.tag, plan.planted[pid])
                targets = set(plan.receivers) | set(view.corrupted)
                return {recipient: value_payload for recipient in targets}
            return faithful
        # Echo / support rounds: rewrite the burner entries per recipient.
        kind = "echo" if phase == 1 else "sup"
        rewritten: Outbox = {}
        for recipient in range(view.n):
            payload = faithful.get(recipient)
            vector: Dict[PartyId, Any] = {}
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == kind
                and isinstance(payload[2], dict)
            ):
                vector = dict(payload[2])
            if recipient in plan.group_a or recipient in view.corrupted:
                vector.update(plan.planted)
            else:
                for burner in plan.planted:
                    vector.pop(burner, None)
            rewritten[recipient] = (kind, plan.tag, vector)
        return rewritten


class SplitBroadcastAdversary(PuppetDrivingAdversary):
    """Sustained equivocation against naive (undetectable) distribution.

    Every iteration, the corrupted parties report the honest maximum to the
    upper half of the honest parties and the honest minimum to the lower
    half (ranked by current value).  With no detection mechanism this can be
    repeated forever, pinning the naive baseline at its worst-case halving
    rate — the contrast gradecast's detection is designed to eliminate.
    """

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        # Parse the naive round: honest payloads are ("nval", it, value).
        honest_values: Dict[PartyId, float] = {}
        tag: Any = None
        for sender in sorted(view.honest_messages):
            for payload in view.honest_messages[sender].values():
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 3
                    and payload[0] == "nval"
                    and is_real(payload[2])
                ):
                    tag = payload[1]
                    honest_values[sender] = float(payload[2])
                break
        if not honest_values:
            return super().byzantine_messages(view)
        lo, hi = min(honest_values.values()), max(honest_values.values())
        ranked = sorted(honest_values, key=lambda p: (honest_values[p], p))
        lower_half = set(ranked[: len(ranked) // 2])
        out: Dict[PartyId, Outbox] = {}
        for pid in sorted(view.corrupted):
            outbox: Outbox = {}
            for recipient in range(view.n):
                value = lo if recipient in lower_half else hi
                outbox[recipient] = ("nval", tag, value)
            out[pid] = outbox
        return out

    def batch_spec(self) -> "BatchAdversarySpec":
        """Passive against the gradecast protocols the batch engine runs.

        The split sniffer only matches the naive baseline's ``("nval", …)``
        payloads; RealAA/PathAA/TreeAA traffic never does, so against every
        batch-executable protocol this strategy degenerates to faithfully
        driven puppets — exactly the passive kind.
        """
        if type(self) is not SplitBroadcastAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_PASSIVE

        return self._batch_spec(KIND_PASSIVE, PassiveAdversary)


class AsymmetricTrustAdversary(Adversary):
    # statics: batch-unsupported(grade-memory manipulation needs message-level control beyond the batch kinds)
    """The *asymmetric trust* attack on gradecast-with-memory protocols.

    Iteration 0 plays two tricks at once:

    * one corrupted party performs a regular **burn** (graded 1 by a target
      group, 0 by the rest) so the honest range stays positive;
    * every other corrupted party arranges to be graded **2** by a chosen
      honest group ``A`` and **1** by the rest: its round-1 value reaches
      exactly ``n − 2t`` honest parties, corrupted echoes make exactly
      ``n − 2t`` honest parties support (so every honest grade is ≥ 1 and
      the value is accepted by *everyone* — no divergence, no suspicion in
      ``A``), while corrupted supports reach ``A`` only, leaving the rest
      at grade 1 — they blacklist, ``A`` does not.

    From iteration 1 on, the asymmetrically-trusted parties behave
    perfectly consistently (grade 2 everywhere), planting the current
    honest extremum: ``A`` keeps accepting, the rest keep excluding — a
    sustained multiset divergence at **zero** further detection cost.

    Against a victim without quorum accusations this breaks the
    once-per-party accounting behind RealAA's round budget (the range keeps
    a constant factor per iteration forever).  With accusations enabled
    (the default), the blacklisting group — necessarily ≥ t + 1 honest
    parties for the attack to bite — reaches the quorum in iteration 1 and
    the trusted parties are globalised into every BAD set before any
    divergence materialises.  Ablation A3 tabulates both outcomes.
    """

    def __init__(
        self,
        corrupt: Optional[Sequence[PartyId]] = None,
        direction: str = "up",
        accuse_honest: bool = False,
    ) -> None:
        super().__init__(corrupt)
        if direction not in ("up", "down"):
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        #: Additionally spam accusations against honest parties (harmless:
        #: t accusers never reach the t + 1 quorum); used by tests.
        self.accuse_honest = accuse_honest
        self._iteration = -1
        self._phase: Optional[int] = None
        self._tag: Any = None
        self._value: float = 0.0
        self._burner: Optional[PartyId] = None
        self._asym: Tuple[PartyId, ...] = ()
        self._group_a: FrozenSet[PartyId] = frozenset()
        self._burn_group: FrozenSet[PartyId] = frozenset()
        self._receivers: FrozenSet[PartyId] = frozenset()
        self._asym_supporters: FrozenSet[PartyId] = frozenset()
        self._burn_supporters: FrozenSet[PartyId] = frozenset()

    # ------------------------------------------------------------------

    def byzantine_messages(self, view: AdversaryView) -> Dict[PartyId, Outbox]:
        sniffed = BurnScheduleAdversary._sniff(view)
        if sniffed is None:
            self._phase = None
            return {pid: {} for pid in view.corrupted}
        phase, tag, honest_values = sniffed
        self._phase, self._tag = phase, tag
        if phase == 0:
            self._iteration += 1
            self._plan(view, honest_values)
        return {
            pid: self._craft(pid, view) for pid in sorted(view.corrupted)
        }

    def _plan(self, view: AdversaryView, honest_values: Dict[PartyId, float]) -> None:
        honest = sorted(honest_values)
        if not honest or view.t == 0:
            return
        up = self.direction == "up"
        self._value = (
            max(honest_values.values()) if up else min(honest_values.values())
        )
        if self._iteration > 0:
            return
        corrupted = sorted(view.corrupted)
        self._burner = corrupted[0]
        self._asym = tuple(corrupted[1:])
        by_value = sorted(honest, key=lambda p: (honest_values[p], p))
        a = min(view.t, len(honest) - 1)
        self._group_a = frozenset(by_value[-a:] if up else by_value[:a])
        self._burn_group = self._group_a
        j = max(0, view.n - 2 * view.t)
        self._receivers = frozenset(honest[:j])
        # asym senders need n − 2t honest supporters (everyone grades >= 1);
        # the burner needs at most t supporters (the rest grade 0).
        self._asym_supporters = frozenset(honest[:j])
        self._burn_supporters = frozenset(honest[: min(view.t, len(honest))])

    def _targets_for_origin(self, origin: PartyId, view: AdversaryView, phase: int):
        """Which recipients should see corrupted echo/support entries for
        *origin* (None = everyone)."""
        if self._iteration > 0:
            return None
        if origin == self._burner:
            if phase == 1:
                return self._burn_supporters | set(view.corrupted)
            return self._burn_group | set(view.corrupted)
        if phase == 1:
            return self._asym_supporters | set(view.corrupted)
        return self._group_a | set(view.corrupted)

    def _craft(self, pid: PartyId, view: AdversaryView) -> Outbox:
        tag = self._tag
        everyone = range(view.n)
        if self._phase == 0:
            accusations: Tuple[PartyId, ...] = ()
            if self.accuse_honest:
                accusations = tuple(sorted(view.honest))
            payload = ("val", tag, self._value, accusations)
            if self._iteration == 0:
                targets = set(self._receivers) | set(view.corrupted)
                return {recipient: payload for recipient in targets}
            if pid == self._burner:
                return {}  # burned in iteration 0: stay silent
            return {recipient: payload for recipient in everyone}
        kind = "echo" if self._phase == 1 else "sup"
        corrupted_origins = sorted(view.corrupted)
        out: Outbox = {}
        for recipient in everyone:
            vector: Dict[PartyId, float] = {}
            for origin in corrupted_origins:
                if self._iteration > 0 and origin == self._burner:
                    continue  # globally blacklisted; nothing to gain
                targets = self._targets_for_origin(origin, view, self._phase)
                if targets is None or recipient in targets:
                    vector[origin] = self._value
            out[recipient] = (kind, tag, vector)
        return out
