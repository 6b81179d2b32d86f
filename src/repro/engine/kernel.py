"""The batched RealAA round kernel — class-collapsed array execution.

The reference simulator (:mod:`repro.net.network`) drives ``n`` party
objects through ``O(n)`` messages per round, each a Python tuple; one
gradecast round costs ``Θ(n²)`` dict operations and grading costs up to
``Θ(n³)``.  This kernel exploits a structural fact about every adversary
the batch backend supports (:mod:`repro.engine.spec`): **no supported
strategy equivocates**.  Each party — honest or corrupted — either
broadcasts its faithful protocol message to a deterministic recipient set
or stays silent.  Consequently the parties partition into at most four
*classes* (honest/corrupt × crash-recipient-group A/B) whose members are
mutually indistinguishable at the message level:

* the gradecast *support count* an origin reaches at a recipient depends
  only on the recipient's class, so detection (``BAD``) sets, accusation
  tallies and acceptance decisions are uniform per class and can be kept
  as a handful of ``(n,)`` boolean vectors;
* per-party state that is *not* message-visible — the current real value
  — stays per-party in one ``(n,)`` float vector (iteration-0 inputs
  differ within a class, and an iteration that accepts nothing keeps the
  old per-party value).

Equivalence with the reference engine is exact, not approximate: each
class's new value is the reference's trim rule applied to the same
multiset, and the :class:`~repro.net.network.ExecutionTrace` counters are
reproduced closed-form per round.  The differential conformance suite
(``tests/engine/``) pins this bit-for-bit.

The kernel pays per distinct value, not per party.  A class's accepted
multiset holds few distinct values (the inputs' at iteration 0, about
one per class after it), so it is trimmed as the runs of its stable sort
(:func:`_value_runs`) by
:func:`~repro.protocols.realaa.trimmed_update_runs`, which returns what
the reference party's list form
(:func:`~repro.protocols.realaa.trimmed_update`) returns on the expanded
list, bit for bit.  The accepted values stay arrays in the iteration
records; only a reader asking for a record's ``origin → value`` dict
turns them into Python floats.

Conceptually the reference engine's Byzantine traffic is an ``(n, n)``
per-recipient payload matrix; because supported adversaries never
equivocate, that matrix is rank-one per sender class (a broadcast value
masked by a recipient set), which is what the class collapse factors out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..net.network import ExecutionTrace, TraceLevel, admit_corruptions
from ..protocols.realaa import trimmed_update_runs
from .spec import KIND_CRASH, KIND_NONE, KIND_PASSIVE, BatchAdversarySpec

#: Delivery scopes of one sender class in one round: everyone, only
#: recipients with ids below ``partial_to`` (the mid-send crash of
#: :class:`~repro.adversary.strategies.CrashAdversary`), or nobody.
_SCOPE_ALL = "all"
_SCOPE_GROUP_A = "group_a"


@dataclass
class PartyClass:
    """A maximal set of parties indistinguishable at the message level.

    ``runs`` is whether the members' protocol state machines execute at
    all (silent puppets are never driven); ``alive`` flips to ``False``
    when a corrupted puppet dies of an exception at a phase boundary (the
    reference adversary pops such puppets, after which they neither send
    nor receive).  ``group_a`` marks the crash-recipient group
    (``pid < partial_to``); it is only meaningful under a crash spec.
    ``mask`` marks the members, ``ids`` lists them ascending.
    """

    mask: np.ndarray
    corrupt: bool
    group_a: bool
    runs: bool
    alive: bool = True
    ids: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.ids = np.flatnonzero(self.mask)

    @property
    def size(self) -> int:
        """Number of member parties."""
        return len(self.ids)


@dataclass
class ClassIterationRecord:
    """The class-uniform part of one RealAA iteration's diagnostics.

    Mirrors :class:`repro.protocols.realaa.IterationRecord` minus
    ``new_value`` (which is per-party and read from the value snapshots).
    The accepted multiset is kept as two arrays, the ascending
    ``origins`` and their ``values`` in the same order (when every
    origin was accepted, both are shared: the execution's array of all
    pids and the iteration's pre-iteration snapshot); :meth:`accepted`
    builds the record's ``origin → value`` dict, a new one per call.
    """

    iteration: int
    origins: np.ndarray
    values: np.ndarray
    newly_detected: Tuple[int, ...]
    trimmed_range: float

    def accepted(self) -> Dict[int, float]:
        """The accepted ``origin → value`` map, as the reference records it."""
        return dict(zip(self.origins.tolist(), self.values.tolist()))


@dataclass
class ClassPhaseOutcome:
    """One class's final RealAA state after a phase of iterations."""

    records: List[ClassIterationRecord]
    bad: np.ndarray
    local_termination_iteration: Optional[int]


@dataclass
class RealAAPhaseResult:
    """Everything one batched RealAA phase produced.

    ``classes`` is the partition the phase ran under (indices into it key
    ``outcomes``); ``snapshots[i]`` is the full ``(n,)`` value vector
    after iteration ``i``; ``values`` aliases the final snapshot.
    """

    classes: List[PartyClass]
    outcomes: Dict[int, ClassPhaseOutcome]
    snapshots: List[np.ndarray]
    values: np.ndarray


def _value_runs(picked: np.ndarray) -> Tuple[List[float], List[int]]:
    """*picked* as the runs of its stable sort: ``(values, counts)``.

    A run is a stretch of equal bits, so ``-0.0`` and ``0.0`` stay apart
    in the order the stable sort leaves them, which is the order the
    reference party's ``sorted`` leaves the same values in: both read
    the accepted values by ascending origin.  (``np.unique`` would merge
    the two zeros into one run, and the range of an all-zero core,
    ``core[-1] - core[0]``, is ``-0.0`` for ``[0.0, -0.0]``.)  Equal
    floats other than the two zeros have equal bits, so the faster
    unstable sort differs from the stable one only inside the zero
    block, which is put back in origin order.
    """
    ordered = np.sort(picked)
    zero = ordered == 0
    if zero.any():
        ordered[zero] = picked[picked == 0]
    bits = ordered.view(np.int64)
    starts = [0, *((bits[1:] != bits[:-1]).nonzero()[0] + 1).tolist()]
    counts = [b - a for a, b in zip(starts, starts[1:] + [ordered.size])]
    return ordered[starts].tolist(), counts


class BatchExecution:
    """One batched protocol execution: corruption bookkeeping + round clock.

    Replicates the reference :class:`~repro.net.network.SynchronousNetwork`
    observables — corruption registration (same
    :class:`~repro.net.network.ByzantineModelError` messages, same order)
    and the full :class:`~repro.net.network.ExecutionTrace` accounting —
    while executing rounds as array operations over party classes.

    ``t_net`` is the network's corruption budget; ``party_t`` the
    tolerance the protocol logic assumes (they differ in ``t_assumed``
    degradation experiments, exactly as in the reference API).
    """

    def __init__(
        self,
        n: int,
        t_net: int,
        party_t: int,
        spec: Optional[BatchAdversarySpec],
        trace_level: TraceLevel = TraceLevel.FULL,
    ) -> None:
        """Register corruptions (reference order/messages) and build classes."""
        self.n = n
        self.t_net = t_net
        self.party_t = party_t
        self.spec = spec
        self.trace = ExecutionTrace(level=TraceLevel(trace_level))
        #: Optional :class:`~repro.engine.metrics.BatchMetrics` sink; when
        #: set, every round emits a reference-identical metrics row.
        self.metrics = None
        self.corrupted = set()
        self._round = 0
        self._every_pid = np.arange(n)
        self._every_pid.flags.writeable = False
        self._register_corruptions()
        #: Ids of the honest (never corrupted) parties.  Corruptions are
        #: registered only here, so the set is computed once; it is shared,
        #: so whoever hands it out hands out a copy.
        self.honest_set: Set[int] = set(range(n)) - self.corrupted
        self.classes = self._build_classes()
        kind = KIND_NONE if spec is None else spec.kind
        partial = 0 if spec is None else spec.partial_to
        self._group_a_total = (
            min(max(partial, 0), n) if kind == KIND_CRASH else 0
        )

    # -- corruption bookkeeping ----------------------------------------

    def _register_corruptions(self) -> None:
        if self.spec is not None:
            requested = self.spec.requested_corruptions(self.n, self.t_net)
            admit_corruptions(
                self.corrupted, requested, self.n, self.t_net, self.trace, 0
            )

    @property
    def has_honest(self) -> bool:
        """Whether at least one party is honest (else zero rounds run)."""
        return len(self.corrupted) < self.n

    # -- class partition ------------------------------------------------

    def _build_classes(self) -> List[PartyClass]:
        spec = self.spec
        kind = KIND_NONE if spec is None else spec.kind
        corrupt = np.zeros(self.n, dtype=bool)
        corrupt[list(self.corrupted)] = True
        group_a: Optional[np.ndarray] = None
        if spec is not None and kind == KIND_CRASH:
            group_a = np.arange(self.n) < spec.partial_to
        classes: List[PartyClass] = []
        for corrupt_flag, members in ((False, ~corrupt), (True, corrupt)):
            runs = (not corrupt_flag) or kind in (KIND_PASSIVE, KIND_CRASH)
            parts = (
                [(False, members)]
                if group_a is None
                else [(True, members & group_a), (False, members & ~group_a)]
            )
            for in_a, mask in parts:
                if mask.any():
                    classes.append(
                        PartyClass(
                            mask=mask, corrupt=corrupt_flag, group_a=in_a, runs=runs
                        )
                    )
        return classes

    def retire_dead(self, dead: np.ndarray) -> None:
        """Split off puppets that died of an exception at a phase boundary.

        The reference adversary pops a puppet whose ``receive_round``
        raised; from then on it neither sends nor receives.  Honest deaths
        never reach here — their exceptions propagate out of the run.
        """
        if not bool(dead.any()):
            return
        refined: List[PartyClass] = []
        for cls in self.classes:
            dead_mask = cls.mask & dead
            if not dead_mask.any():
                refined.append(cls)
                continue
            flags = dict(corrupt=cls.corrupt, group_a=cls.group_a, runs=cls.runs)
            alive_mask = cls.mask & ~dead
            if alive_mask.any():
                refined.append(PartyClass(mask=alive_mask, alive=cls.alive, **flags))
            refined.append(PartyClass(mask=dead_mask, alive=False, **flags))
        self.classes = refined

    # -- delivery model -------------------------------------------------

    def _delivery_scope(self, cls: PartyClass, round_index: int) -> Optional[str]:
        """To whom members of *cls* deliver their round messages."""
        if not cls.corrupt:
            return _SCOPE_ALL
        spec = self.spec
        if spec is not None and spec.kind == KIND_CRASH:
            if round_index < spec.crash_round:
                return _SCOPE_ALL
            if round_index == spec.crash_round:
                return _SCOPE_GROUP_A
            return None
        return _SCOPE_ALL

    @staticmethod
    def _reaches(scope: Optional[str], recipient_class: PartyClass) -> bool:
        """Whether *scope* includes the members of *recipient_class*."""
        if scope == _SCOPE_ALL:
            return True
        if scope == _SCOPE_GROUP_A:
            return recipient_class.group_a
        return False

    def _scope_size(self, scope: Optional[str]) -> int:
        """Number of recipients addressed under *scope*."""
        if scope == _SCOPE_ALL:
            return self.n
        if scope == _SCOPE_GROUP_A:
            return self._group_a_total
        return 0

    def _account_round(
        self,
        scopes: Dict[int, Optional[str]],
        units_for: Callable[[int], int],
    ) -> Tuple[int, int, int, int]:
        """Reference-exact trace accounting for the current round.

        Honest senders broadcast to all ``n`` recipients; Byzantine sends
        are counted per actually-addressed message (the reference counts
        ``len(outbox)``).  Payload units accumulate in the trace only at
        :attr:`~repro.net.network.TraceLevel.FULL` but are still computed
        when a metrics sink is attached (the reference collector counts
        them itself, regardless of trace level) — honest units on the
        *sent* traffic and Byzantine units per addressed message, exactly
        like ``SynchronousNetwork._run_round``.

        Returns ``(honest_sent, byzantine_sent, honest_units,
        byzantine_units)`` for the metrics row of this round.
        """
        honest_sent = 0
        byzantine_sent = 0
        honest_units = 0
        byzantine_units = 0
        full = self.trace.level is TraceLevel.FULL
        count_units = full or self.metrics is not None
        for index, scope in scopes.items():
            cls = self.classes[index]
            if cls.corrupt:
                targets = self._scope_size(scope)
                byzantine_sent += cls.size * targets
                if count_units and targets:
                    byzantine_units += cls.size * targets * units_for(index)
            else:
                honest_sent += cls.size * self.n
                if count_units:
                    honest_units += cls.size * self.n * units_for(index)
        if full:
            self.trace.honest_payload_units += honest_units
            self.trace.byzantine_payload_units += byzantine_units
        self.trace.honest_message_count += honest_sent
        self.trace.byzantine_message_count += byzantine_sent
        self.trace.per_round_messages.append(honest_sent + byzantine_sent)
        self.trace.rounds_executed = self._round + 1
        return honest_sent, byzantine_sent, honest_units, byzantine_units

    # -- the RealAA phase kernel ----------------------------------------

    def run_realaa_phase(
        self,
        initial_values: np.ndarray,
        epsilon: float,
        iterations: int,
    ) -> RealAAPhaseResult:
        """Run ``iterations`` RealAA iterations (3 rounds each) batched.

        Every active class's accusation memory, ``BAD`` set and iteration
        records start fresh — matching the reference, where each phase
        constructs new :class:`~repro.protocols.realaa.RealAAParty`
        machines.  The global round clock keeps advancing across phases
        so crash rounds line up with the reference execution.
        """
        n = self.n
        t = self.party_t
        values = np.array(initial_values, dtype=np.float64, copy=True)
        active = [
            index
            for index, cls in enumerate(self.classes)
            if cls.runs and cls.alive
        ]
        bad: Dict[int, np.ndarray] = {
            index: np.zeros(n, dtype=bool) for index in active
        }
        accusers: Dict[int, Dict[int, np.ndarray]] = {index: {} for index in active}
        local_term: Dict[int, Optional[int]] = {index: None for index in active}
        records: Dict[int, List[ClassIterationRecord]] = {
            index: [] for index in active
        }
        snapshots: List[np.ndarray] = []

        for iteration in range(iterations):
            # The values before this iteration: the last snapshot, which
            # nothing writes to again.
            v_pre = snapshots[-1] if snapshots else values.copy()

            # Round 3i: parallel-gradecast value messages, carrying each
            # sender's current BAD set as accusations.
            scopes = {
                index: self._delivery_scope(self.classes[index], self._round)
                for index in active
            }
            stats = self._account_round(
                scopes, lambda index: 3 + int(bad[index].sum())
            )
            if self.metrics is not None:
                self.metrics.emit(self._round, *stats, values=values)
            received: Dict[int, np.ndarray] = {}
            for rc in active:
                vec = np.zeros(n, dtype=bool)
                for sc in active:
                    if not self._reaches(scopes[sc], self.classes[rc]):
                        continue
                    vec |= self.classes[sc].mask
                    slot = accusers[rc].get(sc)
                    if slot is None:
                        slot = np.zeros(n, dtype=bool)
                        accusers[rc][sc] = slot
                    slot |= bad[sc]
                received[rc] = vec
            self._round += 1

            # Round 3i+1: echo vectors ("which values did you receive?").
            scopes = {
                index: self._delivery_scope(self.classes[index], self._round)
                for index in active
            }
            stats = self._account_round(
                scopes, lambda index: 2 + 2 * int(received[index].sum())
            )
            if self.metrics is not None:
                self.metrics.emit(self._round, *stats, values=values)
            supports: Dict[int, np.ndarray] = {}
            for rc in active:
                echo_count = np.zeros(n, dtype=np.int64)
                for sc in active:
                    if self._reaches(scopes[sc], self.classes[rc]):
                        echo_count += self.classes[sc].size * received[sc]
                supports[rc] = echo_count >= (n - t)
            self._round += 1

            # Round 3i+2: support vectors, then the iteration finish.
            scopes = {
                index: self._delivery_scope(self.classes[index], self._round)
                for index in active
            }
            stats = self._account_round(
                scopes, lambda index: 2 + 2 * int(supports[index].sum())
            )
            finish_round = self._round
            support_count: Dict[int, np.ndarray] = {}
            for rc in active:
                count = np.zeros(n, dtype=np.int64)
                for sc in active:
                    if self._reaches(scopes[sc], self.classes[rc]):
                        count += self.classes[sc].size * supports[sc]
                support_count[rc] = count
            self._round += 1

            for rc in active:
                self._finish_iteration(
                    rc,
                    iteration,
                    epsilon,
                    v_pre,
                    values,
                    bad[rc],
                    accusers[rc],
                    support_count[rc],
                    local_term,
                    records[rc],
                )
            snapshots.append(values.copy())
            if self.metrics is not None:
                # The reference observer fires after the receives, i.e.
                # after the iteration finish updated the values.  The
                # phase-final row stays pending until the backend's
                # boundary checks pass (a raise suppresses it).
                self.metrics.emit(
                    finish_round,
                    *stats,
                    values=values,
                    hold=iteration == iterations - 1,
                )

        outcomes = {
            index: ClassPhaseOutcome(
                records=records[index],
                bad=bad[index],
                local_termination_iteration=local_term[index],
            )
            for index in active
        }
        return RealAAPhaseResult(
            classes=list(self.classes),
            outcomes=outcomes,
            snapshots=snapshots,
            values=values,
        )

    def _finish_iteration(
        self,
        rc: int,
        iteration: int,
        epsilon: float,
        v_pre: np.ndarray,
        values: np.ndarray,
        rc_bad: np.ndarray,
        rc_accusers: Dict[int, np.ndarray],
        rc_support_count: np.ndarray,
        local_term: Dict[int, Optional[int]],
        rc_records: List[ClassIterationRecord],
    ) -> None:
        """One class's end-of-iteration step (RealAA ``_finish_iteration``).

        Order matters and follows the reference exactly: accusation quorum
        detections enter ``BAD`` *before* acceptance is evaluated; an
        origin graded exactly 1 is both accepted and newly detected; an
        empty accepted multiset keeps the old (per-party) value.
        """
        n = self.n
        t = self.party_t
        acc_count = np.zeros(n, dtype=np.int64)
        for sc, vec in rc_accusers.items():
            acc_count += self.classes[sc].size * vec
        quorum = (acc_count >= t + 1) & ~rc_bad
        rc_bad |= quorum
        accepted_mask = (rc_support_count >= t + 1) & ~rc_bad
        low_confidence = (rc_support_count < n - t) & ~rc_bad
        rc_bad |= low_confidence
        newly = tuple(np.flatnonzero(quorum | low_confidence).tolist())
        if accepted_mask.all():
            # Every origin accepted: the records share one array of all
            # pids and the pre-iteration snapshot instead of copies.
            origins, picked = self._every_pid, v_pre
        else:
            origins = np.flatnonzero(accepted_mask)
            picked = v_pre[origins]
        if origins.size:
            value, trimmed_range = trimmed_update_runs(*_value_runs(picked), t)
            values[self.classes[rc].mask] = value
        else:
            trimmed_range = 0.0
        if local_term[rc] is None and trimmed_range <= epsilon:
            local_term[rc] = iteration + 1
        rc_records.append(
            ClassIterationRecord(
                iteration=iteration,
                origins=origins,
                values=picked,
                newly_detected=newly,
                trimmed_range=trimmed_range,
            )
        )
