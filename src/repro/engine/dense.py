"""Dense per-party batch engine — fault plans and equivocating adversaries.

The class-collapse kernel (:mod:`repro.engine.kernel`) relies on one
structural fact: no supported strategy equivocates, so parties partition
into a handful of message-indistinguishable classes.  Fault plans and the
equivocating adversaries (:class:`~repro.adversary.chaos.ChaosAdversary`,
:class:`~repro.adversary.realaa_attacks.BurnScheduleAdversary`) break
exactly that fact — per-(sender, recipient) drops and per-recipient value
plants make every party's view unique.

:class:`DenseExecution` is the batch backend's second engine for those
configurations.  It keeps the *honest* protocol state as dense ``(n,)`` /
``(n, n)`` NumPy arrays (values, BAD matrix, delivery masks, echo/support
count matrices) and updates them with array reductions, while driving the
*adversary* organically: a fresh strategy instance is built by its
:class:`~repro.engine.spec.BatchAdversarySpec`'s ``fresh``, handed real
puppet party objects, and asked for its Byzantine traffic each round —
replaying the exact RNG draw sequence of a fresh reference run.  A real
:class:`~repro.net.faults.FaultInjector` is stepped in the reference's
(sender, recipient) transmission order so drop/duplicate/corrupt draws
land on the same messages.

Equivalence remains exact, not approximate — the same contract as the
class kernel, enforced by the same differential conformance suite.  The
honest-side array update leans on one invariant of the supported set,
checked defensively at parse time: for each gradecast origin and
iteration, at most one distinct real value ever circulates (burn plants a
single value per burner; chaos junk is filtered by validation, and its
stale/mirror payloads replay existing traffic).  A conflicting claim —
impossible for the supported strategies — raises
:class:`~repro.engine.errors.UnsupportedBackendError` rather than
risking divergence.

Cost: with an adversary attached the per-round Python traffic for the
corrupted parties is reference-like (that is the point — the adversary
*is* the reference object), but honest state stays in arrays; with only a
fault plan (no adversary) the round is the injector's draw loop plus
array updates.  The class kernel remains the large-``n`` fast path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..net.faults import FaultInjector, FaultPlan
from ..net.network import (
    AdversaryView,
    ByzantineModelError,
    ExecutionTrace,
    TraceLevel,
    admit_corruptions,
    payload_units,
)
from ..protocols.gradecast import _clean_vector
from ..protocols.realaa import is_real, trimmed_update
from .errors import UnsupportedBackendError
from .kernel import (
    ClassIterationRecord,
    ClassPhaseOutcome,
    PartyClass,
    RealAAPhaseResult,
)
from .spec import BatchAdversarySpec


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class DenseExecution:
    """One dense batched execution: real adversary, array-state honest side.

    Drop-in for :class:`~repro.engine.kernel.BatchExecution` where the
    backend drives RealAA phases: same corruption bookkeeping (identical
    :class:`~repro.net.network.ByzantineModelError` messages and order),
    same :class:`~repro.net.network.ExecutionTrace` accounting, same
    :class:`~repro.engine.kernel.RealAAPhaseResult` shape (every honest
    party is its own singleton class — views are per-party here).
    Corrupted parties are *real* protocol objects in
    :attr:`party_objects`; the backend reads their outputs directly
    instead of simulating puppet state.

    ``party_factory`` builds the puppet object for a corrupted pid; the
    backend validates all inputs beforehand, so construction cannot raise
    in configurations where the reference engine would have started.
    """

    def __init__(
        self,
        n: int,
        t_net: int,
        party_t: int,
        spec: Optional[BatchAdversarySpec],
        trace_level: TraceLevel = TraceLevel.FULL,
        fault_plan: Optional[FaultPlan] = None,
        party_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.n = n
        self.t_net = t_net
        self.party_t = party_t
        self.spec = spec
        self.trace = ExecutionTrace(level=TraceLevel(trace_level))
        #: Optional :class:`~repro.engine.metrics.BatchMetrics` sink,
        #: attached by the backend when an observer is being replayed.
        self.metrics: Optional[Any] = None
        self.corrupted: Set[int] = set()
        self.party_objects: Dict[int, Any] = {}
        self._round = 0
        #: Late duplicates from the fault plan: recipient → sender →
        #: payload, delivered next round unless superseded (reference
        #: carryover semantics; persists across phase boundaries).
        self._carryover: Dict[int, Dict[int, Any]] = {}
        self.injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.adversary = None if spec is None else spec.fresh()
        self._register_corruptions(party_factory)
        self._honest_ids = [
            pid for pid in range(n) if pid not in self.corrupted
        ]
        #: Ids of the honest parties (see ``BatchExecution.honest_set``).
        self.honest_set: Set[int] = set(self._honest_ids)
        self._hmask = np.zeros(n, dtype=bool)
        self._hmask[self._honest_ids] = True

    # -- corruption bookkeeping ----------------------------------------

    def _register_corruptions(
        self, party_factory: Optional[Callable[[int], Any]]
    ) -> None:
        if self.spec is None:
            return
        requested = self.spec.requested_corruptions(self.n, self.t_net)
        if not admit_corruptions(
            self.corrupted, requested, self.n, self.t_net, self.trace, 0
        ):
            return
        if party_factory is not None:
            self.party_objects = {
                pid: party_factory(pid) for pid in sorted(self.corrupted)
            }
        if self.adversary is not None:
            self.adversary.on_corrupted(dict(self.party_objects))

    @property
    def has_honest(self) -> bool:
        """Whether at least one party is honest (else zero rounds run)."""
        return len(self.corrupted) < self.n

    def retire_dead(self, dead: np.ndarray) -> None:
        """No-op: dense puppets are real objects and die organically.

        The adversary clone pops a puppet whose ``receive_round`` raised,
        exactly as the reference
        :class:`~repro.adversary.base.PuppetDrivingAdversary` does; there
        is no class partition to refine.
        """

    def finalize_trace(self) -> None:
        """Copy the fault-injector counters onto the trace (success path).

        The reference engine does this once in ``run()`` after the last
        round — a raising round leaves the counters at zero, which this
        method preserves by only being called after a completed run.
        """
        if self.injector is not None:
            self.trace.faults_dropped = self.injector.dropped
            self.trace.faults_duplicated = self.injector.duplicated
            self.trace.faults_corrupted = self.injector.corrupted

    def copy_diagnostics(self, adversary: Optional[Any]) -> None:
        """Copy the replay clone's diagnostics to the caller's instance.

        A reference run would have populated the caller's own ``log`` /
        ``burned`` / ``burn_log``; the dense engine ran a fresh clone
        instead, so mirror those fields back (replacing, not appending —
        they describe *this* run).  Puppet objects stay on the clone.
        """
        clone = self.adversary
        if clone is None or adversary is None:
            return
        if hasattr(clone, "log") and hasattr(adversary, "log"):
            adversary.log[:] = clone.log
        if hasattr(clone, "burned") and hasattr(adversary, "burned"):
            adversary.burned.clear()
            adversary.burned.update(clone.burned)
        if hasattr(clone, "burn_log") and hasattr(adversary, "burn_log"):
            adversary.burn_log[:] = clone.burn_log

    # -- one network round ----------------------------------------------

    def _network_round(
        self, payloads: Dict[int, Any], honest_units: Dict[int, int]
    ) -> Tuple[Dict[int, Dict[int, Any]], np.ndarray, Tuple[int, int, int, int, int]]:
        """Drive one synchronous round below the protocol layer.

        *payloads* maps each honest pid to the single object it broadcasts
        (reference parties share one payload object across recipients);
        *honest_units* its closed-form payload-unit count.  Performs, in
        reference order: adversary reaction (with real puppet objects),
        Byzantine traffic validation (identical error messages), fault
        injection (one ``transmit`` per (sender, recipient) in sorted
        order, preserving the RNG draw stream), trace accounting on the
        *sent* traffic, corrupted-party inbox assembly (byzantine first,
        honest ascending, carryover last — reference delivery order) and
        ``observe_delivery``.

        Returns ``(byzantine_out, delivered, stats)`` where ``delivered``
        is the honest faithful-delivery mask ``[sender, recipient]`` —
        fault-corrupted payloads are mask ``False`` because every
        :data:`~repro.net.faults.CORRUPTION_MENU` entry is inert for the
        honest parsers (they reach puppet inboxes verbatim, though) — and
        ``stats`` is ``(round_index, honest_sent, byz_sent, honest_units,
        byz_units)`` for the metrics sink.
        """
        n = self.n
        round_index = self._round
        clone = self.adversary
        honest_ids = self._honest_ids

        honest_out: Optional[Dict[int, Dict[int, Any]]] = None
        if clone is not None:
            honest_out = {
                s: {r: payloads[s] for r in range(n)} for s in honest_ids
            }

        byzantine_out: Dict[int, Dict[int, Any]] = {}
        byz_sent = 0
        if clone is not None:
            view = AdversaryView(
                round_index=round_index,
                n=n,
                t=self.t_net,
                corrupted=set(self.corrupted),
                honest_messages=honest_out,
                parties=self.party_objects,
            )
            newly = set(clone.adapt_corruptions(view))
            if newly:
                raise UnsupportedBackendError(
                    "adaptive corruption cannot be replayed by the batch "
                    "backend; use backend='reference'"
                )
            byz_out = clone.byzantine_messages(view)
            for sender, outbox in byz_out.items():
                if sender not in self.corrupted:
                    raise ByzantineModelError(
                        f"adversary tried to speak for honest party {sender}"
                    )
                for recipient in outbox:
                    if type(recipient) is not int or not 0 <= recipient < n:
                        raise ByzantineModelError(
                            f"byzantine sender {sender} addressed unknown "
                            f"recipient {recipient!r}"
                        )
                byzantine_out[sender] = dict(outbox)
                byz_sent += len(outbox)

        delivered = np.zeros((n, n), dtype=bool)
        overrides: Dict[Tuple[int, int], Any] = {}
        next_carry: Dict[int, Dict[int, Any]] = {}
        if self.injector is None:
            if honest_ids:
                delivered[honest_ids, :] = True
        else:
            for s in honest_ids:
                payload = payloads[s]
                row = delivered[s]
                for r in range(n):
                    copies = self.injector.transmit(round_index, payload)
                    if not copies:
                        continue
                    if copies[0] is payload:
                        row[r] = True
                    else:
                        overrides[(s, r)] = copies[0]
                    if len(copies) > 1:
                        next_carry.setdefault(r, {})[s] = copies[1]

        honest_sent = len(honest_ids) * n
        self.trace.honest_message_count += honest_sent
        self.trace.byzantine_message_count += byz_sent
        self.trace.per_round_messages.append(honest_sent + byz_sent)
        self.trace.rounds_executed = round_index + 1

        full = self.trace.level is TraceLevel.FULL
        h_units = b_units = 0
        if full or self.metrics is not None:
            h_units = n * sum(honest_units[s] for s in honest_ids)
            b_units = sum(
                payload_units(payload)
                for outbox in byzantine_out.values()
                for payload in outbox.values()
            )
            if full:
                self.trace.honest_payload_units += h_units
                self.trace.byzantine_payload_units += b_units

        if clone is not None and self.corrupted:
            inboxes: Dict[int, Dict[int, Any]] = {}
            for c in sorted(self.corrupted):
                inbox: Dict[int, Any] = {}
                for sender, outbox in byzantine_out.items():
                    if c in outbox:
                        inbox[sender] = outbox[c]
                for s in honest_ids:
                    if delivered[s, c]:
                        inbox[s] = payloads[s]
                    elif (s, c) in overrides:
                        inbox[s] = overrides[(s, c)]
                stale = self._carryover.get(c)
                if stale:
                    for sender, payload in stale.items():
                        inbox.setdefault(sender, payload)
                inboxes[c] = inbox
            clone.observe_delivery(round_index, inboxes)
        self._carryover = next_carry
        self._round += 1
        stats = (round_index, honest_sent, byz_sent, h_units, b_units)
        return byzantine_out, delivered, stats

    def _emit_metrics(
        self,
        stats: Tuple[int, int, int, int, int],
        values: np.ndarray,
        hold: bool,
    ) -> None:
        if self.metrics is None:
            return
        round_index, honest_sent, byz_sent, h_units, b_units = stats
        self.metrics.emit(
            round_index,
            honest_sent,
            byz_sent,
            h_units,
            b_units,
            values=values,
            hold=hold,
        )

    # -- gradecast claim bookkeeping -------------------------------------

    def _claim(
        self,
        cand: Dict[int, Any],
        cand_arr: np.ndarray,
        origin: int,
        value: Any,
    ) -> None:
        """Register that *value* circulates for gradecast *origin*.

        The dense count matrices track votes per origin, not per (origin,
        value); that is exact iff a single value circulates per origin,
        which every supported strategy guarantees (see module docstring).
        A conflicting claim refuses loudly instead of diverging.
        """
        known = cand.get(origin)
        if known is None:
            cand[origin] = value
            cand_arr[origin] = float(value)
        elif not (known == value):
            raise UnsupportedBackendError(
                f"conflicting gradecast claims for origin {origin} "
                f"({known!r} vs {value!r}): this adversary equivocates in "
                "a way the batch backend cannot replay; "
                "use backend='reference'"
            )

    def _parse_value(
        self,
        payload: Any,
        iteration: int,
        sender: int,
        recipient: int,
        recv: np.ndarray,
        cand: Dict[int, Any],
        cand_arr: np.ndarray,
        accusers: Dict[int, np.ndarray],
    ) -> None:
        """Reference value-round parse of one Byzantine payload.

        Mirrors ``ParallelGradecast.receive_values`` plus
        ``RealAAParty._collect_accusations`` exactly (tag/iteration
        check, hashability, ``is_real`` validation, 4-tuple accusation
        shape).
        """
        if not isinstance(payload, tuple):
            return
        if (
            len(payload) >= 3
            and payload[0] == "val"
            and payload[1] == iteration
        ):
            value = payload[2]
            if value is not None and _hashable(value) and is_real(value):
                self._claim(cand, cand_arr, sender, value)
                recv[recipient, sender] = True
        if (
            len(payload) == 4
            and payload[0] == "val"
            and payload[1] == iteration
        ):
            accused = payload[3]
            if isinstance(accused, tuple) and len(accused) <= self.n:
                for origin in accused:
                    if isinstance(origin, int) and 0 <= origin < self.n:
                        key = int(origin)
                        slot = accusers.get(key)
                        if slot is None:
                            slot = accusers[key] = np.zeros(
                                (self.n, self.n), dtype=bool
                            )
                        slot[recipient, sender] = True

    # -- the RealAA phase ------------------------------------------------

    def run_realaa_phase(
        self,
        initial_values: np.ndarray,
        epsilon: float,
        iterations: int,
    ) -> RealAAPhaseResult:
        """Run ``iterations`` RealAA iterations (3 rounds each) densely.

        Honest parties are arrays; corrupted parties are the real puppet
        objects driven through the adversary clone.  Iteration tags are
        local to the phase (fresh parties per phase in the reference);
        the network round clock is global across phases, so crash rounds,
        chaos scripts and fault windows line up.
        """
        n = self.n
        t = self.party_t
        honest_ids = self._honest_ids
        hmask = self._hmask
        values = np.array(initial_values, dtype=np.float64, copy=True)
        bad = np.zeros((n, n), dtype=bool)
        #: origin → (recipient, sender) accuser matrix; lazy because only
        #: a handful of origins are ever accused.  Persists across
        #: iterations within the phase, like ``RealAAParty._accusers``.
        accusers: Dict[int, np.ndarray] = {}
        local_term: Dict[int, Optional[int]] = {
            pid: None for pid in honest_ids
        }
        records: Dict[int, List[ClassIterationRecord]] = {
            pid: [] for pid in honest_ids
        }
        snapshots: List[np.ndarray] = []

        for iteration in range(iterations):
            final_iteration = iteration == iterations - 1
            # Per-iteration candidate registry: the unique value
            # circulating for each origin (see _claim).
            cand: Dict[int, Any] = {}
            cand_arr = np.zeros(n, dtype=np.float64)
            for pid in honest_ids:
                value = float(values[pid])
                cand[pid] = value
                cand_arr[pid] = value

            # Round 3i: gradecast value messages + piggybacked BAD sets.
            payloads: Dict[int, Any] = {}
            units: Dict[int, int] = {}
            for s in honest_ids:
                accused = tuple(np.flatnonzero(bad[s]).tolist())
                payloads[s] = ("val", iteration, float(values[s]), accused)
                units[s] = 3 + len(accused)
            byz_out, delivered, stats = self._network_round(payloads, units)
            # recv[r, o]: recipient r recorded a value for origin o.
            recv = delivered.T.copy()
            for s in honest_ids:
                accused = payloads[s][3]
                if accused:
                    reach = delivered[s]
                    for origin in accused:
                        slot = accusers.get(origin)
                        if slot is None:
                            slot = accusers[origin] = np.zeros(
                                (n, n), dtype=bool
                            )
                        slot[:, s] |= reach
            for c, outbox in byz_out.items():
                for r, payload in outbox.items():
                    if hmask[r]:
                        self._parse_value(
                            payload, iteration, c, r, recv, cand, cand_arr,
                            accusers,
                        )
            self._emit_metrics(stats, values, hold=False)

            # Round 3i+1: echo vectors.
            payloads = {}
            units = {}
            for s in honest_ids:
                vector = {o: cand[o] for o in np.flatnonzero(recv[s]).tolist()}
                payloads[s] = ("echo", iteration, vector)
                units[s] = 2 + 2 * len(vector)
            byz_out, delivered, stats = self._network_round(payloads, units)
            d_h = delivered[honest_ids].astype(np.int64)
            recv_h = recv[honest_ids].astype(np.int64)
            # echo_count[r, o]: echoes recipient r saw for origin o's value.
            echo_count = d_h.T @ recv_h
            for c, outbox in byz_out.items():
                for r, payload in outbox.items():
                    if not hmask[r]:
                        continue
                    claims = _clean_vector(
                        payload, "echo", iteration, n, validate=is_real
                    )
                    for key, value in claims.items():
                        origin = int(key)  # a bool key must not index as a mask
                        self._claim(cand, cand_arr, origin, value)
                        echo_count[r, origin] += 1
            supports = echo_count >= (n - t)
            self._emit_metrics(stats, values, hold=False)

            # Round 3i+2: support vectors, then the iteration finish.
            payloads = {}
            units = {}
            for s in honest_ids:
                vector = {
                    o: cand[o] for o in np.flatnonzero(supports[s]).tolist()
                }
                payloads[s] = ("sup", iteration, vector)
                units[s] = 2 + 2 * len(vector)
            byz_out, delivered, stats = self._network_round(payloads, units)
            d_h = delivered[honest_ids].astype(np.int64)
            sup_h = supports[honest_ids].astype(np.int64)
            support_count = d_h.T @ sup_h
            for c, outbox in byz_out.items():
                for r, payload in outbox.items():
                    if not hmask[r]:
                        continue
                    claims = _clean_vector(
                        payload, "sup", iteration, n, validate=is_real
                    )
                    for key, value in claims.items():
                        origin = int(key)  # a bool key must not index as a mask
                        self._claim(cand, cand_arr, origin, value)
                        support_count[r, origin] += 1

            # Finish (RealAAParty._finish_iteration, vectorized over
            # recipients): accusation quorums enter BAD before acceptance;
            # grade ≤ 1 detects; the accepted value is the grade winner —
            # the circulating candidate, not the origin's private value.
            quorum = np.zeros((n, n), dtype=bool)
            for origin, mat in accusers.items():
                quorum[:, origin] = mat.sum(axis=1) >= t + 1
            quorum &= ~bad
            bad |= quorum
            accepted_mask = (support_count >= t + 1) & ~bad
            low_conf = (support_count < n - t) & ~bad
            newly = quorum | low_conf
            bad |= low_conf
            for pid in honest_ids:
                origins = np.flatnonzero(accepted_mask[pid])
                picked = cand_arr[origins]
                if origins.size:
                    origin_ids = origins.tolist()
                    missing = [o for o in origin_ids if o not in cand]
                    if missing:  # pragma: no cover - guarded
                        raise UnsupportedBackendError(
                            f"accepted origin {missing[0]} has no recorded "
                            "candidate value; use backend='reference'"
                        )
                    values[pid], trimmed_range = trimmed_update(picked.tolist(), t)
                else:
                    trimmed_range = 0.0
                if local_term[pid] is None and trimmed_range <= epsilon:
                    local_term[pid] = iteration + 1
                records[pid].append(
                    ClassIterationRecord(
                        iteration=iteration,
                        origins=origins,
                        values=picked,
                        newly_detected=tuple(
                            np.flatnonzero(newly[pid]).tolist()
                        ),
                        trimmed_range=trimmed_range,
                    )
                )
            snapshots.append(values.copy())
            self._emit_metrics(stats, values, hold=final_iteration)

        classes: List[PartyClass] = []
        outcomes: Dict[int, ClassPhaseOutcome] = {}
        for index, pid in enumerate(honest_ids):
            mask = np.zeros(n, dtype=bool)
            mask[pid] = True
            classes.append(
                PartyClass(
                    mask=mask,
                    corrupt=False,
                    group_a=False,
                    runs=True,
                )
            )
            outcomes[index] = ClassPhaseOutcome(
                records=records[pid],
                bad=bad[pid],
                local_termination_iteration=local_term[pid],
            )
        return RealAAPhaseResult(
            classes=classes,
            outcomes=outcomes,
            snapshots=snapshots,
            values=values,
        )
