"""Baseline: the memoryless iteration outline for AA on ℝ ([12]-style).

The paper's introduction describes the classic iteration-based outline: in
every iteration the parties distribute values, compute a safe area by
discarding the ``t`` lowest and ``t`` highest values received, and adopt the
midpoint.  The range halves per iteration — a ``2^{-R}`` convergence factor,
against which RealAA's ``t^R/(R^R (n−2t)^R)`` is the headline improvement.

Two knobs isolate *why* RealAA wins:

* ``memory`` — whether senders graded ≤ 1 are permanently ignored (RealAA's
  detection).  The default ``False`` is the pure outline: a Byzantine party
  may cause inconsistencies in *every* iteration, capping convergence at the
  halving rate (ablation A1).
* ``distribution`` — ``"gradecast"`` (3 rounds, graded consistency) or
  ``"naive"`` (1 round of plain point-to-point sends, ablation A2).  With
  naive distribution an equivocating adversary can feed different values to
  different honest parties *without ever being detected*, and convergence
  can be stalled entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Literal, Optional, Set

from ..net.messages import Inbox, Outbox, PartyId, broadcast
from ..net.protocol import ProtocolParty, ProtocolStateError
from ..protocols.gradecast import GRADE_LOW, ParallelGradecast
from ..protocols.realaa import is_real, trimmed_midpoint
from ..protocols.rounds import check_resilience

Distribution = Literal["gradecast", "naive"]


def halving_iterations(known_range: float, epsilon: float) -> int:
    """Iterations needed at the outline's ``2^{-R}`` rate."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if known_range <= epsilon:
        return 1
    return max(1, math.ceil(math.log2(known_range / epsilon)))


@dataclass
class BaselineIterationRecord:
    """Diagnostics for one baseline iteration."""

    iteration: int
    accepted_count: int
    new_value: float


class IterativeRealAAParty(ProtocolParty):
    """One party of the iteration-outline baseline on real values.

    The update rule is the trimmed *midpoint*
    ``(min(core) + max(core)) / 2`` — the rule for which the outline's
    halving analysis holds.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        input_value: float,
        epsilon: float = 1.0,
        known_range: Optional[float] = None,
        iterations: Optional[int] = None,
        memory: bool = False,
        distribution: Distribution = "gradecast",
    ) -> None:
        super().__init__(pid, n, t)
        check_resilience(n, t)
        if not is_real(input_value):
            raise ValueError(f"input must be a finite real, got {input_value!r}")
        if (known_range is None) == (iterations is None):
            raise ValueError("give exactly one of known_range / iterations")
        if iterations is None:
            if known_range is None:  # unreachable: the xor check above
                raise ProtocolStateError("known_range and iterations both None")
            iterations = halving_iterations(known_range, epsilon)
        if distribution not in ("gradecast", "naive"):
            raise ValueError(f"unknown distribution {distribution!r}")
        self.epsilon = float(epsilon)
        self.iterations = iterations
        self.memory = memory
        self.distribution: Distribution = distribution
        self.input_value = float(input_value)
        self.value = float(input_value)
        self.bad: Set[PartyId] = set()
        self.history: List[BaselineIterationRecord] = []
        self._engine: Optional[ParallelGradecast] = None

    @property
    def rounds_per_iteration(self) -> int:
        return 3 if self.distribution == "gradecast" else 1

    @property
    def duration(self) -> int:
        return self.rounds_per_iteration * self.iterations

    # ------------------------------------------------------------------

    def messages_for_round(self, round_index: int) -> Outbox:
        iteration, phase = divmod(round_index, self.rounds_per_iteration)
        if iteration >= self.iterations:
            return {}
        if self.distribution == "naive":
            return broadcast(("nval", iteration, self.value), self.n)
        if phase == 0:
            self._engine = ParallelGradecast(
                self.pid,
                self.n,
                self.t,
                iteration=iteration,
                own_value=self.value,
                validate_value=is_real,
            )
            return self._engine.value_messages()
        if self._engine is None:
            raise ProtocolStateError("gradecast engine missing outside phase 0")
        if phase == 1:
            return self._engine.echo_messages()
        return self._engine.support_messages()

    def receive_round(self, round_index: int, inbox: Inbox) -> None:
        iteration, phase = divmod(round_index, self.rounds_per_iteration)
        if iteration >= self.iterations:
            return
        if self.distribution == "naive":
            accepted = self._accept_naive(iteration, inbox)
            self._update(iteration, accepted)
            return
        if self._engine is None:
            raise ProtocolStateError("receiving a round before sending one")
        if phase == 0:
            self._engine.receive_values(inbox)
        elif phase == 1:
            self._engine.receive_echoes(inbox)
        else:
            self._engine.receive_supports(inbox)
            accepted = self._accept_gradecast(iteration)
            self._update(iteration, accepted)

    def _accept_naive(self, iteration: int, inbox: Inbox) -> List[float]:
        accepted: List[float] = []
        for sender, payload in inbox.items():
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == "nval"
                and payload[1] == iteration
                and is_real(payload[2])
            ):
                accepted.append(float(payload[2]))
        return accepted

    def _accept_gradecast(self, iteration: int) -> List[float]:
        if self._engine is None:
            raise ProtocolStateError("grading an iteration that never started")
        accepted: List[float] = []
        newly_bad: List[PartyId] = []
        for origin, (value, confidence) in self._engine.grade_all().items():
            if confidence >= GRADE_LOW and origin not in self.bad:
                accepted.append(float(value))
            if self.memory and confidence <= GRADE_LOW:
                newly_bad.append(origin)
        self.bad.update(newly_bad)
        self._engine = None
        return accepted

    def _update(self, iteration: int, accepted: List[float]) -> None:
        if accepted:
            # Midpoint of the safe interval: the outline's halving rule.
            self.value = trimmed_midpoint(accepted, self.t)
        self.history.append(
            BaselineIterationRecord(
                iteration=iteration,
                accepted_count=len(accepted),
                new_value=self.value,
            )
        )
        if iteration + 1 == self.iterations:
            self.output = self.value
