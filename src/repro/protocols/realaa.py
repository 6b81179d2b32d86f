"""RealAA — synchronous Approximate Agreement on real values ([6], Theorem 3).

The protocol of Ben-Or, Dolev, and Hoch that the paper uses as its building
block.  It follows the iteration-based outline *with memory*:

* every iteration (3 rounds, Remark 3) all parties gradecast their current
  values in parallel;
* a party accepts the value of origin ``q`` iff the gradecast confidence is
  ≥ 1 **and** ``q`` has not previously been detected — confidence ≤ 1 proves
  ``q`` Byzantine (honest senders always grade 2), so ``q`` joins the
  persistent ``BAD`` set and is ignored as a sender in all later iterations;
* the new value is the *trimmed mean* of the accepted multiset: discard the
  ``t`` lowest and ``t`` highest values, average the rest.

Because graded consistency forces all honest parties to agree on every
accepted value, honest multisets differ only by *inclusion* — and each
Byzantine party can cause an inclusion discrepancy at most once before
landing in everyone's BAD set.  If ``t_i`` parties burn themselves in
iteration ``i``, the honest range shrinks by factor ``t_i / (n − 2t)``
(Lemma 5), which is what lets RealAA match Fekete's lower bound.

Termination is deterministic: the iteration count is derived from the
publicly known input range via Lemma 5 (see
:func:`repro.protocols.rounds.realaa_iterations`).  Each party additionally
records the first iteration at which its *observed* accepted range was
already ≤ ε — the measured round complexity reported by the benchmarks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..net.messages import Inbox, Outbox, PartyId
from ..net.protocol import ProtocolParty, ProtocolStateError
from .gradecast import GRADE_LOW, ParallelGradecast
from .rounds import (
    ROUNDS_PER_ITERATION,
    check_epsilon,
    check_resilience,
    realaa_iterations,
)


def is_real(value: object) -> bool:
    """Accept exactly finite ints/floats (bools are not protocol values).

    An int too large for a float is rejected, not raised on: the value is
    adversary-controlled, and ``math.isfinite`` overflows converting it.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def trim(values: Iterable[float], t: int) -> List[float]:
    """*values* in ascending order, less the ``t`` lowest and the ``t``
    highest when more than ``2t`` remain.

    The safe-area computation of RealAA: with at most ``t`` Byzantine values
    present, everything that survives the double trim lies within the honest
    values' range (Validity, Lemma 6).  Every trimming rule of the package —
    both engines, the baselines and the lower-bound rules — calls this,
    except the class kernel's run form (:func:`trimmed_update_runs`),
    which is held bit-equal to :func:`trimmed_update` by a property test.
    """
    ordered = sorted(values)
    if len(ordered) > 2 * t:
        return ordered[t : len(ordered) - t]
    return ordered


def trimmed_mean(values: Sequence[float], t: int) -> float:
    """Discard the ``t`` lowest and ``t`` highest values; average the rest."""
    if not values:
        raise ValueError("cannot take the trimmed mean of no values")
    core = trim(values, t)
    return math.fsum(core) / len(core)


def trimmed_update(values: Iterable[float], t: int) -> Tuple[float, float]:
    """One RealAA iteration's new value and the range of its trimmed core.

    The mean is clamped into the core: at large magnitudes the float mean
    can land one ulp outside it, and Validity is exact.
    """
    core = trim(values, t)
    mean = math.fsum(core) / len(core)
    return min(max(mean, core[0]), core[-1]), core[-1] - core[0]


def trimmed_update_runs(
    values: Sequence[float], counts: Sequence[int], t: int
) -> Tuple[float, float]:
    """:func:`trimmed_update` of the ascending runs ``[v] * c``.

    *values* is non-decreasing (the stable sort's order, so ``-0.0`` and
    ``0.0`` may form adjacent runs) and *counts* positive; the multiset
    is ``expanded = [values[0]] * counts[0] + [values[1]] * counts[1] +
    …``.  The result equals ``trimmed_update(expanded, t)`` bit for bit,
    at a cost per run instead of per value:

    * ``expanded`` is sorted, and ``sorted`` is stable, so ``trim``'s
      core is ``expanded[t : total - t]`` (the whole list when ``total ≤
      2t``).  Clipping the runs to that slice leaves core runs whose ends
      ``lo`` and ``hi`` are the very floats ``core[0]`` and ``core[-1]``
      (signed zeros included: a run holds one float), so the range
      ``hi - lo`` and the clamp's bounds are the list form's.
    * ``math.fsum`` returns the correctly rounded exact sum of its
      inputs unless an intermediate sum overflows.  A run ``(v, c)``
      contributes ``Σ ldexp(v, j)`` over the set bits ``j`` of ``c``:
      each term is exact (scaling by a power of two loses nothing short
      of overflow), so the terms have the core's exact sum.  While
      ``max(|lo|, |hi|) · len(core) ≤ 2**1021`` every term, every
      partial and every prefix sum of either ``fsum`` stays below
      ``3 · 2**1021 < 2**1023``: neither overflows, both return the
      same correctly rounded float, and the means agree.  An exact sum
      of zero is ``+0.0`` for both unless every summand is a zero; then
      both sum zeros of the same signs (each core run adds at least
      one term with its own value), so they agree there too.
    * The clamp ``min(max(mean, lo), hi)`` then sees the same three
      floats, so it returns the same one, whichever zero it may be.

    Beyond that bound ``fsum`` may raise ``OverflowError`` depending on
    the order it adds in, so there the core is expanded and handed to
    :func:`trimmed_update` itself.
    """
    ends = list(accumulate(counts))
    if not ends or not ends[-1]:
        raise ValueError("cannot trim an empty multiset")
    total = ends[-1]
    start, stop = (t, total - t) if total > 2 * t else (0, total)
    # The runs holding positions start and stop - 1, and the core's runs.
    first, last = bisect_right(ends, start), bisect_left(ends, stop)
    core_values = list(values[first : last + 1])
    core_counts = list(counts[first : last + 1])
    core_counts[0] = ends[first] - start
    core_counts[-1] = stop - (ends[last - 1] if last > first else start)
    lo, hi = core_values[0], core_values[-1]
    length = stop - start
    if max(abs(lo), abs(hi)) * length > 2.0**1021:
        expanded = [v for v, c in zip(core_values, core_counts) for _ in range(c)]
        return trimmed_update(expanded, 0)
    terms = core_values
    if length > len(core_counts):  # some run holds more than one value
        terms = []
        for value, count in zip(core_values, core_counts):
            shift = 0
            while count:
                if count & 1:
                    terms.append(math.ldexp(value, shift))
                count >>= 1
                shift += 1
    mean = math.fsum(terms) / length
    return min(max(mean, lo), hi), hi - lo


def trimmed_midpoint(values: Iterable[float], t: int) -> float:
    """The iteration outline's update ([12]): the trimmed values' midpoint."""
    core = trim(values, t)
    return (core[0] + core[-1]) / 2.0


@dataclass
class IterationRecord:
    """Diagnostics captured at the end of one RealAA iteration."""

    iteration: int
    accepted: Dict[PartyId, float]
    newly_detected: Tuple[PartyId, ...]
    trimmed_range: float
    new_value: float


class RealAAParty(ProtocolParty):
    """One party of ``RealAA(ε)``.

    Parameters
    ----------
    input_value:
        The party's real-valued input.
    epsilon:
        The agreement parameter ``ε > 0``.
    known_range:
        Publicly known bound on the honest inputs' spread, used to fix the
        deterministic iteration count.  Exactly one of ``known_range`` and
        ``iterations`` must be given.
    iterations:
        Explicit iteration count (overrides the Lemma-5 derivation).
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
        accusations: bool = True,
    ) -> None:
        super().__init__(pid, n, t)
        check_resilience(n, t)
        if not is_real(input_value):
            raise ValueError(f"input must be a finite real, got {input_value!r}")
        check_epsilon(epsilon)
        if (known_range is None) == (iterations is None):
            raise ValueError("give exactly one of known_range / iterations")
        if iterations is None:
            if known_range is None:  # unreachable: the xor check above
                raise ProtocolStateError("known_range and iterations both None")
            iterations = realaa_iterations(known_range, epsilon, n, t)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.epsilon = float(epsilon)
        self.iterations = iterations
        self.input_value = float(input_value)
        self.value = float(input_value)
        self.bad: Set[PartyId] = set()
        self.history: List[IterationRecord] = []
        #: First iteration (1-based) whose accepted range was ≤ ε, i.e. when
        #: this party *observed* the termination condition.  ``None`` until
        #: observed.  The measured round complexity is 3× this value.
        self.local_termination_iteration: Optional[int] = None
        #: Quorum accusations (see the class docstring's "asymmetric trust"
        #: discussion): parties piggyback their BAD sets on value messages;
        #: ``t + 1`` accusers globalise a blacklisting.  Disabled only for
        #: the A3 ablation, which demonstrates the attack this closes.
        self.accusations = accusations
        self._accusers: Dict[PartyId, Set[PartyId]] = {}
        self._engine: Optional[ParallelGradecast] = None

    @property
    def duration(self) -> int:
        return ROUNDS_PER_ITERATION * self.iterations

    # ------------------------------------------------------------------

    def _iteration_phase(self, round_index: int) -> Tuple[int, int]:
        return divmod(round_index, ROUNDS_PER_ITERATION)

    def messages_for_round(self, round_index: int) -> Outbox:
        iteration, phase = self._iteration_phase(round_index)
        if iteration >= self.iterations:
            return {}
        if phase == 0:
            self._engine = ParallelGradecast(
                self.pid,
                self.n,
                self.t,
                iteration=iteration,
                own_value=self.value,
                validate_value=is_real,
            )
            if not self.accusations:
                return self._engine.value_messages()
            payload = ("val", iteration, self.value, tuple(sorted(self.bad)))
            return {recipient: payload for recipient in range(self.n)}
        if self._engine is None:
            raise ProtocolStateError("gradecast engine missing outside phase 0")
        if phase == 1:
            return self._engine.echo_messages()
        return self._engine.support_messages()

    def receive_round(self, round_index: int, inbox: Inbox) -> None:
        iteration, phase = self._iteration_phase(round_index)
        if iteration >= self.iterations or self._engine is None:
            return
        if phase == 0:
            self._engine.receive_values(inbox)
            if self.accusations:
                self._collect_accusations(iteration, inbox)
        elif phase == 1:
            self._engine.receive_echoes(inbox)
        else:
            self._engine.receive_supports(inbox)
            self._finish_iteration(iteration)

    def _collect_accusations(self, iteration: int, inbox: Inbox) -> None:
        """Record which parties each sender currently blacklists.

        Honest parties never blacklist honest parties (honest senders are
        always graded 2), so an accused party with ``t + 1`` distinct
        accusers is provably Byzantine — the quorum applied in
        :meth:`_finish_iteration`.  This closes the *asymmetric trust*
        loophole: a sender graded 2 by some honest parties and 1 by others
        lands only in the graders-of-1's BAD sets, and without accusations
        it could keep feeding divergent multisets forever at no further
        cost (see ``AsymmetricTrustAdversary`` and ablation A3).
        """
        for sender, payload in inbox.items():
            if (
                not isinstance(payload, tuple)
                or len(payload) != 4
                or payload[0] != "val"
                or payload[1] != iteration
            ):
                continue
            accused = payload[3]
            if not isinstance(accused, tuple) or len(accused) > self.n:
                continue
            for origin in accused:
                if isinstance(origin, int) and 0 <= origin < self.n:
                    self._accusers.setdefault(origin, set()).add(sender)

    def _finish_iteration(self, iteration: int) -> None:
        if self._engine is None:
            raise ProtocolStateError("finishing an iteration that never started")
        grades = self._engine.grade_all()
        accepted: Dict[PartyId, float] = {}
        newly_detected: List[PartyId] = []
        if self.accusations:
            for origin, accusers in self._accusers.items():
                if len(accusers) >= self.t + 1 and origin not in self.bad:
                    # ≥ 1 honest accuser ⇒ origin is Byzantine.
                    newly_detected.append(origin)
            self.bad.update(newly_detected)
        for origin, (value, confidence) in grades.items():
            if confidence >= GRADE_LOW and origin not in self.bad:
                if not is_real(value):
                    raise ProtocolStateError(
                        "gradecast graded a non-real value despite "
                        "validate_value=is_real"
                    )
                accepted[origin] = float(value)
            if confidence <= GRADE_LOW:
                # Confidence ≤ 1 proves the sender Byzantine: an honest
                # sender is always graded 2 by every honest party.
                if origin not in self.bad:
                    newly_detected.append(origin)
        self.bad.update(newly_detected)

        if accepted:
            self.value, trimmed_range = trimmed_update(accepted.values(), self.t)
        else:
            trimmed_range = 0.0  # keep the old value (cannot happen honestly)

        if (
            self.local_termination_iteration is None
            and trimmed_range <= self.epsilon
        ):
            self.local_termination_iteration = iteration + 1

        self.history.append(
            IterationRecord(
                iteration=iteration,
                accepted=accepted,
                newly_detected=tuple(sorted(newly_detected)),
                trimmed_range=trimmed_range,
                new_value=self.value,
            )
        )
        self._engine = None
        if iteration + 1 == self.iterations:
            self.output = self._final_output()

    def _final_output(self) -> Any:
        """Hook: derive the protocol output from the final real value.

        ``RealAA`` itself outputs the value; the path/tree reductions of
        Sections 4–7 override this to map the real value back to a vertex.
        """
        return self.value
