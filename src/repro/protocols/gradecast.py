"""Gradecast — the value-distribution mechanism of RealAA ([6], Remark 3).

Gradecast is a graded broadcast: a designated sender distributes a value and
every party outputs a ``(value, confidence)`` pair with confidence in
``{0, 1, 2}`` such that

* **honest sender** ⇒ every honest party outputs ``(v, 2)``;
* **graded consistency** — if two honest parties output confidences ≥ 1,
  their values are equal;
* **graded agreement** — if an honest party outputs confidence 2, every
  honest party outputs confidence ≥ 1.

Consequently a sender graded ≤ 1 by any honest party is *provably
Byzantine* — the detection RealAA exploits to make each Byzantine party
"pay" for at most one iteration of inconsistency.

Three rounds, n > 3t (Remark 3):

1. **value**  — the sender sends ``v`` to everyone;
2. **echo**   — every party echoes the value it received to everyone;
3. **support**— a party that saw ``≥ n − t`` echoes for the same value ``w``
   supports ``w`` to everyone.  A party then grades: ``≥ n − t`` supports
   for ``w`` ⇒ ``(w, 2)``; ``≥ t + 1`` ⇒ ``(w, 1)``; otherwise ``(⊥, 0)``.

:class:`ParallelGradecast` runs all ``n`` instances of one RealAA iteration
in lockstep (every party is the sender of its own instance), which is how
both RealAA and the iterated-safe-area baseline distribute values.
:class:`GradecastParty` wraps a single instance as a standalone protocol for
direct unit testing of the three guarantees.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..net.messages import Inbox, Outbox, PartyId, broadcast
from ..net.protocol import ProtocolParty
from .rounds import check_resilience

#: Sentinel for "no value": the ``⊥`` of the paper.
BOTTOM = None

#: Confidence grades.
GRADE_NONE, GRADE_LOW, GRADE_HIGH = 0, 1, 2

#: A graded output: ``(value, confidence)``.
Graded = Tuple[Any, int]


def _clean_vector(
    payload: Any,
    tag: str,
    iteration: int,
    n: int,
    validate: Optional[Callable[[Any], bool]] = None,
) -> Dict[int, Any]:
    """Parse an ``(tag, iteration, {origin: value})`` payload defensively.

    Byzantine parties may send arbitrary objects; anything malformed is
    treated as absent.  Returns a dict keyed by valid origin ids with
    non-``BOTTOM`` hashable values that pass *validate* (when given),
    filtered in that order in a single pass over the vector.
    """
    if (
        not isinstance(payload, tuple)
        or len(payload) != 3
        or payload[0] != tag
        or payload[1] != iteration
        or not isinstance(payload[2], dict)
    ):
        return {}
    vector: Dict[int, Any] = {}
    for origin, value in payload[2].items():
        if not isinstance(origin, int) or not 0 <= origin < n:
            continue
        if value is BOTTOM:
            continue
        try:
            hash(value)
        except TypeError:
            continue
        if validate is not None and not validate(value):
            continue
        vector[origin] = value
    return vector


class ParallelGradecast:
    """All ``n`` simultaneous gradecast instances of one iteration.

    Drives three rounds for one party.  Call order per iteration::

        out = value_messages()           # round 3k     (send)
        receive_values(inbox)            # round 3k     (deliver)
        out = echo_messages()            # round 3k + 1 (send)
        receive_echoes(inbox)            # round 3k + 1 (deliver)
        out = support_messages()         # round 3k + 2 (send)
        receive_supports(inbox)          # round 3k + 2 (deliver)
        grades = grade_all()             # (value, confidence) per origin

    The ``iteration`` tag is embedded in every payload so that malformed or
    replayed traffic from other iterations is discarded.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        iteration: int,
        own_value: Any,
        validate_value: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        check_resilience(n, t)
        self.pid = pid
        self.n = n
        self.t = t
        self.iteration = iteration
        self.own_value = own_value
        self._validate = validate_value
        self._received: Dict[int, Any] = {}
        self._echoes: Dict[int, Dict[int, Any]] = {}
        self._supports: Dict[int, Any] = {}
        self._support_votes: Dict[int, Dict[int, Any]] = {}

    # -- round 1: value -------------------------------------------------

    def value_messages(self) -> Outbox:
        return broadcast(("val", self.iteration, self.own_value), self.n)

    def receive_values(self, inbox: Inbox) -> None:
        # Value payloads may carry trailing protocol extensions (RealAA
        # appends its accusation list); only the first three fields matter
        # to the gradecast itself.
        for sender, payload in inbox.items():
            if (
                isinstance(payload, tuple)
                and len(payload) >= 3
                and payload[0] == "val"
                and payload[1] == self.iteration
            ):
                value = payload[2]
                if value is BOTTOM:
                    continue
                try:
                    hash(value)
                except TypeError:
                    continue
                if self._validate is not None and not self._validate(value):
                    continue
                self._received[sender] = value

    # -- round 2: echo ---------------------------------------------------

    def echo_messages(self) -> Outbox:
        return broadcast(("echo", self.iteration, dict(self._received)), self.n)

    def receive_echoes(self, inbox: Inbox) -> None:
        for sender, payload in inbox.items():
            self._echoes[sender] = _clean_vector(
                payload, "echo", self.iteration, self.n, self._validate
            )
        # Decide supports: for each origin, support the (unique) value that
        # gathered >= n - t echoes.
        for origin in range(self.n):
            counts: Dict[Any, int] = {}
            for vector in self._echoes.values():
                value = vector.get(origin, BOTTOM)
                if value is not BOTTOM:
                    counts[value] = counts.get(value, 0) + 1
            for value, count in counts.items():
                if count >= self.n - self.t:
                    self._supports[origin] = value
                    break  # at most one value can reach n - t (n > 2t)

    # -- round 3: support --------------------------------------------------

    def support_messages(self) -> Outbox:
        return broadcast(("sup", self.iteration, dict(self._supports)), self.n)

    def receive_supports(self, inbox: Inbox) -> None:
        for sender, payload in inbox.items():
            self._support_votes[sender] = _clean_vector(
                payload, "sup", self.iteration, self.n, self._validate
            )

    # -- grading -----------------------------------------------------------

    def grade(self, origin: PartyId) -> Graded:
        """The ``(value, confidence)`` this party assigns to *origin*."""
        counts: Dict[Any, int] = {}
        for vector in self._support_votes.values():
            value = vector.get(origin, BOTTOM)
            if value is not BOTTOM:
                counts[value] = counts.get(value, 0) + 1
        if not counts:
            return (BOTTOM, GRADE_NONE)
        best = max(counts.values())
        # Deterministic tie-break; ties can only involve grades of 0 anyway
        # (a value needs an honest supporter to reach t + 1 votes, and at
        # most one value can have honest supporters).
        winner = min(v for v, c in counts.items() if c == best)
        if best >= self.n - self.t:
            return (winner, GRADE_HIGH)
        if best >= self.t + 1:
            return (winner, GRADE_LOW)
        return (BOTTOM, GRADE_NONE)

    def grade_all(self) -> Dict[PartyId, Graded]:
        return {origin: self.grade(origin) for origin in range(self.n)}


class GradecastParty(ProtocolParty):
    """A single gradecast instance as a standalone 3-round protocol.

    Party *sender* distributes ``value``; every party's ``output`` is its
    ``(value, confidence)`` pair.  Used to unit-test the three gradecast
    guarantees in isolation.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        sender: PartyId,
        value: Any = BOTTOM,
    ) -> None:
        super().__init__(pid, n, t)
        check_resilience(n, t)
        if not 0 <= sender < n:
            raise ValueError(f"sender {sender} out of range")
        self.sender = sender
        # Reuse the parallel machinery with a single active origin: only the
        # sender broadcasts a value in round 1.
        own = value if pid == sender else BOTTOM
        self._engine = ParallelGradecast(pid, n, t, iteration=0, own_value=own)

    @property
    def duration(self) -> int:
        return 3

    def messages_for_round(self, round_index: int) -> Outbox:
        if round_index == 0:
            if self.pid == self.sender:
                return self._engine.value_messages()
            return {}
        if round_index == 1:
            return self._engine.echo_messages()
        if round_index == 2:
            return self._engine.support_messages()
        return {}

    def receive_round(self, round_index: int, inbox: Inbox) -> None:
        if round_index == 0:
            self._engine.receive_values(inbox)
        elif round_index == 1:
            self._engine.receive_echoes(inbox)
        elif round_index == 2:
            self._engine.receive_supports(inbox)
            self.output = self._engine.grade(self.sender)
