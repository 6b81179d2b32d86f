"""The chaos adversary: randomized per-round strategy mixing.

Fixed-strategy adversaries probe specific failure modes; the chaos
adversary probes *interactions* between them.  Each corrupted party, each
round, independently does one of: behave faithfully, stay silent, replay
a stale message, send junk, or copy an honest party's current message to
everyone.  Seeded, so failures found by randomized tests reproduce.

This is a fuzzer, not a worst case: its value is coverage of the
protocols' parsing and bookkeeping under erratic-but-legal behaviour, and
it complements the targeted attacks in
:mod:`repro.adversary.realaa_attacks`.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..net.messages import Outbox, PartyId
from ..net.network import AdversaryView
from .base import PuppetDrivingAdversary

#: One chaos decision: (round, corrupted pid, behaviour name).
ChaosLogEntry = Tuple[int, PartyId, str]


class ChaosAdversary(PuppetDrivingAdversary):
    """Per-party, per-round random choice among benign-to-nasty behaviours.

    Parameters
    ----------
    seed:
        Seeds the behaviour stream (reproducible runs).
    weights:
        Optional mapping from behaviour name (``faithful``, ``silent``,
        ``stale``, ``junk``, ``mirror``) to relative weight.
    script:
        Optional replay script: ``(round, pid, behaviour)`` triples, the
        exact format of :attr:`log`.  When given, behaviour choices come
        from the script instead of the weighted draw — any ``(round,
        pid)`` pair absent from the script behaves faithfully — which is
        what lets the shrinker truncate a recorded chaos log and check
        whether a shorter script still reproduces a violation.  Payload-
        level draws (junk selection, mirror sampling) still come from the
        seeded generator, so a scripted adversary is as deterministic as
        a free-running one.
    """

    BEHAVIOURS = ("faithful", "silent", "stale", "junk", "mirror")

    _JUNK: Sequence[Any] = (
        None,
        -1,
        2.5,
        float("nan"),
        "chaos",
        ("val",),
        ("val", 0, None),
        ("echo", 1, {"oops": 3}),
        ("sup", 2, {0: object}),
        ("report", 0, 0),
        ("init", ("val", 0)),
        [1, [2, [3]]],
    )

    def __init__(
        self,
        seed: int = 0,
        weights: Optional[Dict[str, float]] = None,
        corrupt: Optional[Sequence[PartyId]] = None,
        script: Optional[Iterable[ChaosLogEntry]] = None,
    ) -> None:
        super().__init__(corrupt)
        self._seed = seed
        self._rng = random.Random(seed)
        weights = weights or {}
        self._names = list(self.BEHAVIOURS)
        self._weights = [max(0.0, weights.get(name, 1.0)) for name in self._names]
        if not any(self._weights):
            raise ValueError("at least one behaviour needs positive weight")
        self._script: Optional[Dict[Tuple[int, PartyId], str]] = None
        if script is not None:
            self._script = {}
            for round_index, party, behaviour in script:
                if behaviour not in self.BEHAVIOURS:
                    raise ValueError(f"unknown scripted behaviour {behaviour!r}")
                self._script[(round_index, party)] = behaviour
        self._stale: Dict[PartyId, Outbox] = {}
        #: (round, pid, behaviour) log, for debugging reproductions.
        self.log: List[ChaosLogEntry] = []

    def batch_spec(self):
        """Replay parameters for the dense batch engine.

        The spec's ``fresh`` holds the constructor arguments, not the live
        state: the dense engine builds a fresh :class:`ChaosAdversary` and
        replays the behaviour stream from the seed, exactly as a fresh
        reference run would.  Subclasses may override behaviour methods,
        so only the exact class is claimed.
        """
        if type(self) is not ChaosAdversary:
            return super().batch_spec()
        from ..engine.spec import KIND_CHAOS

        script = None if self._script is None else [
            (round_index, pid, behaviour)
            for (round_index, pid), behaviour in sorted(self._script.items())
        ]
        return self._batch_spec(
            KIND_CHAOS,
            functools.partial(
                ChaosAdversary,
                seed=self._seed,
                weights=dict(zip(self._names, self._weights)),
                script=script,
            ),
        )

    def transform_outbox(
        self, pid: PartyId, view: AdversaryView, faithful: Outbox
    ) -> Outbox:
        if self._script is not None:
            behaviour = self._script.get((view.round_index, pid), "faithful")
        else:
            behaviour = self._rng.choices(self._names, weights=self._weights)[0]
        self.log.append((view.round_index, pid, behaviour))
        # Snapshot what the party *would* have sent every round, whatever
        # behaviour was drawn: "stale" then always replays the previous
        # round's faithful outbox rather than degenerating into "silent"
        # whenever no faithful round happened to precede it.
        previous = self._stale.get(pid)
        self._stale[pid] = dict(faithful)
        if behaviour == "faithful":
            return faithful
        if behaviour == "silent":
            return {}
        if behaviour == "stale":
            return dict(previous) if previous is not None else dict(faithful)
        if behaviour == "junk":
            return {
                recipient: self._rng.choice(self._JUNK)
                for recipient in range(view.n)
                if self._rng.random() < 0.7
            }
        # mirror: replay a seeded-random honest party's payload to everyone
        candidates = [
            sender
            for sender in sorted(view.honest_messages)
            if view.honest_messages[sender]
        ]
        if not candidates:
            return {}
        sender = self._rng.choice(candidates)
        outbox = view.honest_messages[sender]
        recipient_key = self._rng.choice(sorted(outbox, key=repr))
        payload = outbox[recipient_key]
        return {recipient: payload for recipient in range(view.n)}
