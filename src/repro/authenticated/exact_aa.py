"""Exact real-valued agreement from Dolev–Strong, for ``t < n/2``.

With authenticated broadcast every honest party extracts the *identical*
value (or ⊥) per origin, so one broadcast exchange already yields identical
multisets — and any deterministic aggregation gives **exact** agreement.
Validity needs care: up to ``t`` of the extracted values are Byzantine, and
for ``n/3 ≤ t < n/2`` the classic symmetric ``t``-trim can exceed the
multiset.  But the multiset pins the Byzantine count: at least ``n − t`` of
its ``m`` entries are honest, so at most ``k = m − (n − t) ≤ t`` are not,
and trimming ``k`` from each side leaves ``≥ 2(n − t) − m ≥ n − 2t ≥ 1``
values inside the honest range.

This is the drop-in engine for the paper's authenticated-setting note: not
round-*optimal* (Dolev–Strong costs ``t + 1`` rounds; the paper points to
Proxcensus [22] for ``t = (1−c)n/2`` round optimality), but a *correct*
exact-AA block at the ``t < n/2`` threshold — which is all the TreeAA
reduction needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..net.messages import Inbox, Outbox, PartyId
from ..net.protocol import ProtocolParty
from ..protocols.realaa import is_real, trimmed_update
from .dolev_strong import BOTTOM, ParallelDolevStrong
from .signatures import SignatureAuthority, Signer


def check_authenticated_resilience(n: int, t: int) -> None:
    """Require the authenticated-setting threshold ``t < n/2``."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if 2 * t >= n:
        raise ValueError(
            f"authenticated AA requires t < n/2 (got n={n}, t={t})"
        )


def exact_trimmed_mean(values: List[float], n: int, t: int) -> float:
    """Aggregate an *identical-across-honest* multiset, validly.

    Trims ``k = m − (n − t)`` from each side (the sharpest bound on the
    Byzantine entries the multiset's own size certifies), then averages.
    """
    m = len(values)
    if m < n - t:
        raise ValueError(
            f"extracted only {m} values but >= n - t = {n - t} are guaranteed"
        )
    return trimmed_update(values, m - (n - t))[0]


class ExactRealAAParty(ProtocolParty):
    """Exact agreement on ℝ in ``t + 1`` rounds, tolerating ``t < n/2``.

    All parties Dolev–Strong their inputs in parallel; the output is the
    :func:`exact_trimmed_mean` of the extracted multiset — bit-identical
    across honest parties.
    """

    def __init__(
        self,
        pid: PartyId,
        n: int,
        t: int,
        authority: SignatureAuthority,
        input_value: float,
        session: Any = "exact-aa",
    ) -> None:
        super().__init__(pid, n, t)
        check_authenticated_resilience(n, t)
        if not is_real(input_value):
            raise ValueError(f"input must be a finite real, got {input_value!r}")
        self.authority = authority
        self.signer: Signer = authority.signer(pid)
        self.input_value = float(input_value)
        #: The extracted per-origin values (diagnostics; set at the end).
        self.extracted: Optional[Dict[PartyId, Any]] = None
        self._engine = ParallelDolevStrong(
            pid,
            n,
            t,
            authority,
            self.signer,
            float(input_value),
            validate_value=is_real,
            session=session,
        )

    @property
    def duration(self) -> int:
        return self.t + 1

    def messages_for_round(self, round_index: int) -> Outbox:
        if round_index >= self.duration:
            return {}
        return self._engine.messages_for_round(round_index)

    def receive_round(self, round_index: int, inbox: Inbox) -> None:
        if round_index >= self.duration:
            return
        self._engine.receive_round(round_index, inbox)
        if round_index == self.duration - 1:
            self.extracted = self._engine.outputs()
            values = [
                float(v) for v in self.extracted.values() if v is not BOTTOM
            ]
            self.value = exact_trimmed_mean(values, self.n, self.t)
            self.output = self._final_output()

    def _final_output(self) -> Any:
        """Hook: map the exact real value to the protocol's output."""
        return self.value
