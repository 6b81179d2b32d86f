"""Vectorized metrics: feeding a ``MetricsCollector`` from batch kernels.

The reference :class:`~repro.observability.collector.MetricsCollector`
watches materialised per-message traffic.  The batch engines never build
that traffic — they already hold the per-round reductions the collector
would compute (message and payload-unit counts from the trace accounting,
honest value vectors for the spread) — so :class:`BatchMetrics` turns
those reductions into reference-identical
:class:`~repro.observability.collector.RoundMetrics` rows and appends
them to the *caller's own collector*.  Downstream consumers (JSONL trace
export, sweep summaries, ``repro report``) see the exact rows a reference
run would have produced, modulo the explicitly non-deterministic
``wall_seconds`` field.

Two reference behaviours shape the design:

* ``Observer.on_round`` fires *after* the honest parties processed the
  round, so a protocol-violation raise during a round suppresses that
  round's row.  Kernel rounds cannot raise mid-phase — only the backend's
  phase-boundary checks can — so rows are appended eagerly except the
  phase-final row, which is *held* until the backend's boundary checks
  pass (:meth:`BatchMetrics.flush`).
* The hull diameter is computed from the honest parties' current
  estimates — their ``output`` once set, falling back to ``input_vertex``
  — against the **collector's** tree.  Outputs only appear in the final
  round's row, whose hull is therefore patched in :meth:`finalize` once
  the backend knows the outputs; every earlier row uses the constant
  input-estimate hull.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from ..observability.collector import MetricsCollector, RoundMetrics
from ..trees.convex import steiner_diameter


class BatchMetrics:
    """Reference-identical ``RoundMetrics`` rows from batch reductions.

    Parameters
    ----------
    collector:
        The caller's :class:`~repro.observability.collector
        .MetricsCollector`; rows land in ``collector.rounds`` and its
        clock drives ``wall_seconds``.
    n, corrupted:
        Execution shape; ``corrupted`` becomes the constant per-row
        corrupted tuple (supported adversaries never corrupt adaptively).
    total_rounds:
        The protocol duration: the row with ``round_index ==
        total_rounds - 1`` is the final row (honest outputs decided,
        output-based hull).
    track_value_spread:
        Whether honest parties expose RealAA-style ``value`` state
        (RealAA / PathAA routes).  The TreeAA route's parties do not, so
        its reference rows carry ``value_spread=None``.
    honest_estimates:
        Pid-ascending honest input estimates (vertices) for the hull,
        or ``None`` when the collector has no tree.
    """

    def __init__(
        self,
        collector: MetricsCollector,
        *,
        n: int,
        corrupted: Sequence[int],
        total_rounds: int,
        track_value_spread: bool,
        honest_estimates: Optional[Sequence[Any]] = None,
    ) -> None:
        self._collector = collector
        self._n = n
        self._corrupted = tuple(sorted(corrupted))
        self._hmask = np.ones(n, dtype=bool)
        self._hmask[list(self._corrupted)] = False
        self._honest_count = n - len(self._corrupted)
        self._total_rounds = total_rounds
        self._spread = track_value_spread
        self._inputs: List[Any] = list(honest_estimates or ())
        tree = collector.tree
        self._prefinal_hull: Optional[int] = None
        if tree is not None:
            estimates = [v for v in dict.fromkeys(self._inputs) if v in tree]
            if estimates:
                self._prefinal_hull = steiner_diameter(tree, estimates)
        self._pending: List[RoundMetrics] = []
        self._final_row: Optional[RoundMetrics] = None

    def emit(
        self,
        round_index: int,
        honest_messages: int,
        byzantine_messages: int,
        honest_units: int,
        byzantine_units: int,
        values: Optional[np.ndarray] = None,
        hold: bool = False,
    ) -> None:
        """Record one round's row (reference ``on_round`` equivalent).

        Counts are on the *sent* traffic, like the observer's view.
        ``values`` is the full ``(n,)`` value vector when the route's
        parties carry real-valued state.  ``hold=True`` keeps the row
        pending until :meth:`flush` — used for the phase-final round,
        whose reference row only exists if the honest boundary processing
        did not raise.
        """
        now = self._collector._clock()
        wall = now - self._collector._last_time
        self._collector._last_time = now
        final = round_index == self._total_rounds - 1
        spread: Optional[float] = None
        if self._spread and values is not None and self._honest_count:
            honest_values = values[self._hmask]
            spread = float(honest_values.max()) - float(honest_values.min())
        row = RoundMetrics(
            round_index=round_index,
            honest_messages=int(honest_messages),
            byzantine_messages=int(byzantine_messages),
            honest_payload_units=int(honest_units),
            byzantine_payload_units=int(byzantine_units),
            corrupted=self._corrupted,
            outputs_decided=self._honest_count if final else 0,
            hull_diameter=self._prefinal_hull,
            value_spread=spread,
            wall_seconds=wall,
        )
        if final:
            self._final_row = row
        self._pending.append(row)
        if not hold:
            self.flush()

    def finalize(self, outputs: Optional[Sequence[Any]] = None) -> None:
        """Patch the final row's hull once honest outputs are known.

        *outputs* is pid-ascending over the honest parties.  Mirrors the
        reference estimate fallback: a party contributes its ``output``
        when that is a vertex of the collector's tree, else its input
        estimate, else nothing.  The hull depends only on the set of
        estimates, so each distinct ``(output, input)`` pair is judged
        once and each distinct label tested against the tree once.
        """
        tree = self._collector.tree
        row = self._final_row
        if row is None or tree is None:
            return
        padded = list(outputs or ())[: len(self._inputs)]
        padded += [None] * (len(self._inputs) - len(padded))
        pairs = set(zip(padded, self._inputs))
        member = {
            label: label is not None and label in tree
            for label in {label for pair in pairs for label in pair}
        }
        estimates = {
            out if member[out] else inp
            for out, inp in pairs
            if member[out] or member[inp]
        }
        row.hull_diameter = (
            steiner_diameter(tree, estimates) if estimates else None
        )

    def flush(self) -> None:
        """Append all pending rows to the collector (boundary passed)."""
        if self._pending:
            self._collector.rounds.extend(self._pending)
            self._pending.clear()
