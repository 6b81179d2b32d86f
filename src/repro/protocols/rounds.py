"""Round-complexity formulas from the paper.

Collects, in one place, every quantitative round bound the paper states:

* Lemma 5 (Claim 12 of [7]): after ``R`` iterations RealAA's honest range has
  shrunk by at least ``t^R / (R^R · (n − 2t)^R)`` (:func:`lemma5_factor`);
* Theorem 3: ``RealAA(ε)`` terminates within
  ``⌈7 · log2(D/ε) / log2 log2(D/ε)⌉`` rounds (:func:`theorem3_round_bound`);
* Remark 3: each RealAA iteration takes exactly 3 rounds
  (:data:`ROUNDS_PER_ITERATION`);
* Lemma 4: ``R_PathsFinder = R_RealAA(2·|V(T)|, 1)``
  (:func:`paths_finder_round_bound`);
* Theorem 4: TreeAA terminates within
  ``R_PathsFinder + R_RealAA(D(T), 1)`` rounds (:func:`tree_aa_round_bound`).

The *operational* iteration counts used by the implementation
(:func:`realaa_iterations`) are derived directly from Lemma 5 — the smallest
``R`` whose guaranteed shrink factor brings the publicly known input range
below ``ε``.  They are always at most the Theorem-3 bound for the parameter
ranges the benchmarks sweep, which benchmark T2 verifies explicitly.

The worst-case factor behind those counts is a dynamic program over burn
schedules (:class:`_BurnFactorTable`).  Its row maximisation has a
monotone argmax — the row's best remaining budget moves right as the
budget grows — so each layer is filled by divide and conquer in
``O(t log t)`` rather than by the ``O(t²)`` scan, with every cell the same
IEEE expression and hence the same bits.  The tests keep the quadratic
scan as the oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Dict, Iterable

#: Remark 3 (Theorem 1 of [7]): each RealAA iteration takes three rounds.
ROUNDS_PER_ITERATION = 3


def check_resilience(n: int, t: int) -> None:
    """Require the optimal unauthenticated threshold ``t < n/3``."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if 3 * t >= n:
        raise ValueError(
            f"RealAA requires t < n/3 (got n={n}, t={t}); this is the "
            "optimal threshold for deterministic synchronous AA without "
            "cryptographic assumptions"
        )


def check_epsilon(epsilon: float) -> None:
    """Require a finite agreement parameter ``ε > 0``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")


def lemma5_factor(n: int, t: int, iterations: int) -> float:
    """The guaranteed range-shrink factor ``t^R / (R^R · (n − 2t)^R)``.

    This is the worst case over all adversary burn schedules: an adversary
    splitting its budget as ``t_1 + … + t_R ≤ t`` achieves a factor of
    ``∏ t_i / (n − 2t)``, maximised (over reals) by the even split
    ``t_i = t/R``.
    """
    check_resilience(n, t)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if t == 0:
        return 0.0
    base = t / (iterations * (n - 2 * t))
    return base ** iterations


def schedule_factor(n: int, t: int, schedule: Iterable[int]) -> float:
    """The shrink factor ``∏ t_i / (n − 2t)`` of a concrete burn schedule."""
    check_resilience(n, t)
    schedule = list(schedule)
    if sum(schedule) > t:
        raise ValueError(f"schedule {schedule} exceeds the budget t={t}")
    if any(s < 0 for s in schedule):
        raise ValueError("schedule entries must be non-negative")
    factor = 1.0
    for t_i in schedule:
        factor *= t_i / (n - 2 * t)
    return factor


def adjusted_schedule_factor(n: int, t: int, schedule: Iterable[int]) -> float:
    """The shrink factor of a burn schedule against *this* implementation.

    RealAA here drops detected (BAD) senders from the accepted multiset, so
    after ``B`` parties have burned, an iteration's multiset holds only
    ``≥ n − t - 0`` … in the worst case ``n − B`` values of which ``t`` are
    trimmed per side — a burn then moves the trimmed mean by up to
    ``t_i / (n − 2t − B)`` of the current range rather than Lemma 5's
    idealised ``t_i / (n − 2t)``.  The product of the per-iteration terms is
    the tight operational bound benchmark T3 verifies (measured factors sit
    exactly at or below it); the Lemma-5 closed form remains the right
    *asymptotic* statement, as both denominators are Θ(n) for ``t < n/3``.
    """
    check_resilience(n, t)
    schedule = list(schedule)
    if sum(schedule) > t:
        raise ValueError(f"schedule {schedule} exceeds the budget t={t}")
    if any(s < 0 for s in schedule):
        raise ValueError("schedule entries must be non-negative")
    factor = 1.0
    burned = 0
    for t_i in schedule:
        denominator = n - 2 * t - burned
        if denominator < 1:
            denominator = 1
        factor *= t_i / denominator
        burned += t_i
    return factor


class _BurnFactorTable:
    """Bottom-up burn-schedule DP for one ``(n, t)``, shared across ``R``.

    ``full[r][b]`` is the best shrink factor an adversary achieves with
    ``r`` iterations left and ``b`` budget remaining, having already burned
    ``t − b`` senders — the budget determines the burn count, so the state
    space is ``(r, b)``, not the ``(r, b, burned)`` of the naive recursion.
    Substituting ``q = b − t_i`` (the budget left *after* the round), the
    step denominator ``n − 2t − burned − t_i`` becomes ``d + q`` with
    ``d = n − 3t``:

        full[r][b] = max over q in [r−1, b−1] of f(b, q),
        f(b, q)    = min(1, (b − q) / (d + q)) · P[q],   P = full[r−1]

    (``P[q] = 0`` for ``q < r − 1``: every iteration needs a fresh burn.)

    **Monotone argmax.**  ``P`` is nonnegative and nondecreasing in the
    budget, and for ``b < b'``, ``q < q' < b``::

        f(b, q') ≥ f(b, q)  ⟹  f(b', q') ≥ f(b', q).

    The cap ``min(1, ·)`` binds on a prefix of ``q`` (``b − q ≥ d + q``),
    and binds at ``b'`` wherever it binds at ``b``.  Three cases at ``b'``:
    both cells capped — the claim is ``P[q'] ≥ P[q]``; neither capped — the
    uncapped step's growth ``(b' − x) / (b − x)`` increases in ``x``, so
    moving from ``b`` to ``b'`` multiplies ``f(·, q')`` by at least what it
    multiplies ``f(·, q)`` by; only ``q`` capped — ``f(b', q) = P[q]``, and
    ``b' − q ≥ d + q`` gives ``min(1, (b − q) / (d + q)) ≥ (b − q) /
    (b' − q)``, so the previous case's argument goes through with the
    growth at ``q`` taken as ``(b' − q) / (b − q)``.  Hence any argmax of a
    row ``b`` beats everything to its left in every later row, and the
    rightmost argmax strictly beats everything to its right in every
    earlier row.

    Each full layer is therefore filled by divide and conquer: solve the
    middle row over its window, then rows below it search
    ``[lo, rightmost argmax]`` and rows above it ``[rightmost argmax, hi]``.
    Both windows are exact under ties, and they share one column, so each
    recursion level's windows total ``O(t)`` and a layer costs
    ``O(t log t)`` instead of ``O(t²)``.  (Starting the upper window at the
    *leftmost* argmax is exact too, but the cap makes long ties — layer
    2's capped cells read ``P[q] = 1`` for every ``q ≥ d`` — and the
    overlapping windows then double level by level.)  The lemma holds in exact arithmetic; that
    the rounded cells keep it — so every cell is bit-equal to the quadratic
    fill — is checked against that fill in ``tests/protocols/test_rounds.py``,
    not proved.

    Every cell is the IEEE expression ``min(b − q, d + q) / (d + q) · P[q]``
    on both paths: one recursion level at a time over NumPy arrays when
    ``t`` exceeds :attr:`NUMPY_THRESHOLD` and NumPy is importable, the same
    recursion in pure Python otherwise.  Only the latest full layer is kept
    (a new ``R`` reads just ``full[R − 1]``), plus the top cell ``full[R][t]``
    of every ``R`` built or probed.
    """

    #: Budgets up to this size stay on the dependency-free Python recursion.
    NUMPY_THRESHOLD = 256

    def __init__(self, n: int, t: int) -> None:
        check_resilience(n, t)
        self.n = n
        self.t = t
        self.d = n - 3 * t  # >= 1 whenever t < n/3
        self._np: Any = _numpy() if t > self.NUMPY_THRESHOLD else None
        # full[1] has a closed form: a single burn is maximised by the
        # whole budget at once (the step shrinks in q), so
        # full[1][b] = min(1, b / d) — the q = 0 term, bit for bit.
        self.rounds = 1
        if self._np is None:
            self.layer: Any = [min(1.0, b / self.d) for b in range(t + 1)]
        else:
            budgets = self._np.arange(t + 1, dtype=self._np.float64)
            self.layer = self._np.minimum(budgets / self.d, 1.0)
        self.tops: Dict[int, float] = {1: float(self.layer[t])}

    def factor(self, iterations: int) -> float:
        """``worst_burn_factor(n, t, iterations)`` — 0 beyond ``R = t``."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if iterations > self.t:
            return 0.0
        if iterations not in self.tops:
            # The top cell of layer R reads the full layer R−1, which reads
            # the full layer below it, and so on: the iteration search
            # builds each full layer once, and only the O(t) top row of
            # the R it is probing.
            while self.rounds < iterations - 1:
                self.rounds += 1
                self.layer = self._layer(self.rounds)
                self.tops.setdefault(self.rounds, float(self.layer[self.t]))
            self.tops[iterations] = self._top(iterations)
        return self.tops[iterations]

    def _top(self, rounds: int) -> float:
        """``full[rounds][t]`` from the kept full layer ``rounds − 1``."""
        previous, d, t = self.layer, self.d, self.t
        np = self._np
        if np is None:
            top = 0.0
            for q in range(rounds - 1, t):
                top = max(top, min(t - q, d + q) / (d + q) * previous[q])
            return top
        q = np.arange(rounds - 1, t, dtype=np.float64)
        den = q + d
        row = np.subtract(float(t), q)
        np.minimum(row, den, out=row)
        np.divide(row, den, out=row)
        np.multiply(row, previous[rounds - 1 : t], out=row)
        return float(row.max())

    def _layer(self, rounds: int) -> Any:
        """The full layer *rounds* (budgets ``0 … t``) from the kept one.

        Rows ``b < rounds`` are 0; rows ``rounds … t`` start as one
        segment searching ``q ∈ [rounds − 1, t − 1]``.
        """
        if self._np is not None:
            return self._layer_numpy(rounds)
        previous, d = self.layer, self.d
        layer = [0.0] * (self.t + 1)
        # (first row, last row, first q, last q) of each open segment.
        stack = [(rounds, self.t, rounds - 1, self.t - 1)]
        while stack:
            row_lo, row_hi, q_lo, q_hi = stack.pop()
            b = (row_lo + row_hi) // 2
            best, split = -1.0, q_lo
            for q in range(q_lo, min(q_hi, b - 1) + 1):
                cell = min(b - q, d + q) / (d + q) * previous[q]
                if cell >= best:
                    best, split = cell, q
            layer[b] = best
            if row_lo < b:
                stack.append((row_lo, b - 1, q_lo, split))
            if b < row_hi:
                stack.append((b + 1, row_hi, split, q_hi))
        return layer

    def _layer_numpy(self, rounds: int) -> Any:
        """:meth:`_layer` one recursion level per pass over flat arrays."""
        np = self._np
        previous, d = self.layer, float(self.d)
        layer = np.zeros(self.t + 1, dtype=np.float64)
        row_lo = np.array([rounds])
        row_hi = np.array([self.t])
        q_lo = np.array([rounds - 1])
        q_hi = np.array([self.t - 1])
        while row_lo.size:
            b = (row_lo + row_hi) // 2
            # Window [q_lo, min(q_hi, b − 1)] of each segment's middle row,
            # never empty: q_lo ≤ row_lo − 1 ≤ b − 1 holds for every segment.
            lengths = np.minimum(q_hi, b - 1) - q_lo + 1
            starts = np.cumsum(lengths) - lengths
            cells_total = int(starts[-1] + lengths[-1])
            flat = np.arange(cells_total)
            q = flat - np.repeat(starts - q_lo, lengths)
            qf = q.astype(np.float64)
            den = qf + d
            cells = np.repeat(b.astype(np.float64), lengths)
            np.subtract(cells, qf, out=cells)
            np.minimum(cells, den, out=cells)
            np.divide(cells, den, out=cells)
            np.multiply(cells, previous[q], out=cells)
            best = np.maximum.reduceat(cells, starts)
            layer[b] = best
            hit = cells == np.repeat(best, lengths)
            split = q[np.maximum.reduceat(np.where(hit, flat, -1), starts)]
            below = row_lo < b
            above = b < row_hi
            row_lo, row_hi, q_lo, q_hi = (
                np.concatenate((row_lo[below], b[above] + 1)),
                np.concatenate((b[below] - 1, row_hi[above])),
                np.concatenate((q_lo[below], split[above])),
                np.concatenate((split[below], q_hi[above])),
            )
        return layer


def _numpy() -> Any:
    """The NumPy module, or ``None`` where it is not installed."""
    try:
        import numpy

        return numpy
    except ImportError:  # pragma: no cover - numpy ships in CI
        return None


@lru_cache(maxsize=8)
def _burn_table(n: int, t: int) -> _BurnFactorTable:
    return _BurnFactorTable(n, t)


def worst_burn_factor(n: int, t: int, iterations: int) -> float:
    """The provable worst-case shrink factor after ``R`` iterations.

    Two structural facts pin the adversary down:

    * divergence between honest multisets requires a *fresh* burn — a sender
      graded 1 by some honest party and 0 by another is detected by both and
      ignored afterwards, and a grade-2 value is accepted by everyone
      (graded agreement) — so an iteration with no new burn leaves all
      honest multisets identical and the range collapses to **zero**;
    * an iteration in which ``t_i`` senders burn while ``B`` senders burned
      before moves the trimmed mean by at most
      ``t_i / max(1, n − 2t − B − t_i)`` of the current range (the accepted
      multiset has shrunk by the ``B + t_i`` dropped senders), capped at 1.

    The worst case over R iterations is therefore a maximisation over
    all-positive integer schedules ``t_1 + … + t_R ≤ t`` — computed by the
    shared bottom-up dynamic program of :class:`_BurnFactorTable` — and
    exactly 0 for ``R > t``.
    """
    check_resilience(n, t)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if t == 0 or iterations > t:
        return 0.0
    return _burn_table(n, t).factor(iterations)


def realaa_iterations(known_range: float, epsilon: float, n: int, t: int) -> int:
    """The number of iterations RealAA runs: smallest ``R`` with
    ``known_range · worst_burn_factor(n, t, R) ≤ ε`` (so at most ``t + 1``).

    ``known_range`` is the publicly known bound on the honest inputs' spread
    (for PathsFinder: ``|L| − 1``; for TreeAA's second stage: the height of
    the rooted tree).  The count is deterministic and publicly computable,
    as the synchronous model requires.

    The budget uses :func:`worst_burn_factor` — the bound that is provably
    sound for this implementation — rather than Lemma 5's idealised closed
    form, which benchmark T3 shows an adversary can slightly beat here
    (dropping detected senders shrinks the trimmed multiset).  Both are
    ``Θ(log(D/ε) / log log(D/ε))`` in the regime Theorem 3 addresses
    (``t ∈ Θ(n)``, large ``D/ε``).
    """
    check_resilience(n, t)
    check_epsilon(epsilon)
    if known_range < 0:
        raise ValueError("known_range must be non-negative")
    if not math.isfinite(known_range):
        raise ValueError(f"known_range must be finite, got {known_range!r}")
    iterations = 1
    if t == 0:
        return iterations
    table = _burn_table(n, t)
    while known_range * table.factor(iterations) > epsilon:
        iterations += 1
    return iterations


def realaa_duration(known_range: float, epsilon: float, n: int, t: int) -> int:
    """Total RealAA rounds: ``3 ×`` :func:`realaa_iterations` (Remark 3)."""
    return ROUNDS_PER_ITERATION * realaa_iterations(known_range, epsilon, n, t)


def theorem3_round_bound(spread: float, epsilon: float) -> int:
    """Theorem 3's closed-form bound ``⌈7 · log2(D/ε) / log2 log2(D/ε)⌉``.

    Only meaningful when ``D/ε > 4`` (below that, ``log2 log2`` is ≤ 1 and
    the asymptotic formula degenerates); we clamp the denominator at 1,
    matching how such bounds are read in the paper (constants absorb the
    small-``D`` regime, where 3 rounds — one iteration — always suffice).
    """
    check_epsilon(epsilon)
    if not math.isfinite(spread):
        raise ValueError(f"spread D must be finite, got {spread!r}")
    if spread <= epsilon:
        return ROUNDS_PER_ITERATION
    ratio = spread / epsilon
    denominator = max(1.0, math.log2(max(2.0, math.log2(ratio))))
    return math.ceil(7 * math.log2(ratio) / denominator)


def paths_finder_round_bound(n_tree_vertices: int) -> int:
    """Lemma 4: ``R_PathsFinder = R_RealAA(2 · |V(T)|, 1)`` (Theorem-3 form)."""
    if n_tree_vertices < 1:
        raise ValueError("a tree has at least one vertex")
    return theorem3_round_bound(2 * n_tree_vertices, 1.0)


def tree_aa_round_bound(n_tree_vertices: int, tree_diameter: int) -> int:
    """Theorem 4: TreeAA terminates within
    ``R_PathsFinder + R_RealAA(D(T), 1)`` rounds."""
    return paths_finder_round_bound(n_tree_vertices) + theorem3_round_bound(
        max(1, tree_diameter), 1.0
    )
