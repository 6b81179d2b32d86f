"""Fekete's lower bound, adapted to trees (Section 3).

Implements the quantitative content of Theorem 1 (Theorem 15 of [19]),
Corollary 1, and Theorem 2:

* :func:`fekete_K` — the guaranteed output gap ``K(R, D)`` of Equation (1),
  with the *exact* integer supremum of ``t_1 · … · t_R`` (``t_i ∈ ℕ``,
  ``Σ t_i ≤ t``) rather than the looser ``(t/R)^R`` closed form;
* :func:`theorem2_lower_bound` — the explicit round lower bound
  ``log2 D / log2 log2 D^δ`` with ``δ = (n + t)/t`` the paper derives;
* :func:`min_rounds_required` — the sharpest integer consequence of
  Corollary 1: the smallest ``R`` for which ``K(R, D) ≤ 1`` no longer
  *forbids* 1-agreement.

Benchmark T4 tabulates these against TreeAA's measured round counts.
"""

from __future__ import annotations

import math
from typing import List, Tuple


def optimal_integer_split(t: int, rounds: int) -> Tuple[int, ...]:
    """The split ``t_1 + … + t_R ≤ t`` maximising ``∏ t_i`` over ``ℕ^R``.

    For ``t ≥ R`` the maximiser spends the whole budget as evenly as
    possible (parts ``⌊t/R⌋`` and ``⌈t/R⌉``).  For ``t < R`` every split
    has a zero part, so the supremum of the product is 0 — Fekete's chain
    becomes infinitely long and the bound degenerates, which is exactly why
    protocols with more rounds than corruptions can converge arbitrarily
    well.
    """
    if t < 0 or rounds < 1:
        raise ValueError("need t >= 0 and rounds >= 1")
    if t < rounds:
        return tuple([1] * t + [0] * (rounds - t))
    base, extra = divmod(t, rounds)
    return tuple([base + 1] * extra + [base] * (rounds - extra))


def max_split_product(t: int, rounds: int) -> int:
    """``sup{t_1·…·t_R : t_i ∈ ℕ, Σ t_i ≤ t}`` (0 when ``t < R``)."""
    split = optimal_integer_split(t, rounds)
    product = 1
    for part in split:
        product *= part
    return product


def fekete_K(rounds: int, spread: float, n: int, t: int) -> float:
    """``K(R, D)`` of Equation (1): the output gap some execution forces.

    Any deterministic ``R``-round protocol satisfying Validity and
    Termination with ``t`` Byzantine parties has an execution in which two
    honest outputs differ by at least this much (Theorem 1 on ℝ,
    Corollary 1 verbatim on a tree of diameter ``D``).
    """
    if n < 1 or t < 0 or rounds < 1:
        raise ValueError("need n >= 1, t >= 0, rounds >= 1")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    return spread * max_split_product(t, rounds) / float((n + t) ** rounds)


def fekete_K_closed_form(rounds: int, spread: float, n: int, t: int) -> float:
    """The weaker closed form ``D · t^R / (R^R (n+t)^R)`` of Equation (1)."""
    if n < 1 or t < 0 or rounds < 1:
        raise ValueError("need n >= 1, t >= 0, rounds >= 1")
    return spread * (t / (rounds * (n + t))) ** rounds


def min_rounds_required(spread: float, n: int, t: int, limit: int = 10_000) -> int:
    """The smallest ``R`` with ``K(R, D) ≤ 1``: Corollary 1's integer bound.

    Every protocol running fewer rounds has an execution violating
    1-agreement.  ``K`` is not monotone in ``R`` a priori, so the search
    returns the first ``R`` at which *no* execution of Corollary 1's form
    forces a gap above 1 for this or any larger round count we can build
    by idling (running longer never hurts, so the first admissible ``R``
    is the bound).
    """
    if t == 0:
        return 1  # the paper's footnote: with t = 0 the bound is Ω(1)
    for rounds in range(1, limit + 1):
        if fekete_K(rounds, spread, n, t) <= 1.0:
            return rounds
    raise RuntimeError(f"no admissible round count below {limit}")


def theorem2_lower_bound(spread: float, n: int, t: int) -> float:
    """Theorem 2's explicit bound ``log2 D / log2 log2 D^δ``, ``δ=(n+t)/t``.

    Returns a (possibly fractional) number of rounds; any deterministic AA
    protocol on a tree of diameter ``D ≥ 4`` needs strictly more rounds.
    For ``t = 0`` (footnote 1) or tiny diameters the bound degenerates to 1.
    """
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    if t == 0 or spread < 4:
        return 1.0
    delta = (n + t) / t
    denominator = math.log2(delta * math.log2(spread))
    if denominator <= 0:
        return 1.0
    return max(1.0, math.log2(spread) / denominator)


def lower_bound_table(
    spreads: List[float], n: int, t: int
) -> List[Tuple[float, float, int]]:
    """For each diameter: (Theorem-2 bound, Corollary-1 integer bound)."""
    return [
        (d, theorem2_lower_bound(d, n, t), min_rounds_required(d, n, t))
        for d in spreads
    ]
