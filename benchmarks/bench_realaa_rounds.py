"""Experiment T2 (Theorem 3): RealAA terminates within
``⌈7·log2(D/ε) / log2 log2(D/ε)⌉`` rounds.

Theorem 3's regime is ``t ∈ Θ(n)`` with the required iteration count below
the corruption budget, so the sweep varies both the spread ``D/ε`` and the
network size (``n = 3t + 1``).  Reported per point: the deterministic round
budget the implementation derives (provably sound worst-case burn DP, at
most ``3(t+1)`` rounds), the *measured* rounds under an even burn schedule,
the paper's closed-form bound, and the ``3·⌈log2(D/ε)⌉`` rounds of the
memoryless outline.  Expected shape: measured ≤ budget; both grow like
log/loglog and sit below the outline for large spreads.
"""

from __future__ import annotations

import pytest

from repro.adversary.realaa_attacks import BurnScheduleAdversary, even_burn_schedule
from repro.baselines import halving_iterations
from repro.core import run_real_aa
from repro.protocols import theorem3_round_bound

NETWORKS = [(7, 2), (13, 4), (25, 8), (49, 16)]
SPREADS = [2.0**4, 2.0**10, 2.0**16]

#: The T2 grid as engine data.  The ``burn`` adversary burns one party in
#: each iteration until its budget ``t`` runs out; that is the even burn
#: schedule ``even_burn_schedule(min(t, iterations), iterations)``.
T2_GRID = [
    {
        "n": n,
        "t": t,
        "spread": spread,
        "epsilon": 1.0,
        "adversary": "burn",
        "seed": 0,
    }
    for n, t in NETWORKS
    for spread in SPREADS
]


def test_t2_table(report, benchmark, sweep_config):
    def sweep():
        rows = []
        for point in sweep_config.run("t2-realaa", "realaa-point", T2_GRID):
            n, t, spread = point["n"], point["t"], point["spread"]
            budget, measured, ok = point["budget"], point["measured"], point["ok"]
            bound = theorem3_round_bound(spread, 1.0)
            outline = 3 * halving_iterations(spread, 1.0)
            rows.append(
                [
                    f"n={n},t={t}",
                    f"2^{int(spread).bit_length() - 1}",
                    budget,
                    measured if measured is not None else "-",
                    bound,
                    outline,
                    ok,
                ]
            )
            assert ok
            assert budget <= 3 * (t + 1)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.table(
        "T2",
        "RealAA(1) round complexity vs Theorem 3 (even burn schedule)",
        [
            "network",
            "D/eps",
            "round budget",
            "measured rounds",
            "Thm-3 bound",
            "outline 3*log2",
            "AA ok",
        ],
        rows,
        notes=(
            "Paper claim (Thm 3): termination within ceil(7 log2(D/e) /\n"
            "log2 log2(D/e)) rounds.  Expected shape: for fixed (n, t) the\n"
            "budget saturates at 3(t+1) (a clean iteration collapses the\n"
            "range exactly); in the t = Theta(n) regime the budget grows\n"
            "with D like log/loglog, far below the outline's 3 log2(D/e).\n"
            "The closed-form bound is asymptotic: its constants only\n"
            "dominate once D/e is large relative to n."
        ),
    )


@pytest.mark.parametrize("spread", [2.0**8, 2.0**20])
def test_bench_realaa_run(benchmark, spread):
    n, t = 7, 2
    inputs = [0.0 if i % 2 == 0 else spread for i in range(n)]
    outcome = benchmark.pedantic(
        lambda: run_real_aa(
            inputs,
            t,
            epsilon=1.0,
            known_range=spread,
            adversary=BurnScheduleAdversary([1, 1]),
        ),
        rounds=3,
        iterations=1,
    )
    assert outcome.achieved_aa


def test_bench_realaa_large_network(benchmark):
    n, t = 25, 8
    inputs = [0.0 if i % 2 == 0 else 1000.0 for i in range(n)]
    outcome = benchmark.pedantic(
        lambda: run_real_aa(
            inputs,
            t,
            epsilon=1.0,
            known_range=1000.0,
            adversary=BurnScheduleAdversary(even_burn_schedule(8, 4)),
        ),
        rounds=1,
        iterations=1,
    )
    assert outcome.achieved_aa
