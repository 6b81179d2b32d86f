"""Tests for the round-complexity formulas (Theorem 3, Lemma 5, Remark 3)."""

import hashlib
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols import (
    ROUNDS_PER_ITERATION,
    check_resilience,
    lemma5_factor,
    paths_finder_round_bound,
    realaa_duration,
    realaa_iterations,
    schedule_factor,
    theorem3_round_bound,
    tree_aa_round_bound,
)
from repro.protocols.rounds import _BurnFactorTable

try:
    import numpy
except ImportError:  # the sweep-smoke CI job runs without numpy
    numpy = None


class TestResilience:
    def test_boundary(self):
        check_resilience(4, 1)
        check_resilience(7, 2)
        with pytest.raises(ValueError):
            check_resilience(3, 1)
        with pytest.raises(ValueError):
            check_resilience(6, 2)

    def test_t_zero_always_fine(self):
        check_resilience(1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_resilience(4, -1)
        with pytest.raises(ValueError):
            check_resilience(0, 0)


class TestLemma5Factor:
    def test_t_zero_collapses(self):
        assert lemma5_factor(4, 0, 1) == 0.0

    def test_single_iteration(self):
        # t / (n − 2t) with R = 1
        assert lemma5_factor(7, 2, 1) == pytest.approx(2 / 3)

    def test_matches_closed_form(self):
        n, t, R = 13, 4, 3
        assert lemma5_factor(n, t, R) == pytest.approx(
            t**R / (R**R * (n - 2 * t) ** R)
        )

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=20))
    def test_decreasing_in_iterations_eventually(self, t, extra):
        n = 3 * t + 1 + extra
        factors = [lemma5_factor(n, t, R) for R in range(1, 10)]
        # after R >= t the factor is strictly decreasing
        tail = factors[t - 1 :]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            lemma5_factor(4, 1, 0)


class TestScheduleFactor:
    def test_even_split_is_best(self):
        n, t, R = 10, 3, 3
        even = schedule_factor(n, t, [1, 1, 1])
        assert even >= schedule_factor(n, t, [3, 0, 0])
        assert even >= schedule_factor(n, t, [2, 1, 0])

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            schedule_factor(7, 2, [2, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            schedule_factor(7, 2, [-1, 3])

    def test_zero_entry_collapses(self):
        assert schedule_factor(7, 2, [2, 0]) == 0.0


class TestRealAAIterations:
    def test_no_spread_single_iteration(self):
        assert realaa_iterations(0.0, 1.0, 7, 2) == 1

    def test_t_zero_single_iteration(self):
        assert realaa_iterations(1e9, 1e-9, 4, 0) == 1

    def test_guarantee_met(self):
        from repro.protocols import worst_burn_factor

        for spread in (10.0, 1e3, 1e6):
            for eps in (1.0, 0.01):
                R = realaa_iterations(spread, eps, 7, 2)
                assert spread * worst_burn_factor(7, 2, R) <= eps
                if R > 1:
                    assert spread * worst_burn_factor(7, 2, R - 1) > eps

    def test_budget_capped_at_t_plus_one(self):
        """A clean iteration collapses the range exactly, so t + 1
        iterations always suffice — the budget never exceeds that."""
        for n, t in ((4, 1), (7, 2), (13, 4), (31, 10)):
            assert realaa_iterations(1e30, 1e-9, n, t) <= t + 1

    def test_worst_burn_factor_properties(self):
        from repro.protocols import worst_burn_factor

        # zero beyond the budget: every iteration needs a fresh burn
        assert worst_burn_factor(7, 2, 3) == 0.0
        # never exceeds 1 (ranges cannot grow)
        for R in range(1, 11):
            assert 0.0 <= worst_burn_factor(31, 10, R) <= 1.0
        # dominates the idealised Lemma-5 form (it is the conservative one)
        for R in range(1, 5):
            assert worst_burn_factor(13, 4, R) >= lemma5_factor(13, 4, R) - 1e-12

    def test_monotone_in_spread(self):
        rs = [realaa_iterations(d, 1.0, 7, 2) for d in (1, 10, 100, 1e4, 1e8)]
        assert rs == sorted(rs)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            realaa_iterations(10.0, 0.0, 7, 2)

    def test_negative_range(self):
        with pytest.raises(ValueError):
            realaa_iterations(-1.0, 1.0, 7, 2)

    def test_duration_is_three_per_iteration(self):
        assert realaa_duration(100.0, 1.0, 7, 2) == (
            ROUNDS_PER_ITERATION * realaa_iterations(100.0, 1.0, 7, 2)
        )


class TestTheorem3Bound:
    def test_trivial_spread(self):
        assert theorem3_round_bound(0.5, 1.0) == ROUNDS_PER_ITERATION

    def test_formula_at_large_ratio(self):
        # D/ε = 2^16: 7·16/log2(16) = 28
        assert theorem3_round_bound(2**16, 1.0) == 28

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            theorem3_round_bound(10.0, -1.0)

    @given(st.floats(min_value=8.0, max_value=1e9))
    def test_operational_count_within_theorem3(self, spread):
        """The Lemma-5-derived iteration count never exceeds the paper's
        closed-form bound (for the optimal-resilience n = 3t + 1)."""
        for n, t in ((4, 1), (7, 2), (13, 4)):
            assert realaa_duration(spread, 1.0, n, t) <= theorem3_round_bound(
                spread, 1.0
            )

    def test_sub_logarithmic_growth(self):
        """The hallmark of Theorem 3: o(log) growth in D."""
        small = theorem3_round_bound(2**10, 1.0)
        large = theorem3_round_bound(2**40, 1.0)
        assert large < 4 * small  # log would give exactly 4× here


class TestCompositeBounds:
    def test_paths_finder_bound(self):
        assert paths_finder_round_bound(100) == theorem3_round_bound(200, 1.0)
        with pytest.raises(ValueError):
            paths_finder_round_bound(0)

    def test_tree_aa_bound_composition(self):
        assert tree_aa_round_bound(100, 30) == paths_finder_round_bound(
            100
        ) + theorem3_round_bound(30, 1.0)

    def test_tree_aa_bound_handles_tiny_diameter(self):
        assert tree_aa_round_bound(5, 0) >= ROUNDS_PER_ITERATION


# ----------------------------------------------------------------------
# The burn-schedule table against the quadratic fill
# ----------------------------------------------------------------------


def quadratic_layer(previous, d, rounds, vectorised):
    """Full layer *rounds* of the burn DP by the O(t²) fill: every row
    ``b`` maximises over every ``q ∈ [0, b − 1]``.

    This is the oracle :class:`_BurnFactorTable`'s divide and conquer must
    match bit for bit.  The pure-Python form writes the step as
    ``min(1, (b − q) / (d + q))``; the vectorised one as
    ``min(b − q, d + q) / (d + q)`` row by row — the same IEEE quotient
    below the cap and 1.0 at or above it.
    """
    size = len(previous)
    if not vectorised:
        layer = [0.0] * size
        for b in range(rounds, size):
            top = 0.0
            for q in range(rounds - 1, b):
                top = max(top, min(1.0, (b - q) / (d + q)) * previous[q])
            layer[b] = top
        return layer
    previous = numpy.asarray(previous, dtype=numpy.float64)
    q = numpy.arange(size, dtype=numpy.float64)
    den = numpy.arange(d, d + size, dtype=numpy.float64)
    buffer = numpy.empty(size, dtype=numpy.float64)
    layer = numpy.zeros(size, dtype=numpy.float64)
    for b in range(rounds, size):
        row = buffer[:b]
        numpy.subtract(float(b), q[:b], out=row)
        numpy.minimum(row, den[:b], out=row)
        numpy.divide(row, den[:b], out=row)
        numpy.multiply(row, previous[:b], out=row)
        layer[b] = row.max()
    return [float(value) for value in layer]


def quadratic_layers(n, t, count, vectorised):
    """``full[0 … count]`` of the burn DP for ``(n, t)`` by the O(t²) fill."""
    d = n - 3 * t
    full = [[1.0] * (t + 1), [min(1.0, b / d) for b in range(t + 1)]]
    while len(full) <= count:
        full.append(quadratic_layer(full[-1], d, len(full), vectorised))
    return full


def layer_bits(layer):
    """The layer as little-endian IEEE doubles: equal bits, equal bytes."""
    return struct.pack(f"<{len(layer)}d", *(float(x) for x in layer))


def layer_digest(layer):
    return hashlib.sha256(layer_bits(layer)).hexdigest()[:16]


def require_bit_equal(actual, expected, what):
    """Fail unless two layers or factors agree bit for bit.

    An explicit ``pytest.fail``, so the check holds however the suite
    is run.
    """
    if isinstance(expected, float):
        actual, expected = [actual], [expected]
    if layer_bits(actual) != layer_bits(expected):
        first = next(
            i for i, (a, e) in enumerate(zip(actual, expected))
            if float(a).hex() != float(e).hex()
        )
        pytest.fail(
            f"{what}: cell {first} is {float(actual[first]).hex()}, "
            f"the quadratic fill gives {float(expected[first]).hex()}"
        )


class _PurePythonTable(_BurnFactorTable):
    """The table forced onto the dependency-free recursion."""

    NUMPY_THRESHOLD = math.inf


class _VectorisedTable(_BurnFactorTable):
    """The table forced onto the NumPy recursion, at every ``t``."""

    NUMPY_THRESHOLD = -1


needs_numpy = pytest.mark.skipif(numpy is None, reason="numpy is not installed")

#: Both arithmetic paths of the table; the NumPy one skips without NumPy.
TABLE_PATHS = [
    pytest.param(_PurePythonTable, id="python"),
    pytest.param(_VectorisedTable, id="numpy", marks=needs_numpy),
]

#: Per-layer digests (:func:`layer_digest`) of the quadratic fill and the
#: factors ``full[R][t]`` (``float.hex``) at the batch-scale sizes
#: (``t = (n − 1) // 3``) and S2's ``t = n // 4``, for every layer
#: ``1 … realaa_iterations(16, 1, n, t)`` — the Figure-3 PathsFinder
#: budget ``2·|V|``, the largest known range those runs use.  The
#: pure-Python quadratic fill is hours at these sizes, so the numpy-less
#: CI job checks the recursion against these pins;
#: ``test_pins_are_the_quadratic_fill`` re-derives them wherever NumPy is
#: installed.
PINS = {
    (entry["n"], entry["t"]): (entry["layers"], entry["factors"])
    for entry in json.loads(
        Path(__file__).with_name("burn_table_pins.json").read_text()
    )
}

PINNED_SIZES = [pytest.param(n, t, id=f"n{n}-t{t}") for n, t in PINS]


def table_layers(table, count):
    """``(layer r, factor r + 1)`` for ``r = 1 … count``, built by probing
    ``factor(r + 1)`` the way :func:`realaa_iterations` does: the probe
    reads the kept layer ``r`` through the O(t) top row, then the next
    probe builds that layer in full."""
    out = []
    for r in range(1, count + 1):
        factor = table.factor(r + 1)
        if table.rounds != r:
            pytest.fail(f"probing R = {r + 1} left layer {table.rounds} kept")
        out.append(([float(x) for x in table.layer], factor))
    return out


class TestBurnFactorTable:
    @pytest.mark.parametrize("table_cls", TABLE_PATHS)
    @given(st.data())
    def test_every_layer_matches_the_quadratic_fill(self, table_cls, data):
        """Every full layer and every ``factor(R)`` of the divide and
        conquer equals the O(t²) fill bit for bit."""
        # Without NumPy the oracle is the pure-Python O(t²) loop, so the
        # sizes stay small enough for it; the pins cover large t.
        n_max = 3_000 if numpy is not None else 600
        n = data.draw(st.integers(min_value=4, max_value=n_max), label="n")
        # Draw t down from the optimal-resilience t = (n − 1) // 3, where
        # d = n − 3t is smallest and the adversary's schedules run longest.
        slack = data.draw(st.integers(min_value=0, max_value=(n - 1) // 3 - 1))
        t = (n - 1) // 3 - slack
        count = data.draw(st.integers(min_value=1, max_value=25), label="layers")
        count = min(count, t - 1)
        expected = quadratic_layers(n, t, count + 1, vectorised=numpy is not None)
        table = table_cls(n, t)
        require_bit_equal(table.factor(1), expected[1][t], f"n={n} t={t} R=1")
        for r, (layer, factor) in enumerate(table_layers(table, count), start=1):
            require_bit_equal(layer, expected[r], f"n={n} t={t} layer {r}")
            require_bit_equal(factor, expected[r + 1][t], f"n={n} t={t} R={r + 1}")
        if table.factor(t + 1) != 0.0:
            pytest.fail("R > t must give factor 0")

    @needs_numpy
    def test_quadratic_fill_paths_agree(self):
        """The two arithmetic forms of the oracle itself are bit-equal."""
        sizes = [(n, t) for n in range(4, 64, 3) for t in range(1, (n - 1) // 3 + 1)]
        sizes += [(1_000, 333), (1_000, 250)]
        for n, t in sizes:
            count = min(t, 6 if n > 100 else 25)
            python = quadratic_layers(n, t, count, vectorised=False)
            vector = quadratic_layers(n, t, count, vectorised=True)
            for r in range(count + 1):
                require_bit_equal(vector[r], python[r], f"n={n} t={t} layer {r}")

    @pytest.mark.parametrize("table_cls", TABLE_PATHS)
    @pytest.mark.parametrize("n, t", PINNED_SIZES)
    def test_benchmark_sizes_match_the_pins(self, table_cls, n, t):
        layers, factors = PINS[n, t]
        if realaa_iterations(16, 1, n, t) != len(layers):
            pytest.fail(f"n={n} t={t}: the pins cover a different budget")
        table = table_cls(n, t)
        built = table_layers(table, len(layers))
        for r, (layer, _) in enumerate(built, start=1):
            if layer_digest(layer) != layers[r - 1]:
                pytest.fail(f"n={n} t={t}: layer {r} differs from the pin")
        probed = [table.factor(1)] + [factor for _, factor in built[:-1]]
        if [f.hex() for f in probed] != factors:
            pytest.fail(f"n={n} t={t}: factors {probed} differ from the pins")

    @needs_numpy
    @pytest.mark.parametrize("n, t", PINNED_SIZES)
    def test_pins_are_the_quadratic_fill(self, n, t):
        layers, factors = PINS[n, t]
        full = quadratic_layers(n, t, len(layers), vectorised=True)
        digests = [layer_digest(layer) for layer in full[1:]]
        tops = [layer[t].hex() for layer in full[1:]]
        if (digests, tops) != (layers, factors):
            pytest.fail(f"n={n} t={t}: pins should be {digests} / {tops}")

    def test_keeps_one_layer(self):
        """A new R reads only the layer below it; nothing older is kept."""
        table = _PurePythonTable(100, 33)
        table.factor(6)
        if table.rounds != 5 or len(table.layer) != 34:
            pytest.fail("the table should keep exactly layer 5")
        if sorted(table.tops) != [1, 2, 3, 4, 5, 6]:
            pytest.fail(f"tops {sorted(table.tops)} should cover R = 1 … 6")
