"""RealAA's trim over ``(value, count)`` runs against its list form.

:func:`~repro.protocols.realaa.trimmed_update_runs` must return exactly
what :func:`~repro.protocols.realaa.trimmed_update` returns on the
expanded list: the same bits (``-0.0`` is not ``0.0`` here), or the same
``OverflowError``.  The multisets mix duplicates, both zeros,
subnormals, magnitudes near the top of the float range, and trims from
none at all to more than half the values.  Pure Python: this file runs
without NumPy.
"""

from __future__ import annotations

import struct
import sys
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.realaa import trimmed_update, trimmed_update_runs

MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min
SUBNORMAL = 5e-324


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def runs_of(values):
    """*values* as the runs of their stable sort, split where the bits
    change (so ``-0.0`` and ``0.0`` stay apart, in their order)."""
    runs = [list(run) for _, run in groupby(sorted(values), key=bits)]
    return [run[0] for run in runs], [len(run) for run in runs]


def outcome(update, *args):
    """The update's result as bits, or the overflow it raised."""
    try:
        return tuple(map(bits, update(*args)))
    except OverflowError as exc:
        return ("OverflowError", str(exc))


def assert_same(values, t):
    expected = outcome(trimmed_update, list(values), t)
    assert outcome(trimmed_update_runs, *runs_of(values), t) == expected


special = st.sampled_from(
    [0.0, -0.0, SUBNORMAL, -SUBNORMAL, MIN_NORMAL, -MIN_NORMAL, 1.0, -1.0,
     0.1, 1e308, -1e308, MAX, -MAX]
)
huge = st.floats(min_value=1e307, max_value=MAX)
tiny = st.floats(min_value=-1e-300, max_value=1e-300)
reals = st.one_of(
    special,
    st.floats(allow_nan=False, allow_infinity=False),
    huge,
    huge.map(lambda x: -x),
    tiny,
)


@st.composite
def multisets(draw, max_count=4):
    """A shuffled multiset with repeated values, and a trim ``t`` from 0
    to beyond half its size."""
    pairs = draw(
        st.lists(st.tuples(reals, st.integers(1, max_count)), min_size=1, max_size=8)
    )
    values = [value for value, count in pairs for _ in range(count)]
    draw(st.randoms(use_true_random=False)).shuffle(values)
    t = draw(st.integers(0, len(values) // 2 + 2))
    return values, t


class TestRunFormEqualsListForm:
    @settings(max_examples=400)
    @given(multisets())
    def test_bit_for_bit(self, case):
        values, t = case
        assert_same(values, t)

    @settings(max_examples=30)
    @given(multisets(max_count=1000))
    def test_long_runs(self, case):
        values, t = case
        assert_same(values, t)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0, -0.0, 0.0],
            [0.0, -0.0, 0.0, -0.0, 0.0],
            [-1.0, 0.0, -0.0, 1.0],
        ],
    )
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_signed_zeros(self, values, t):
        assert_same(values, t)

    @pytest.mark.parametrize(
        "values",
        [
            [MAX, MAX],
            [-MAX, -MAX, MAX, MAX],
            [-MAX, MAX, MAX],
            [MAX / 2] * 3,
            [1e308] * 1000 + [-1e308] * 999,
        ],
    )
    @pytest.mark.parametrize("t", [0, 1])
    def test_near_overflow(self, values, t):
        assert_same(values, t)

    def test_the_mean_is_clamped_into_the_core(self):
        # The float mean lands outside [lo, hi] at large magnitudes.
        values = [MAX / 3] * 2 + [MAX / 3 * 1.0000000000000002]
        assert_same(values, 0)

    def test_no_trim_beyond_half(self):
        assert trimmed_update_runs([1.0, 5.0], [1, 1], 1) == (3.0, 4.0)

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError):
            trimmed_update_runs([], [], 0)
