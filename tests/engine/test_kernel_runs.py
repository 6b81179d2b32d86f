"""The class kernel's trim over value runs, against the reference party.

The kernel trims the accepted multiset as ``(value, count)`` runs
(:func:`repro.protocols.realaa.trimmed_update_runs`); the reference
party sorts the accepted values themselves.  Equality is bit for bit:
the conformance suite compares with ``==``, under which ``-0.0`` and
``0.0`` are one value, so the signed-zero cases are pinned here by
their bits, together with the accepted ``origin → value`` dicts the
kernel's records rebuild.
"""

from __future__ import annotations

import random
import struct
from itertools import groupby

import pytest

from repro.adversary.strategies import SilentAdversary
from repro.core.api import run_real_aa

np = pytest.importorskip("numpy")

from repro.engine.kernel import _value_runs  # noqa: E402


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def history_bits(party):
    """A party's RealAA history with every float as its bits."""
    return [
        (
            record.iteration,
            [(type(o), o, type(v), bits(v)) for o, v in record.accepted.items()],
            record.newly_detected,
            bits(record.trimmed_range),
            bits(record.new_value),
        )
        for record in party.history
    ]


ZERO_INPUTS = [
    [0.0, -0.0],
    [-0.0, 0.0],
    [0.0, 0.0, -0.0, -0.0],
    [0.0, -0.0, -0.0, 0.0],
    [-0.0, -0.0, -0.0, -0.0],
    [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
    [-0.0, 1.0, 0.0, -1.0, -0.0, 0.0, 5e-324],
]


@pytest.mark.parametrize("inputs", ZERO_INPUTS)
@pytest.mark.parametrize("silent", [False, True])
def test_records_match_the_reference_bit_for_bit(inputs, silent):
    n = len(inputs)
    t = (n - 1) // 3
    corrupt = set(range(n - t, n)) if silent and t else set()

    def run(backend):
        return run_real_aa(
            inputs,
            t,
            epsilon=0.5,
            iterations=3,
            adversary=SilentAdversary(corrupt) if corrupt else None,
            backend=backend,
        )

    reference, batch = run("reference"), run("batch")
    for pid in sorted(reference.execution.honest):
        expected = reference.execution.parties[pid]
        got = batch.execution.parties[pid]
        assert history_bits(got) == history_bits(expected)
        assert bits(got.output) == bits(expected.output)
    assert reference.measured_rounds == batch.measured_rounds


@pytest.mark.parametrize("size", [1, 2, 17, 300, 2000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_runs_are_the_stable_sorts(size, seed):
    # Sizes large enough that NumPy's default sort reorders equal floats.
    rng = random.Random(seed)
    picked = [rng.choice([-0.0, 0.0, 1.5, -2.0, 5e-324]) for _ in range(size)]
    runs = [list(run) for _, run in groupby(sorted(picked), key=bits)]
    values, counts = _value_runs(np.array(picked))
    assert [bits(v) for v in values] == [bits(run[0]) for run in runs]
    assert counts == [len(run) for run in runs]


def test_accepted_is_the_reference_dict():
    inputs = [float(pid % 7) * 0.5 for pid in range(40)]
    corrupt = {3, 11, 12}

    def run(backend):
        return run_real_aa(
            inputs,
            13,
            epsilon=0.25,
            known_range=3.0,
            adversary=SilentAdversary(corrupt),
            backend=backend,
        )

    reference, batch = run("reference"), run("batch")
    for pid in (0, 1, 39):
        expected = reference.execution.parties[pid].history
        got = batch.execution.parties[pid].history
        assert [r.accepted for r in got] == [r.accepted for r in expected]
        assert all(not set(r.accepted) & corrupt for r in got)
        assert history_bits(batch.execution.parties[pid]) == history_bits(
            reference.execution.parties[pid]
        )
