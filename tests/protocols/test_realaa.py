"""Tests for RealAA: Theorem 3, Lemma 5, Lemma 6, and the BAD mechanism."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary import (
    Adversary,
    ChaosAdversary,
    CrashAdversary,
    PassiveAdversary,
    RandomNoiseAdversary,
    SilentAdversary,
)
from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.analysis import convergence_factors, honest_value_ranges
from repro.core import run_real_aa
from repro.net import run_protocol
from repro.protocols import RealAAParty, is_real, lemma5_factor, trimmed_mean


class TestHelpers:
    def test_is_real(self):
        assert is_real(1) and is_real(-3.5) and is_real(0)
        assert not is_real(True)
        assert not is_real(float("nan"))
        assert not is_real(float("inf"))
        assert not is_real("1.0")
        assert not is_real(None)

    def test_is_real_rejects_ints_beyond_float_range(self):
        assert is_real(2**1023)
        assert not is_real(10**400)
        assert not is_real(-(10**400))

    def test_trimmed_mean_basic(self):
        assert trimmed_mean([0, 0, 5, 10, 10], 2) == 5
        assert trimmed_mean([1, 2, 3], 0) == 2

    def test_trimmed_mean_small_input_untouched(self):
        assert trimmed_mean([1, 9], 1) == 5  # len ≤ 2t: no trim

    def test_trimmed_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean([], 1)


class TestConstruction:
    def test_requires_exactly_one_budget_spec(self):
        with pytest.raises(ValueError):
            RealAAParty(0, 4, 1, 0.0, known_range=1.0, iterations=2)
        with pytest.raises(ValueError):
            RealAAParty(0, 4, 1, 0.0)

    def test_rejects_non_real_input(self):
        with pytest.raises(ValueError):
            RealAAParty(0, 4, 1, float("nan"), known_range=1.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            RealAAParty(0, 4, 1, 0.0, epsilon=0.0, known_range=1.0)

    def test_rejects_low_resilience(self):
        with pytest.raises(ValueError):
            RealAAParty(0, 6, 2, 0.0, known_range=1.0)

    def test_duration(self):
        party = RealAAParty(0, 7, 2, 0.0, iterations=4)
        assert party.duration == 12


class TestFaultFreeAndBenign:
    def test_exact_agreement_without_faults(self):
        outcome = run_real_aa([1.0, 2.0, 3.0, 4.0], t=0, epsilon=0.5)
        outs = set(outcome.honest_outputs.values())
        assert len(outs) == 1
        assert outcome.achieved_aa

    def test_identical_inputs_fixed_point(self):
        outcome = run_real_aa([5.0] * 7, t=2, epsilon=0.1, adversary=SilentAdversary())
        assert all(v == 5.0 for v in outcome.honest_outputs.values())

    def test_silent_adversary_converges_in_one_iteration(self):
        outcome = run_real_aa(
            [0.0, 10.0, 5.0, 1.0, 9.0, 0.0, 0.0],
            t=2,
            epsilon=0.5,
            adversary=SilentAdversary(),
        )
        assert outcome.achieved_aa
        assert len(set(outcome.honest_outputs.values())) == 1

    def test_passive_adversary_converges(self):
        outcome = run_real_aa(
            [0.0, 10.0, 5.0, 1.0, 9.0, 2.0, 8.0],
            t=2,
            epsilon=0.5,
            adversary=PassiveAdversary(),
        )
        assert outcome.achieved_aa


class TestAAPropertiesUnderAdversaries:
    INPUTS = [0.0, 10.0, 2.0, 8.0, 5.0, 0.0, 10.0]

    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: None,
            lambda: SilentAdversary(),
            lambda: PassiveAdversary(),
            lambda: RandomNoiseAdversary(seed=11),
            lambda: CrashAdversary(crash_round=4, partial_to=3),
            lambda: BurnScheduleAdversary(schedule=[1, 1]),
            lambda: BurnScheduleAdversary(schedule=[2], direction="down"),
            lambda: BurnScheduleAdversary(schedule=[1, 0, 1], direction="alternate"),
        ],
    )
    def test_validity_and_agreement(self, adversary_factory):
        outcome = run_real_aa(
            self.INPUTS,
            t=2,
            epsilon=0.25,
            known_range=10.0,
            adversary=adversary_factory(),
        )
        assert outcome.terminated
        assert outcome.valid, outcome.honest_outputs
        assert outcome.agreement, outcome.output_spread

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50),
            min_size=7,
            max_size=7,
        ),
        st.sampled_from(["silent", "noise", "burn"]),
    )
    def test_property_random_inputs(self, inputs, adversary_kind):
        adversary = {
            "silent": lambda: SilentAdversary(),
            "noise": lambda: RandomNoiseAdversary(seed=0),
            "burn": lambda: BurnScheduleAdversary(schedule=[1, 1]),
        }[adversary_kind]()
        outcome = run_real_aa(
            inputs, t=2, epsilon=0.5, known_range=100.0, adversary=adversary
        )
        assert outcome.achieved_aa


class TestBadSetMechanism:
    def test_honest_parties_never_blacklisted(self):
        n, t = 7, 2
        inputs = [0.0, 10.0, 2.0, 8.0, 5.0, 0.0, 10.0]
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=3),
            adversary=BurnScheduleAdversary(schedule=[1, 1]),
        )
        for pid in result.honest:
            assert result.parties[pid].bad <= result.corrupted

    def test_silent_parties_detected_immediately(self):
        n, t = 7, 2
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, float(pid), iterations=2),
            adversary=SilentAdversary(),
        )
        for pid in result.honest:
            record = result.parties[pid].history[0]
            assert set(record.newly_detected) == result.corrupted

    def test_burners_detected_in_their_burn_iteration(self):
        n, t = 7, 2
        inputs = [0.0, 10.0, 2.0, 8.0, 5.0, 0.0, 10.0]
        adversary = BurnScheduleAdversary(schedule=[1, 1], corrupt=[5, 6])
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=3),
            adversary=adversary,
        )
        assert len(adversary.burn_log) == 2
        for pid in result.honest:
            history = result.parties[pid].history
            assert adversary.burn_log[0][1][0] in history[0].newly_detected
            assert adversary.burn_log[1][1][0] in history[1].newly_detected


class TestLemma5AndLemma6:
    def test_lemma6_values_stay_in_input_range(self):
        """Claim 8 of [7]: V_R ⊆ [min V_0, max V_0] at every iteration."""
        n, t = 7, 2
        inputs = [0.0, 10.0, 2.0, 8.0, 5.0, 0.0, 10.0]
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=4),
            adversary=BurnScheduleAdversary(schedule=[1, 1]),
        )
        honest_inputs = [inputs[p] for p in sorted(result.honest)]
        lo, hi = min(honest_inputs), max(honest_inputs)
        for pid in result.honest:
            for record in result.parties[pid].history:
                assert lo <= record.new_value <= hi

    def test_lemma5_range_bound_respected(self):
        """After R iterations the honest range is within the Lemma-5 bound
        under the burn-schedule adversary."""
        n, t = 7, 2
        inputs = [0.0, 0.0, 0.0, 10.0, 10.0, 0.0, 0.0]
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=4),
            adversary=BurnScheduleAdversary(schedule=[1, 1]),
        )
        ranges = honest_value_ranges(result)
        initial = ranges[0]
        for R in range(1, len(ranges)):
            assert ranges[R] <= initial * lemma5_factor(n, t, R) + 1e-9 or (
                # the adversary may of course do worse than its worst case
                ranges[R] <= ranges[R - 1] + 1e-9
            )

    def test_burn_attack_slows_convergence(self):
        """Without burns the range collapses in one iteration; with a burn it
        provably cannot (the attacked iteration retains a constant fraction)."""
        n, t = 7, 2
        inputs = [0.0, 0.0, 0.0, 10.0, 10.0, 0.0, 0.0]

        silent = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=2),
            adversary=SilentAdversary(),
        )
        assert honest_value_ranges(silent)[1] == 0.0

        burned = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=2),
            adversary=BurnScheduleAdversary(schedule=[2]),
        )
        assert honest_value_ranges(burned)[1] > 0.0

    def test_ranges_never_increase(self):
        n, t = 7, 2
        inputs = [0.0, 10.0, 3.0, 6.0, 5.0, 1.0, 9.0]
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=4),
            adversary=BurnScheduleAdversary(schedule=[1, 1], direction="alternate"),
        )
        ranges = honest_value_ranges(result)
        for before, after in zip(ranges, ranges[1:]):
            assert after <= before + 1e-12


class TestTermination:
    def test_local_termination_recorded(self):
        n, t = 7, 2
        outcome = run_real_aa(
            [0.0, 10.0, 0.0, 10.0, 5.0, 0.0, 0.0],
            t=t,
            epsilon=0.5,
            known_range=10.0,
            adversary=SilentAdversary(),
        )
        assert outcome.measured_rounds is not None
        assert outcome.measured_rounds <= outcome.rounds

    def test_budgeted_rounds_match_duration(self):
        n, t = 7, 2
        party = RealAAParty(0, n, t, 0.0, epsilon=0.5, known_range=10.0)
        outcome = run_real_aa(
            [0.0] * n, t=t, epsilon=0.5, known_range=10.0, adversary=SilentAdversary()
        )
        assert outcome.rounds == party.duration


#: A Byzantine int too large for a float, in each gradecast round.
HUGE = 10**400
HOSTILE_PAYLOADS = {
    "value": lambda it: ("val", it, HUGE, ()),
    "echo": lambda it: ("echo", it, {1: HUGE}),
    "support": lambda it: ("sup", it, {1: HUGE}),
}


ONLY_JUNK = {name: float(name == "junk") for name in ChaosAdversary.BEHAVIOURS}


class HugeIntAdversary(Adversary):
    """Party 3 sends *HUGE* in every round of one gradecast phase."""

    def __init__(self, phase):
        super().__init__(corrupt=[3])
        self.phase = phase

    def byzantine_messages(self, view):
        iteration, phase = divmod(view.round_index, 3)
        if phase != list(HOSTILE_PAYLOADS).index(self.phase):
            return {3: {}}
        payload = HOSTILE_PAYLOADS[self.phase](iteration)
        return {3: {r: payload for r in range(view.n)}}


class TestHostileHugeInts:
    """An int beyond float range is junk, not a crash (reference + batch)."""

    @pytest.mark.parametrize("phase", sorted(HOSTILE_PAYLOADS))
    def test_reference_survives(self, phase):
        outcome = run_real_aa(
            [0.0, 8.0, 0.0, 8.0],
            t=1,
            epsilon=1.0,
            known_range=8.0,
            adversary=HugeIntAdversary(phase),
        )
        assert outcome.achieved_aa

    @pytest.mark.parametrize("phase", sorted(HOSTILE_PAYLOADS))
    def test_backends_agree_on_replayed_junk(self, phase, monkeypatch):
        # The chaos adversary's junk is the one Byzantine payload stream
        # the batch backend replays; make iteration-0 junk a huge int.
        monkeypatch.setattr(ChaosAdversary, "_JUNK", (HOSTILE_PAYLOADS[phase](0),))
        outcomes = {
            backend: run_real_aa(
                [0.0, 8.0, 0.0, 8.0],
                t=1,
                epsilon=1.0,
                known_range=8.0,
                adversary=ChaosAdversary(seed=3, weights=ONLY_JUNK, corrupt=[3]),
                backend=backend,
            )
            for backend in ("reference", "batch")
        }
        reference, batch = outcomes["reference"], outcomes["batch"]
        assert reference.achieved_aa
        assert batch.honest_outputs == reference.honest_outputs
        assert batch.rounds == reference.rounds
