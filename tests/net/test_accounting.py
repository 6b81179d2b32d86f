"""Tests for message and payload-unit accounting (experiment T8's basis)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary import Adversary, RandomNoiseAdversary, SilentAdversary
from repro.net import FaultPlan, MultiObserver, Observer, ProtocolParty, run_protocol
from repro.net.network import payload_unit_sum, payload_units
from repro.observability import MetricsCollector
from repro.protocols import RealAAParty


class TestPayloadUnits:
    def test_atoms(self):
        assert payload_units(1) == 1
        assert payload_units("s") == 1
        assert payload_units(None) == 1
        assert payload_units(3.5) == 1

    def test_containers(self):
        assert payload_units((1, 2, 3)) == 3
        assert payload_units([1, [2, 3]]) == 3
        assert payload_units({1: 2, 3: 4}) == 4  # keys count too
        assert payload_units(("val", 0, {1: 2.0})) == 4

    def test_empty_containers(self):
        assert payload_units(()) == 0
        assert payload_units({}) == 0

    def test_nested_protocol_payload(self):
        echo = ("echo", 0, {0: 1.0, 1: 2.0, 2: 3.0})
        assert payload_units(echo) == 2 + 6


class TestTraceAccounting:
    def _run(self, adversary):
        n, t = 4, 1
        inputs = [0.0, 3.0, 1.0, 2.0]
        return run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=2),
            adversary=adversary,
        )

    def test_per_round_messages_length(self):
        result = self._run(SilentAdversary())
        assert len(result.trace.per_round_messages) == result.trace.rounds_executed

    def test_honest_messages_per_round_constant(self):
        result = self._run(SilentAdversary())
        # 3 honest senders × 4 recipients, every round
        assert set(result.trace.per_round_messages) == {12}

    def test_byzantine_units_counted_separately(self):
        silent = self._run(SilentAdversary())
        noisy = self._run(RandomNoiseAdversary(seed=4))
        assert silent.trace.byzantine_payload_units == 0
        assert noisy.trace.byzantine_payload_units > 0
        assert (
            silent.trace.honest_payload_units > 0
        )  # honest traffic always counted

    def test_totals_are_sums(self):
        result = self._run(RandomNoiseAdversary(seed=4))
        trace = result.trace
        assert trace.message_count == (
            trace.honest_message_count + trace.byzantine_message_count
        )
        assert trace.payload_unit_count == (
            trace.honest_payload_units + trace.byzantine_payload_units
        )

    def test_message_count_matches_per_round_sum(self):
        result = self._run(RandomNoiseAdversary(seed=4))
        assert sum(result.trace.per_round_messages) == result.trace.message_count


#: Payloads as protocols and adversaries build them: atoms, and tuples,
#: lists, dicts and frozensets nested a few levels deep.
_ATOMS = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(max_size=3), st.none()
)
PAYLOADS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(st.just("echo"), st.integers(0, 3), inner),
        st.dictionaries(st.integers(0, 6), inner, max_size=4),
        st.frozensets(st.integers(), max_size=3),
    ),
    max_leaves=24,
)


def _nested(depth):
    payload = ("leaf",)
    for level in range(depth):
        payload = (level, [payload], {level: None})
    return payload


class TestPayloadUnitSum:
    """One walk per distinct object must give the naive per-message sum."""

    @given(
        pool=st.lists(PAYLOADS, min_size=1, max_size=5),
        picks=st.lists(st.integers(0, 4), max_size=40),
    )
    def test_matches_naive_sum_over_shared_objects(self, pool, picks):
        payloads = [pool[i % len(pool)] for i in picks]
        naive = sum(payload_units(p) for p in payloads)
        assert payload_unit_sum(payloads) == naive
        assert payload_unit_sum(iter(payloads)) == naive

    def test_deeply_nested_payload_shared_by_many(self):
        deep = _nested(3000)
        assert payload_unit_sum([deep] * 50) == 50 * payload_units(deep)

    def test_fresh_objects_from_a_generator_are_not_confused(self):
        # Each tuple is created and dropped by the generator; the sum must
        # not mistake a recycled id for an object it has already counted.
        fresh = (tuple(range(i % 7)) for i in range(500))
        assert payload_unit_sum(fresh) == sum(i % 7 for i in range(500))

    def test_empty(self):
        assert payload_unit_sum([]) == 0


class _ScriptedRounds(ProtocolParty):
    """Sends ``script[round][recipient]`` (a pool index) for a few rounds."""

    def __init__(self, pid, n, t, pool, script):
        super().__init__(pid, n, t)
        self.pool = pool
        self.script = script

    @property
    def duration(self):
        return len(self.script)

    def messages_for_round(self, round_index):
        picks = self.script[round_index]
        return {r: self.pool[i] for r, i in picks.items()}

    def receive_round(self, round_index, inbox):
        self.output = round_index


class _ReusingAdversary(Adversary):
    """Byzantine outboxes that reuse the honest parties' payload objects."""

    def __init__(self, corrupt, pool, script):
        super().__init__(corrupt=corrupt)
        self.pool = pool
        self.script = script

    def byzantine_messages(self, view):
        picks = self.script[view.round_index % len(self.script)]
        return {
            c: {r: self.pool[i] for r, i in picks.items()}
            for c in sorted(view.corrupted)
        }


class _NaiveUnits(Observer):
    """Counts payload units the slow way: one walk per message."""

    def __init__(self):
        self.honest = []
        self.byzantine = []

    def on_round(self, round_index, honest_messages, byzantine_messages, parties, corrupted):
        self.honest.append(
            sum(
                payload_units(payload)
                for outbox in honest_messages.values()
                for payload in outbox.values()
            )
        )
        self.byzantine.append(sum(payload_units(m.payload) for m in byzantine_messages))


class TestRoundAccountingIsExact:
    """The network and the collector agree with a per-message recount."""

    @given(data=st.data())
    def test_trace_and_collector_match_naive_recount(self, data):
        n = data.draw(st.integers(4, 6), label="n")
        t = 1
        pool = data.draw(st.lists(PAYLOADS, min_size=1, max_size=4), label="pool")
        rounds = data.draw(st.integers(1, 3), label="rounds")
        # One recipient map per (sender, round): several senders and
        # recipients pick the same pool object.
        picks = st.dictionaries(
            st.integers(0, n - 1), st.integers(0, len(pool) - 1), max_size=n
        )
        scripts = data.draw(
            st.lists(
                st.lists(picks, min_size=rounds, max_size=rounds),
                min_size=n,
                max_size=n,
            ),
            label="scripts",
        )
        byz_script = data.draw(st.lists(picks, min_size=1, max_size=2), label="byz")
        faulty = data.draw(st.booleans(), label="faulty")
        plan = (
            FaultPlan(
                duplicate=0.5,
                corrupt=0.5,
                seed=data.draw(st.integers(0, 99), label="seed"),
                allow_model_violations=True,
            )
            if faulty
            else None
        )
        naive = _NaiveUnits()
        collector = MetricsCollector()
        result = run_protocol(
            n,
            t,
            lambda pid: _ScriptedRounds(pid, n, t, pool, scripts[pid]),
            adversary=_ReusingAdversary([n - 1], pool, byz_script),
            observer=MultiObserver(naive, collector),
            fault_plan=plan,
        )
        trace = result.trace
        assert trace.honest_payload_units == sum(naive.honest)
        assert trace.byzantine_payload_units == sum(naive.byzantine)
        assert [r.honest_payload_units for r in collector.rounds] == naive.honest
        assert [r.byzantine_payload_units for r in collector.rounds] == naive.byzantine

    def test_realaa_broadcasts_count_once_per_object(self, monkeypatch):
        """A RealAA round walks each broadcast payload once, not n times."""
        from repro.net import network

        calls = []
        original = network.payload_units

        def counting(payload):
            calls.append(payload)
            return original(payload)

        monkeypatch.setattr(network, "payload_units", counting)
        n, t = 7, 2
        inputs = [float(pid) for pid in range(n)]
        result = run_protocol(
            n,
            t,
            lambda pid: RealAAParty(pid, n, t, inputs[pid], iterations=2),
            adversary=SilentAdversary(),
        )
        honest_senders = n - t
        assert len(calls) == result.trace.rounds_executed * honest_senders
        assert result.trace.honest_message_count == len(calls) * n
