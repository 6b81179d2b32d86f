"""Tests for the synchronous network's execution semantics."""

import pytest

from repro.adversary import Adversary, NoAdversary, SilentAdversary
from repro.net import (
    ByzantineModelError,
    SynchronousNetwork,
    TraceLevel,
    TranscriptRecorder,
    broadcast,
    run_fault_free,
    run_protocol,
)
from repro.net.protocol import ProtocolParty


class EchoInputParty(ProtocolParty):
    """One round: broadcast own input; output the received sender→value map."""

    def __init__(self, pid, n, t, value):
        super().__init__(pid, n, t)
        self.value = value

    @property
    def duration(self):
        return 1

    def messages_for_round(self, round_index):
        return broadcast(self.value, self.n)

    def receive_round(self, round_index, inbox):
        self.output = dict(inbox)


class TestLockstep:
    def test_all_to_all_delivery(self):
        result = run_fault_free(3, lambda pid: EchoInputParty(pid, 3, 0, pid * 10))
        for pid in range(3):
            assert result.outputs[pid] == {0: 0, 1: 10, 2: 20}

    def test_rounds_executed(self):
        result = run_fault_free(3, lambda pid: EchoInputParty(pid, 3, 0, 1))
        assert result.trace.rounds_executed == 1

    def test_honest_message_accounting(self):
        result = run_fault_free(3, lambda pid: EchoInputParty(pid, 3, 0, 1))
        assert result.trace.honest_message_count == 9  # 3 senders × 3 recipients

    def test_party_keys_must_be_dense(self):
        with pytest.raises(ValueError):
            SynchronousNetwork({1: EchoInputParty(1, 2, 0, 0)}, t=0)

    def test_max_rounds_truncation(self):
        class TwoRound(EchoInputParty):
            @property
            def duration(self):
                return 2

        result = run_protocol(
            2, 0, lambda pid: TwoRound(pid, 2, 0, pid), max_rounds=1
        )
        assert result.trace.rounds_executed == 1


class ScriptedParty(ProtocolParty):
    """One round: send a scripted outbox; output the inbox it received."""

    def __init__(self, pid, n, t, outbox=None):
        super().__init__(pid, n, t)
        self.outbox = outbox if outbox is not None else {}

    @property
    def duration(self):
        return 1

    def messages_for_round(self, round_index):
        return self.outbox

    def receive_round(self, round_index, inbox):
        self.output = dict(inbox)


#: Every trace level and observer combination delivers through one path.
DELIVERY_CONFIGS = {
    "full": (TraceLevel.FULL, False),
    "aggregate": (TraceLevel.AGGREGATE, False),
    "full-observed": (TraceLevel.FULL, True),
    "aggregate-observed": (TraceLevel.AGGREGATE, True),
}


@pytest.fixture(params=sorted(DELIVERY_CONFIGS))
def deliver_run(request):
    """``run(n, t, outboxes, adversary=None)`` under one delivery config."""
    trace_level, observed = DELIVERY_CONFIGS[request.param]

    def run(n, t, outboxes, adversary=None):
        return run_protocol(
            n,
            t,
            lambda pid: ScriptedParty(pid, n, t, outboxes.get(pid)),
            adversary=adversary,
            observer=TranscriptRecorder() if observed else None,
            trace_level=trace_level,
        )

    return run


class TestDelivery:
    """How the network groups one round's traffic into inboxes."""

    def test_groups_by_recipient(self, deliver_run):
        result = deliver_run(3, 0, {0: {1: "a", 2: "c"}, 2: {1: "b"}})
        assert result.outputs[1] == {0: "a", 2: "b"}
        assert result.outputs[2] == {0: "c"}
        assert result.outputs[0] == {}

    def test_every_party_gets_an_inbox(self, deliver_run):
        result = deliver_run(4, 0, {})
        assert result.outputs == {pid: {} for pid in range(4)}

    def test_last_payload_wins_on_double_send(self, deliver_run):
        # An outbox given as pairs may name a recipient twice; the
        # network keeps the last payload.
        result = deliver_run(2, 0, {0: [(1, "first"), (1, "second")]})
        assert result.outputs[1] == {0: "second"}
        assert result.trace.honest_message_count == 1

    def test_out_of_range_recipient_dropped(self, deliver_run):
        result = deliver_run(2, 0, {0: {99: "lost", -1: "lost"}})
        assert all(not inbox for inbox in result.outputs.values())

    def test_sender_key_is_authenticated_identity(self, deliver_run):
        """The inbox is keyed by the sender the *network* stamped — the
        structural form of authenticated channels."""

        class ClaimsToBeOne(Adversary):
            def byzantine_messages(self, view):
                return {3: {0: {"claims_to_be": 1}}}

        result = deliver_run(4, 1, {}, adversary=ClaimsToBeOne(corrupt=[3]))
        assert result.outputs[0] == {3: {"claims_to_be": 1}}


class TestAuthenticatedChannels:
    def test_adversary_cannot_speak_for_honest(self):
        class Impersonator(Adversary):
            def byzantine_messages(self, view):
                # try to send as honest party 0
                return {0: {1: "forged"}}

        with pytest.raises(ByzantineModelError, match="honest"):
            run_protocol(
                3,
                1,
                lambda pid: EchoInputParty(pid, 3, 1, pid),
                adversary=Impersonator(corrupt=[2]),
            )

    def test_byzantine_sender_id_is_its_own(self):
        class Liar(Adversary):
            def byzantine_messages(self, view):
                return {2: {0: "lie", 1: "other lie"}}

        result = run_protocol(
            3, 1, lambda pid: EchoInputParty(pid, 3, 1, pid), adversary=Liar(corrupt=[2])
        )
        assert result.outputs[0][2] == "lie"
        assert result.outputs[1][2] == "other lie"


class TestCorruptionBudget:
    def test_budget_enforced_at_setup(self):
        with pytest.raises(ByzantineModelError, match="budget"):
            run_protocol(
                4,
                1,
                lambda pid: EchoInputParty(pid, 4, 1, pid),
                adversary=SilentAdversary(corrupt=[1, 2]),
            )

    def test_unknown_party_rejected(self):
        with pytest.raises(ByzantineModelError):
            run_protocol(
                3,
                1,
                lambda pid: EchoInputParty(pid, 3, 1, pid),
                adversary=SilentAdversary(corrupt=[17]),
            )

    def test_default_corruption_is_last_t_parties(self):
        result = run_protocol(
            5, 2, lambda pid: EchoInputParty(pid, 5, 2, pid), adversary=SilentAdversary()
        )
        assert result.corrupted == {3, 4}
        assert result.honest == {0, 1, 2}

    def test_no_adversary_object(self):
        result = run_protocol(
            3, 1, lambda pid: EchoInputParty(pid, 3, 1, pid), adversary=NoAdversary()
        )
        assert result.corrupted == set()

    def test_corruption_rounds_recorded(self):
        result = run_protocol(
            4,
            1,
            lambda pid: EchoInputParty(pid, 4, 1, pid),
            adversary=SilentAdversary(corrupt=[3]),
        )
        assert result.trace.corruption_rounds == {3: 0}


class TestRushing:
    def test_adversary_sees_honest_messages_first(self):
        observed = {}

        class Rusher(Adversary):
            def byzantine_messages(self, view):
                observed["honest"] = {
                    sender: outbox[0]
                    for sender, outbox in view.honest_messages.items()
                }
                # Echo party 0's value back at everyone, proving we saw it
                # before our own messages were committed.
                value = view.honest_messages[0][0]
                return {2: {pid: ("rushed", value) for pid in range(view.n)}}

        result = run_protocol(
            3,
            1,
            lambda pid: EchoInputParty(pid, 3, 1, pid * 7),
            adversary=Rusher(corrupt=[2]),
        )
        assert observed["honest"] == {0: 0, 1: 7}
        assert result.outputs[0][2] == ("rushed", 0)


class TestAdaptiveCorruption:
    def test_mid_protocol_corruption_silences_party(self):
        class ThreeRound(EchoInputParty):
            def __init__(self, pid, n, t, value):
                super().__init__(pid, n, t, value)
                self.inboxes = []

            @property
            def duration(self):
                return 3

            def receive_round(self, round_index, inbox):
                self.inboxes.append(dict(inbox))
                self.output = self.inboxes

        class SeizeAtRound1(Adversary):
            def initial_corruptions(self, view):
                return set()

            def adapt_corruptions(self, view):
                return {2} if view.round_index == 1 else set()

            def byzantine_messages(self, view):
                return {pid: {} for pid in view.corrupted}

        result = run_protocol(
            3,
            1,
            lambda pid: ThreeRound(pid, 3, 1, pid),
            adversary=SeizeAtRound1(),
        )
        inboxes = result.outputs[0]
        assert 2 in inboxes[0]  # round 0: party 2 was honest and spoke
        assert 2 not in inboxes[1]  # corrupted at round 1: silenced that round
        assert 2 not in inboxes[2]
        assert result.trace.corruption_rounds == {2: 1}

    def test_adaptive_budget_enforced(self):
        class GreedySeizer(Adversary):
            def initial_corruptions(self, view):
                return {2}

            def adapt_corruptions(self, view):
                return {0, 1}

            def byzantine_messages(self, view):
                return {}

        with pytest.raises(ByzantineModelError, match="budget"):
            run_protocol(
                3,
                1,
                lambda pid: EchoInputParty(pid, 3, 1, pid),
                adversary=GreedySeizer(),
            )
