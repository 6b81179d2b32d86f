"""TraceLevel: AGGREGATE must agree with FULL accounting on everything
except payload units (which it deliberately skips), and an attached
observer must not change what either level computes."""

import pytest

from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.core import run_real_aa, run_tree_aa
from repro.net import SilentParty, TraceLevel, TranscriptRecorder, run_protocol
from repro.trees import path_tree


def _realaa(trace_level, observer=None):
    return run_real_aa(
        [0.0, 8.0, 0.0, 8.0, 0.0, 8.0, 0.0],
        t=2,
        epsilon=1.0,
        known_range=8.0,
        adversary=BurnScheduleAdversary([1, 1]),
        trace_level=trace_level,
        observer=observer,
    )


class TestAggregateEquivalence:
    def test_counts_and_outputs_match_full(self):
        full = _realaa(TraceLevel.FULL)
        fast = _realaa(TraceLevel.AGGREGATE)
        assert fast.honest_outputs == full.honest_outputs
        assert fast.rounds == full.rounds
        ft, at = full.execution.trace, fast.execution.trace
        assert at.honest_message_count == ft.honest_message_count
        assert at.byzantine_message_count == ft.byzantine_message_count
        assert at.per_round_messages == ft.per_round_messages
        assert at.rounds_executed == ft.rounds_executed
        assert at.corruption_rounds == ft.corruption_rounds

    def test_payload_units_only_at_full(self):
        full = _realaa(TraceLevel.FULL)
        fast = _realaa(TraceLevel.AGGREGATE)
        assert full.execution.trace.payload_unit_count > 0
        assert fast.execution.trace.payload_unit_count == 0
        assert full.execution.trace.level is TraceLevel.FULL
        assert fast.execution.trace.level is TraceLevel.AGGREGATE

    def test_tree_aa_rows_identical(self):
        tree = path_tree(15)
        inputs = [tree.vertices[0], tree.vertices[-1]] + [tree.vertices[7]] * 5
        full = run_tree_aa(
            tree,
            inputs,
            2,
            adversary=BurnScheduleAdversary([1, 1]),
            trace_level=TraceLevel.FULL,
        )
        fast = run_tree_aa(
            tree,
            inputs,
            2,
            adversary=BurnScheduleAdversary([1, 1]),
            trace_level=TraceLevel.AGGREGATE,
        )
        assert fast.honest_outputs == full.honest_outputs
        assert fast.rounds == full.rounds
        assert fast.achieved_aa == full.achieved_aa

    def test_observer_still_sees_messages_at_aggregate(self):
        from repro.net.protocol import ProtocolParty
        from repro.net import broadcast

        class Chatter(ProtocolParty):
            @property
            def duration(self):
                return 2

            def messages_for_round(self, round_index):
                return broadcast(("msg", round_index), self.n)

            def receive_round(self, round_index, inbox):
                self.output = round_index

        recorder = TranscriptRecorder()
        run_protocol(
            3,
            0,
            lambda pid: Chatter(pid, 3, 0),
            observer=recorder,
            trace_level=TraceLevel.AGGREGATE,
        )
        assert len(recorder.rounds) == 2
        assert all(record.honest_messages for record in recorder.rounds)

    def test_default_level_is_full(self):
        result = run_protocol(2, 0, lambda pid: SilentParty(pid, 2, 0))
        assert result.trace.level is TraceLevel.FULL


class TestObserverTransparency:
    def test_full_with_and_without_observer_identical(self):
        plain = _realaa(TraceLevel.FULL)
        observed = _realaa(TraceLevel.FULL, observer=TranscriptRecorder())
        assert observed.honest_outputs == plain.honest_outputs
        assert observed.rounds == plain.rounds
        pt, ot = plain.execution.trace, observed.execution.trace
        assert ot.honest_message_count == pt.honest_message_count
        assert ot.byzantine_message_count == pt.byzantine_message_count
        assert ot.per_round_messages == pt.per_round_messages
        assert ot.honest_payload_units == pt.honest_payload_units
        assert ot.byzantine_payload_units == pt.byzantine_payload_units
        assert ot.payload_unit_count > 0

    def test_observer_gets_the_same_byzantine_messages_at_every_level(self):
        full, fast = TranscriptRecorder(), TranscriptRecorder()
        result = _realaa(TraceLevel.FULL, observer=full)
        _realaa(TraceLevel.AGGREGATE, observer=fast)
        full_messages = [record.byzantine_messages for record in full.rounds]
        assert full_messages == [record.byzantine_messages for record in fast.rounds]
        trace = result.execution.trace
        assert sum(map(len, full_messages)) == trace.byzantine_message_count > 0
        for record in full.rounds:
            for message in record.byzantine_messages:
                assert message.round == record.round_index
                assert message.sender in record.corrupted
