"""Tests for message envelopes and broadcast outboxes.

Inbox grouping is a property of the network; see ``TestDelivery`` in
``test_network.py``.
"""

from repro.net import Message, broadcast


class TestMessage:
    def test_fields(self):
        m = Message(sender=1, recipient=2, round=0, payload="x")
        assert (m.sender, m.recipient, m.round, m.payload) == (1, 2, 0, "x")

    def test_repr_is_compact(self):
        m = Message(1, 2, 3, "hello")
        assert "1->2" in repr(m)
        assert "r3" in repr(m)

    def test_frozen(self):
        import pytest

        m = Message(1, 2, 0, None)
        with pytest.raises(Exception):
            m.sender = 9  # type: ignore[misc]


class TestBroadcast:
    def test_reaches_everyone_including_self(self):
        outbox = broadcast("p", n=3)
        assert outbox == {0: "p", 1: "p", 2: "p"}

    def test_empty_network(self):
        assert broadcast("p", n=0) == {}
