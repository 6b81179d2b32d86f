"""The campaign ledger: append-only, stream-pinned.

Its crash contract (torn tail, mid-file garbage, repair on open) is the
shared one of ``repro.jsonlog``, checked in ``tests/test_jsonlog.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.flywheel.ledger import (
    LedgerError,
    LedgerWriter,
    check_compatible,
    load_state,
    read_ledger,
)


def write_campaign(path, *, count=4, executed=(0, 1), done=False):
    with LedgerWriter(str(path)) as ledger:
        ledger.header(
            seed=7, count=count, shard_size=2, digest="d" * 64, version="x"
        )
        for index in executed:
            ledger.point(index, {"ok": True, "oracles": {}})
        if done:
            ledger.done(executed=len(executed), divergences=0)


class TestReader:
    def test_missing_file_is_an_empty_ledger(self, tmp_path):
        assert read_ledger(str(tmp_path / "nope.jsonl")) == []
        state = load_state(str(tmp_path / "nope.jsonl"))
        assert state.header is None and not state.executed

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_campaign(path, executed=(0, 2), done=False)
        state = load_state(str(path))
        assert state.count == 4
        assert state.executed == {0, 2}
        assert state.remaining() == [1, 3]
        assert not state.done

    def test_done_record_completes_the_campaign(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_campaign(path, executed=(0, 1, 2, 3), done=True)
        state = load_state(str(path))
        assert state.done and state.remaining() == []

    def test_divergences_are_collected_in_order(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with LedgerWriter(str(path)) as ledger:
            ledger.header(
                seed=7, count=2, shard_size=2, digest="d", version="x"
            )
            ledger.point(0, {"ok": False})
            ledger.divergence(0, {"oracles": ["backend-parity"]})
        state = load_state(str(path))
        assert [d["index"] for d in state.divergences] == [0]
        assert state.divergences[0]["oracles"] == ["backend-parity"]


class TestCompatibility:
    def test_matching_header_is_accepted(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_campaign(path)
        state = load_state(str(path))
        check_compatible(state, seed=7, count=4, digest="d" * 64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 8, "count": 4, "digest": "d" * 64},
            {"seed": 7, "count": 5, "digest": "d" * 64},
            {"seed": 7, "count": 4, "digest": "e" * 64},
        ],
    )
    def test_mismatches_refuse(self, tmp_path, kwargs):
        path = tmp_path / "ledger.jsonl"
        write_campaign(path)
        with pytest.raises(LedgerError):
            check_compatible(load_state(str(path)), **kwargs)

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        write_campaign(path, executed=(0, 1), done=True)
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)
