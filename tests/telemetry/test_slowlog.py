"""Unit tests for the slow-query log ring buffer."""

import pytest

from repro.telemetry.slowlog import SlowQueryLog


class TestValidation:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            SlowQueryLog(threshold=-0.1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            SlowQueryLog(capacity=0)


class TestThreshold:
    def test_none_disables_recording(self):
        log = SlowQueryLog(threshold=None)
        assert log.record(elapsed=100.0) is False
        assert len(log) == 0

    def test_zero_records_everything(self):
        log = SlowQueryLog(threshold=0.0)
        assert log.record(elapsed=0.0) is True
        assert log.record(elapsed=0.001) is True
        assert len(log) == 2

    def test_below_threshold_skipped(self):
        log = SlowQueryLog(threshold=1.0)
        assert log.record(elapsed=0.5) is False
        assert log.record(elapsed=1.0) is True
        assert len(log) == 1


class TestEntries:
    def test_entry_fields(self):
        log = SlowQueryLog(threshold=0.0)
        log.record(
            elapsed=2.5,
            trace_id="abc",
            request={"dataset": "toy"},
            error_type="TimeoutError",
            span_tree={"roots": []},
            extra={"worker": 3},
        )
        (entry,) = log.entries()
        assert entry["elapsed"] == 2.5
        assert entry["trace_id"] == "abc"
        assert entry["request"] == {"dataset": "toy"}
        assert entry["error_type"] == "TimeoutError"
        assert entry["span_tree"] == {"roots": []}
        assert entry["worker"] == 3
        assert entry["recorded_at"] > 0

    def test_newest_first(self):
        log = SlowQueryLog(threshold=0.0)
        for elapsed in (1.0, 2.0, 3.0):
            log.record(elapsed=elapsed)
        assert [entry["elapsed"] for entry in log.entries()] == [3.0, 2.0, 1.0]

    def test_ring_capacity_drops_oldest(self):
        log = SlowQueryLog(threshold=0.0, capacity=2)
        for elapsed in (1.0, 2.0, 3.0):
            log.record(elapsed=elapsed)
        assert [entry["elapsed"] for entry in log.entries()] == [3.0, 2.0]
