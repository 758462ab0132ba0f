"""MutationLog basics: framing, sequencing, rotation, truncation."""

import pytest

from repro.errors import WalError
from repro.wal import MutationLog, default_wal_path


def batch(i: int) -> list:
    return [{"op": "add_node", "label": f"node-{i}", "text": f"word{i}"}]


@pytest.fixture()
def log(tmp_path):
    with MutationLog(tmp_path / "toy.wal") as log:
        yield log


class TestAppendAndRead:
    def test_sequences_are_contiguous_from_start_seq(self, tmp_path):
        with MutationLog(tmp_path / "log", start_seq=7) as log:
            assert log.last_seq == 7
            assert [log.append(batch(i)) for i in range(3)] == [8, 9, 10]
            assert [r.seq for r in log.records()] == [8, 9, 10]

    def test_records_round_trip_mutations_exactly(self, log):
        mutations = [
            {"op": "add_node", "label": "a", "table": "paper", "ref": None,
             "text": "x y"},
            {"op": "add_edge", "u": 0, "v": 3, "weight": 0.5},
        ]
        log.append(mutations)
        (record,) = log.records()
        assert list(record.mutations) == mutations

    def test_start_after_skips_older_records(self, log):
        for i in range(5):
            log.append(batch(i))
        assert [r.seq for r in log.records(start_after=3)] == [4, 5]

    def test_explicit_seq_must_continue_the_log(self, log):
        log.append(batch(0), seq=1)
        with pytest.raises(WalError, match="out-of-order"):
            log.append(batch(1), seq=3)
        with pytest.raises(WalError, match="out-of-order"):
            log.append(batch(1), seq=1)
        assert log.append(batch(1), seq=2) == 2

    def test_reopen_resumes_after_last_record(self, tmp_path):
        with MutationLog(tmp_path / "log") as log:
            for i in range(4):
                log.append(batch(i))
        with MutationLog(tmp_path / "log") as log:
            assert log.last_seq == 4
            assert log.append(batch(4)) == 5
            assert [r.seq for r in log.records()] == [1, 2, 3, 4, 5]

    def test_rollback_last_removes_only_the_tail_record(self, log):
        log.append(batch(0))
        log.append(batch(1))
        assert log.rollback_last() == 1
        assert [r.seq for r in log.records()] == [1]
        # the slot is reusable and exactly-once
        with pytest.raises(WalError, match="no append to roll back"):
            log.rollback_last()
        assert log.append(batch(9)) == 2

    def test_bad_knobs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync policy"):
            MutationLog(tmp_path / "log", sync="eventually")
        with pytest.raises(ValueError, match="start_seq"):
            MutationLog(tmp_path / "log", start_seq=-1)
        # Class constants now (BATCH_EVERY, SEGMENT_MAX_*), not arguments.
        for argument in ("batch_every", "segment_max_records", "segment_max_bytes"):
            with pytest.raises(TypeError, match=argument):
                MutationLog(tmp_path / "log", **{argument: 2})
        with pytest.raises(TypeError, match="recompute_prestige"):
            with MutationLog(tmp_path / "log") as log:
                log.append([], recompute_prestige=True)


@pytest.fixture()
def two_record_segments(monkeypatch):
    monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 2)


@pytest.mark.usefixtures("two_record_segments")
class TestSegments:
    def test_rotation_by_record_count(self, tmp_path):
        with MutationLog(tmp_path / "log") as log:
            for i in range(5):
                log.append(batch(i))
            stats = log.stats()
            assert stats["segments"] == 3
            assert stats["records"] == 5
            assert [r.seq for r in log.records()] == [1, 2, 3, 4, 5]

    def test_truncate_drops_snapshotted_segments(self, tmp_path):
        with MutationLog(tmp_path / "log") as log:
            for i in range(6):
                log.append(batch(i))
            deleted = log.truncate(4)
            assert deleted == 2
            assert log.first_base == 4
            assert log.last_seq == 6
            assert [r.seq for r in log.records(start_after=4)] == [5, 6]

    def test_truncate_at_tip_leaves_one_empty_segment(self, tmp_path):
        with MutationLog(tmp_path / "log") as log:
            for i in range(3):
                log.append(batch(i))
            log.truncate(3)
            stats = log.stats()
            assert stats["records"] == 0
            assert stats["last_seq"] == 3
            assert log.append(batch(3)) == 4

    def test_reset_restarts_at_new_baseline(self, tmp_path):
        with MutationLog(tmp_path / "log") as log:
            log.append(batch(0))
            log.reset(start_seq=10)
            assert log.last_seq == 10
            assert list(log.records()) == []
            assert log.append(batch(1)) == 11


class TestSyncPolicies:
    @pytest.mark.parametrize("sync", ["commit", "batched", "off"])
    def test_all_policies_produce_identical_logs(self, tmp_path, sync, monkeypatch):
        monkeypatch.setattr(MutationLog, "BATCH_EVERY", 2)
        with MutationLog(tmp_path / sync, sync=sync) as log:
            for i in range(5):
                log.append(batch(i))
            log.sync()
        with MutationLog(tmp_path / sync, readonly=True) as log:
            assert [r.seq for r in log.records()] == [1, 2, 3, 4, 5]


class TestReadonly:
    def test_readonly_requires_existing_directory(self, tmp_path):
        with pytest.raises(WalError, match="does not exist"):
            MutationLog(tmp_path / "nope", readonly=True)

    def test_readonly_rejects_writes(self, tmp_path):
        MutationLog(tmp_path / "log").close()
        with MutationLog(tmp_path / "log", readonly=True) as log:
            with pytest.raises(WalError, match="read-only"):
                log.append(batch(0))
            with pytest.raises(WalError, match="read-only"):
                log.truncate(0)

    def test_closed_rejects_writes(self, tmp_path):
        log = MutationLog(tmp_path / "log")
        log.close()
        with pytest.raises(WalError, match="closed"):
            log.append(batch(0))

    def test_peek(self, tmp_path):
        assert MutationLog.peek(tmp_path / "nope") is None
        with MutationLog(tmp_path / "log") as log:
            log.append(batch(0))
        peeked = MutationLog.peek(tmp_path / "log")
        assert peeked["last_seq"] == 1
        assert peeked["records"] == 1


def test_default_wal_path_is_snapshot_sibling(tmp_path):
    assert default_wal_path(tmp_path / "dblp.snap") == tmp_path / "dblp.snap.wal"
