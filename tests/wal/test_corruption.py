"""Torn writes and corruption: recovery stops cleanly at the last valid
record — a structured :class:`WalCorruptionWarning`, never a crash, and
never a silent skip of valid records."""

import struct
import zlib
from pathlib import Path

import pytest

from repro.wal import MutationLog, WalCorruptionWarning


def batch(i: int) -> list:
    return [{"op": "add_node", "label": f"node-{i}"}]


def write_log(path: Path, count: int) -> MutationLog:
    log = MutationLog(path)
    for i in range(count):
        log.append(batch(i))
    log.close()
    return log


def segments(path: Path) -> list[Path]:
    return sorted(path.glob("wal-*.seg"))


def read_records(path: Path) -> list:
    with MutationLog(path, readonly=True) as log:
        return list(log.records())


class TestTornTail:
    def test_truncated_payload_stops_at_last_valid_record(self, tmp_path):
        write_log(tmp_path / "log", 4)
        seg = segments(tmp_path / "log")[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning) as caught:
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1, 2, 3]
        warning = caught[0].message
        assert warning.reason == "truncated record payload"
        assert warning.last_valid_seq == 3
        assert warning.offset > 0

    def test_truncated_frame_header_stops_cleanly(self, tmp_path):
        write_log(tmp_path / "log", 2)
        seg = segments(tmp_path / "log")[-1]
        data = seg.read_bytes()
        seg.write_bytes(data + b"\x07\x00")  # 2 stray bytes of a new frame
        with pytest.warns(WalCorruptionWarning, match="truncated frame header"):
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1, 2]

    def test_checksum_mismatch_stops_at_last_valid_record(self, tmp_path):
        write_log(tmp_path / "log", 3)
        seg = segments(tmp_path / "log")[-1]
        data = bytearray(seg.read_bytes())
        data[-2] ^= 0xFF  # flip a byte inside the last record's payload
        seg.write_bytes(bytes(data))
        with pytest.warns(WalCorruptionWarning, match="checksum mismatch"):
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1, 2]

    def test_valid_records_before_damage_are_never_skipped(self, tmp_path):
        """Damage mid-file must not cause recovery to 'resync' past it:
        everything before is yielded, everything after is ignored with
        an explicit warning (a silent skip would replay a graph with a
        hole in its history)."""
        write_log(tmp_path / "log", 5)
        seg = segments(tmp_path / "log")[-1]
        data = bytearray(seg.read_bytes())
        # Find the start of record 3 (frames after the header) and
        # corrupt its crc, leaving records 4 and 5 physically intact.
        offset = 0
        for _ in range(3):  # header + records 1, 2
            length, _ = struct.unpack_from("<II", data, offset)
            offset += 8 + length
        data[offset + 4] ^= 0xFF  # crc byte of record 3
        seg.write_bytes(bytes(data))
        with pytest.warns(WalCorruptionWarning):
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1, 2]

    def test_sequence_gap_is_corruption_not_resync(self, tmp_path):
        write_log(tmp_path / "log", 3)
        seg = segments(tmp_path / "log")[-1]
        data = bytearray(seg.read_bytes())
        # Rewrite record 2's payload seq to 9 (recomputing the crc so
        # only the sequencing is wrong).
        offset = 0
        length, _ = struct.unpack_from("<II", data, offset)
        offset += 8 + length  # past header
        length, _ = struct.unpack_from("<II", data, offset)
        offset += 8 + length  # past record 1
        length, _ = struct.unpack_from("<II", data, offset)
        payload = bytes(data[offset + 8 : offset + 8 + length]).replace(
            b'"seq": 2', b'"seq": 9'
        )
        data[offset : offset + 8] = struct.pack(
            "<II", len(payload), zlib.crc32(payload)
        )
        data[offset + 8 : offset + 8 + length] = payload
        seg.write_bytes(bytes(data))
        with pytest.warns(WalCorruptionWarning, match="sequence gap"):
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1]


class TestMultiSegmentDamage:
    def test_damage_in_sealed_segment_hides_later_segments(self, tmp_path, monkeypatch):
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 2)
        write_log(tmp_path / "log", 6)
        first = segments(tmp_path / "log")[0]
        first.write_bytes(first.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning) as caught:
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1]
        reasons = [w.message.reason for w in caught]
        assert any("later segment" in reason for reason in reasons)

    def test_corrupt_segment_header_stops_before_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 2)
        write_log(tmp_path / "log", 4)
        second = segments(tmp_path / "log")[1]
        data = bytearray(second.read_bytes())
        data[10] ^= 0xFF  # inside the header frame
        second.write_bytes(bytes(data))
        with pytest.warns(WalCorruptionWarning):
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1, 2]


class TestCorruptionSignal:
    """Corruption is a first-class structured signal, not just a Python
    warning: incidents persist on the instance for the event log and
    the ``repro_wal_corruption_records_total`` counter to harvest."""

    def test_clean_log_reports_no_incidents(self, tmp_path):
        write_log(tmp_path / "log", 3)
        with MutationLog(tmp_path / "log", readonly=True) as log:
            assert log.corruption_events() == []
            assert log.stats()["corruption_records"] == 0

    def test_incident_shape_matches_the_warning(self, tmp_path):
        write_log(tmp_path / "log", 4)
        seg = segments(tmp_path / "log")[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning) as caught:
            with MutationLog(tmp_path / "log", readonly=True) as log:
                (incident,) = log.corruption_events()
        warning = caught[0].message
        assert incident["reason"] == warning.reason
        assert incident["offset"] == warning.offset
        assert incident["last_valid_seq"] == warning.last_valid_seq == 3
        assert incident["path"] == warning.path
        assert isinstance(incident["ts"], float)
        assert log.stats()["corruption_records"] == 1

    def test_repaired_flag_tracks_open_mode(self, tmp_path):
        write_log(tmp_path / "log", 3)
        seg = segments(tmp_path / "log")[-1]
        torn = seg.read_bytes()[:-5]
        seg.write_bytes(torn)
        with pytest.warns(WalCorruptionWarning):
            with MutationLog(tmp_path / "log", readonly=True) as log:
                (incident,) = log.corruption_events()
                assert incident["repaired"] is False
        seg.write_bytes(torn)  # re-tear (readonly never repaired anyway)
        with pytest.warns(WalCorruptionWarning):
            writable = MutationLog(tmp_path / "log")
        (incident,) = writable.corruption_events()
        assert incident["repaired"] is True
        writable.close()

    def test_multi_segment_damage_counts_every_incident(self, tmp_path, monkeypatch):
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 2)
        write_log(tmp_path / "log", 6)
        first = segments(tmp_path / "log")[0]
        first.write_bytes(first.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning):
            with MutationLog(tmp_path / "log", readonly=True) as log:
                incidents = log.corruption_events()
        # One incident for the torn tail, one for the unreachable
        # later segments — the counter matches the structured list.
        assert len(incidents) == 2
        assert log.stats()["corruption_records"] == 2
        reasons = [incident["reason"] for incident in incidents]
        assert any("later segment" in reason for reason in reasons)

    def test_incident_list_is_bounded_but_counter_is_not(self, tmp_path):
        # A readonly log never repairs, so every replay re-detects the
        # same torn tail.  The counter counts them all; the structured
        # list stays a bounded ring.
        write_log(tmp_path / "log", 3)
        seg = segments(tmp_path / "log")[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning):
            log = MutationLog(tmp_path / "log", readonly=True)
        for _ in range(20):
            with pytest.warns(WalCorruptionWarning):
                list(log.records())
        assert log.stats()["corruption_records"] == 21
        assert len(log.corruption_events()) == 16
        log.close()


class TestAppendRepair:
    def test_reopen_for_append_truncates_torn_tail(self, tmp_path):
        write_log(tmp_path / "log", 3)
        seg = segments(tmp_path / "log")[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning):
            log = MutationLog(tmp_path / "log")
        assert log.last_seq == 2
        assert log.append(batch(9)) == 3
        log.close()
        # After repair the log reads clean: no warnings at all.
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = read_records(tmp_path / "log")
        assert [r.seq for r in records] == [1, 2, 3]
        assert not [
            w for w in caught if isinstance(w.message, WalCorruptionWarning)
        ]

    def test_readonly_open_never_repairs(self, tmp_path):
        write_log(tmp_path / "log", 3)
        seg = segments(tmp_path / "log")[-1]
        torn = seg.read_bytes()[:-5]
        seg.write_bytes(torn)
        with pytest.warns(WalCorruptionWarning):
            with MutationLog(tmp_path / "log", readonly=True) as log:
                assert log.last_seq == 2
        assert seg.read_bytes() == torn  # bytes untouched

    def test_repair_drops_segments_past_the_damage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(MutationLog, "SEGMENT_MAX_RECORDS", 2)
        write_log(tmp_path / "log", 6)
        first = segments(tmp_path / "log")[0]
        first.write_bytes(first.read_bytes()[:-5])
        with pytest.warns(WalCorruptionWarning):
            log = MutationLog(tmp_path / "log")
        assert log.last_seq == 1
        assert len(segments(tmp_path / "log")) == 1
        assert log.append(batch(9)) == 2
        log.close()
