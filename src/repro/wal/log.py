"""Durable append-only mutation log (write-ahead log, WAL).

``repro.live`` made datasets mutable under traffic, but commits were
purely in-memory: a replica that crash-restarted warmed from its
snapshot and silently missed every commit since.  This module is the
durability half of that story — EMBANKS' "survive beyond RAM" argument
applied to the mutation stream: every committed wire-mutation batch is
appended to a per-dataset on-disk log, and replaying the log onto the
base snapshot reconstructs the live dataset exactly (bit-identical
graph and index; ``tests/property/test_prop_wal.py`` pins it).

Layout
------
A log is a **directory** of segment files named
``wal-<base_seq:016d>.seg``.  ``base_seq`` is the sequence number of
the last record *before* the segment, so a segment's first record is
``base_seq + 1`` — the name alone tells truncation and replay where a
segment sits without opening it.

Each segment starts with a framed header record (JSON: format magic,
format version, ``base_seq``, and ``snapshot`` — the content digest of
the snapshot file at ``base_seq`` the records continue, when the log
was reset or truncated there) followed by framed data records.  A frame
is::

    <u32 little-endian payload length> <u32 crc32(payload)> <payload>

and a data record's payload is UTF-8 JSON::

    {"seq": <int>, "mutations": [<wire mutation dicts>], "ts": <unix time>}

Earlier versions could also write a record that asks for a PageRank
rerun.  Such a record still reads as valid, so an appending open keeps
it and everything after it, but replay refuses it by its seq
(:attr:`WalRecord.refused`) rather than apply it with other prestige.

Sequence numbers are strictly contiguous (``seq == previous + 1``)
within and across segments; they align one-to-one with dataset epoch
versions: the record with ``seq == N`` is the commit that produced
dataset version ``N``.

Torn writes and corruption
--------------------------
Reads stop **cleanly at the last valid record**: a truncated frame,
checksum mismatch, undecodable payload or sequence gap ends iteration
with a structured :class:`WalCorruptionWarning` naming the file, the
offset and the last valid sequence — never an exception, and never a
silent skip of valid records (everything before the damage is always
yielded).  Opening a log for *append* additionally repairs it: the torn
tail is truncated (and any unreachable later segments deleted) so new
records land after the last valid one instead of hiding behind garbage.
Read-only opens (:class:`MutationLog` with ``readonly=True``, or
:meth:`MutationLog.peek`) never modify the files — a replica replaying
a log the supervisor is still appending to must not "repair" an
append in flight.

Sync policy (the durability/throughput knob)
--------------------------------------------
``sync=`` picks how hard :meth:`MutationLog.append` pushes each record
toward the platter:

``"commit"``
    ``flush()`` + ``fsync()`` on every append.  Survives OS/power
    failure at the cost of one disk sync per commit.
``"batched"`` (default)
    ``flush()`` on every append (the record reaches the OS page cache,
    so it survives a ``kill -9`` of this process), ``fsync()`` every
    :attr:`MutationLog.BATCH_EVERY` (16) appends.  At most 15 commits
    are exposed to a whole-machine crash; a process crash loses nothing.
``"off"``
    Library-buffered writes only; flushed on rotate/close.  For bulk
    loads and tests where durability is somebody else's problem.

All policies ``fsync`` on rotation, truncation and close.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import WalError

__all__ = [
    "SYNC_POLICIES",
    "WAL_FORMAT",
    "WAL_VERSION",
    "MutationLog",
    "WalCorruptionWarning",
    "WalRecord",
    "default_wal_path",
]

WAL_FORMAT = "repro-wal"
WAL_VERSION = 1
SYNC_POLICIES = ("commit", "batched", "off")

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_SEGMENT_GLOB = "wal-*.seg"


def default_wal_path(snapshot_path: Union[str, os.PathLike]) -> Path:
    """The conventional sibling WAL directory for a snapshot file.

    ``dblp.snap`` -> ``dblp.snap.wal`` — what the snapshot CLI's
    ``info`` command checks for unsnapshotted commits, and what
    :meth:`QueryService.attach_wal` defaults to for snapshot-registered
    datasets.
    """
    return Path(str(snapshot_path) + ".wal")


class WalCorruptionWarning(UserWarning):
    """A log read stopped early at damaged data.

    Carries the structured fields operators need (``path``, ``offset``,
    ``reason``, ``last_valid_seq``) in addition to the message, so
    handlers can triage without parsing text.
    """

    def __init__(
        self, path, offset: int, reason: str, last_valid_seq: int
    ) -> None:
        super().__init__(
            f"WAL {path} is damaged at byte {offset} ({reason}); "
            f"recovery stops at the last valid record (seq {last_valid_seq})"
        )
        self.path = str(path)
        self.offset = offset
        self.reason = reason
        self.last_valid_seq = last_valid_seq


@dataclass(frozen=True)
class WalRecord:
    """One committed mutation batch: the wire dicts plus its sequence
    number (== the dataset epoch version the commit produced).

    ``refused`` says why this code cannot apply the record (None when it
    can); replay stops there instead of building other state.
    """

    seq: int
    mutations: tuple
    refused: Optional[str] = None


@dataclass
class _Segment:
    """One scanned segment file."""

    path: Path
    base_seq: int
    last_seq: int  # == base_seq when the segment holds no data records
    end_offset: int  # byte offset just past the last valid record
    records: int = 0
    snapshot: Optional[str] = None  # the header's snapshot digest
    damaged: Optional[WalCorruptionWarning] = field(default=None, repr=False)


def _segment_name(base_seq: int) -> str:
    return f"wal-{base_seq:016d}.seg"


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frame(handle, path, offset: int) -> Union[bytes, WalCorruptionWarning, None]:
    """One frame's payload; None at clean EOF; a warning on damage."""
    header = handle.read(_FRAME.size)
    if not header:
        return None
    if len(header) < _FRAME.size:
        return WalCorruptionWarning(path, offset, "truncated frame header", -1)
    length, crc = _FRAME.unpack(header)
    payload = handle.read(length)
    if len(payload) < length:
        return WalCorruptionWarning(path, offset, "truncated record payload", -1)
    if zlib.crc32(payload) != crc:
        return WalCorruptionWarning(path, offset, "checksum mismatch", -1)
    return payload


def _walk_segment(path: Path, expected_base: Optional[int]):
    """The one validating pass over a segment, as an event stream.

    Yields ``("base", header, end_offset)`` for a valid header, then
    ``("record", WalRecord, end_offset)`` per valid record, stopping
    after ``("damage", WalCorruptionWarning, last_valid_offset)`` at
    the first torn frame, checksum mismatch, undecodable payload or
    sequence gap.  Both recovery scanning (:func:`_scan_segment`) and
    replay reading (:meth:`MutationLog.records`) consume this stream,
    so the two can never disagree about where a log's valid prefix
    ends.
    """
    last = expected_base if expected_base is not None else -1
    with open(path, "rb") as handle:
        payload = _read_frame(handle, path, 0)
        if payload is None or isinstance(payload, WalCorruptionWarning):
            yield ("damage", WalCorruptionWarning(
                path, 0, "unreadable segment header", last), 0)
            return
        header = _decode_header(payload)
        if header is None:
            yield ("damage", WalCorruptionWarning(
                path, 0, "not a repro-wal v1 segment header", last), 0)
            return
        base = header["base_seq"]
        if expected_base is not None and base != expected_base:
            yield ("damage", WalCorruptionWarning(
                path,
                0,
                f"segment base {base} does not continue seq {expected_base}",
                expected_base,
            ), 0)
            return
        last = base
        valid_end = handle.tell()
        yield ("base", header, valid_end)
        while True:
            offset = valid_end
            payload = _read_frame(handle, path, offset)
            if payload is None:
                return
            if isinstance(payload, WalCorruptionWarning):
                yield ("damage", WalCorruptionWarning(
                    path, offset, payload.reason, last), valid_end)
                return
            record = _decode_record(payload)
            if record is None:
                yield ("damage", WalCorruptionWarning(
                    path, offset, "malformed record payload", last), valid_end)
                return
            if record.seq != last + 1:
                yield ("damage", WalCorruptionWarning(
                    path,
                    offset,
                    f"sequence gap (got {record.seq}, expected {last + 1})",
                    last,
                ), valid_end)
                return
            last = record.seq
            valid_end = handle.tell()
            yield ("record", record, valid_end)


def _scan_segment(path: Path, expected_base: Optional[int]) -> _Segment:
    """Validate one segment file, stopping at the first damage."""
    base = expected_base if expected_base is not None else -1
    last = base
    valid_end = 0
    count = 0
    damaged: Optional[WalCorruptionWarning] = None
    snapshot = None
    for event, value, offset in _walk_segment(path, expected_base):
        if event == "base":
            base = last = value["base_seq"]
            snapshot = value.get("snapshot")
            valid_end = offset
        elif event == "record":
            last = value.seq
            count += 1
            valid_end = offset
        else:  # damage
            damaged = value
    return _Segment(
        path=path,
        base_seq=base,
        last_seq=last,
        end_offset=valid_end,
        records=count,
        snapshot=snapshot,
        damaged=damaged,
    )


def _decode_record(payload: bytes) -> Optional[WalRecord]:
    """Parse and shape-check one data record; None on anything off."""
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (
        not isinstance(data, dict)
        or not isinstance(data.get("seq"), int)
        or not isinstance(data.get("mutations"), list)
    ):
        return None
    refused = None
    if data.get("recompute_prestige"):
        refused = (
            "the record asks for a PageRank rerun (recompute_prestige), "
            "which this version does not do; rebuild the snapshot instead"
        )
    return WalRecord(
        seq=data["seq"], mutations=tuple(data["mutations"]), refused=refused
    )


def _decode_header(payload: bytes) -> Optional[dict]:
    """The segment header; None when not a valid header."""
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (
        not isinstance(header, dict)
        or header.get("format") != WAL_FORMAT
        or header.get("version") != WAL_VERSION
        or not isinstance(header.get("base_seq"), int)
    ):
        return None
    return header


class MutationLog:
    """A per-dataset segmented append-only mutation log.

    Parameters
    ----------
    path:
        Log directory (created unless ``readonly``).
    sync:
        Durability policy per append — ``"commit"`` / ``"batched"`` /
        ``"off"``; see the module docstring for exactly what each
        guarantees and costs.
    start_seq:
        The sequence number the log starts *after* when created empty —
        i.e. the ``dataset_version`` of the snapshot this log's records
        apply on top of.  Ignored when segments already exist on disk.
    readonly:
        Open without creating or repairing anything (replica replay,
        CLI inspection).  Append, truncate, rotate and reset raise.
    """

    #: Under ``"batched"``, how many appends may pass between ``fsync``
    #: calls (durability exposure to an *OS* crash; a process crash
    #: never loses a flushed append).
    BATCH_EVERY = 16
    #: Rotation thresholds: a full segment is sealed and a new one
    #: started, which is what gives truncation its unit of deletion.
    SEGMENT_MAX_RECORDS = 1024
    SEGMENT_MAX_BYTES = 4 << 20

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        sync: str = "batched",
        start_seq: int = 0,
        readonly: bool = False,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r}; expected one of {SYNC_POLICIES}"
            )
        if start_seq < 0:
            raise ValueError(f"start_seq must be >= 0, got {start_seq!r}")
        self.path = Path(path)
        self.sync_policy = sync
        self._readonly = readonly
        self._lock = threading.RLock()
        self._handle = None
        self._unsynced = 0
        self._last_append_offset: Optional[int] = None
        self._closed = False
        # Lifetime activity counters (this instance, not the on-disk
        # history): what a metrics collector reads to expose append /
        # fsync / replay rates without touching the segments.
        self._appends = 0
        self._fsyncs = 0
        self._appended_bytes = 0
        self._replayed_records = 0
        # Corruption incidents this instance detected (recovery scan or
        # replay): a counter for metrics plus a bounded structured list
        # so the event log can surface *what* was repaired, not just a
        # Python warning production never sees.
        self._corruption_records = 0
        self._corruption_log: list[dict] = []
        if readonly:
            if not self.path.is_dir():
                raise WalError(f"WAL directory {self.path} does not exist")
        else:
            self.path.mkdir(parents=True, exist_ok=True)
        self._segments = self._recover(start_seq)

    # ------------------------------------------------------------------
    # recovery / scanning
    # ------------------------------------------------------------------
    def _segment_paths(self) -> list[Path]:
        return sorted(self.path.glob(_SEGMENT_GLOB))

    def _note_corruption(
        self, warning: WalCorruptionWarning, *, repaired: bool, stacklevel: int
    ) -> None:
        """Record a corruption incident, then emit the usual warning.

        The incident survives on the instance (``corruption_events()``,
        ``stats()["corruption_records"]``) so callers can turn it into
        operational events and registry counters after the fact.
        """
        self._corruption_records += 1
        self._corruption_log.append(
            {
                "path": warning.path,
                "offset": warning.offset,
                "reason": warning.reason,
                "last_valid_seq": warning.last_valid_seq,
                "repaired": repaired,
                "ts": time.time(),
            }
        )
        del self._corruption_log[:-16]
        warnings.warn(warning, stacklevel=stacklevel + 1)

    def corruption_events(self) -> list[dict]:
        """Structured corruption incidents this instance detected."""
        with self._lock:
            return [dict(event) for event in self._corruption_log]

    def _recover(self, start_seq: int) -> list[_Segment]:
        """Scan segments in order; repair the tail unless readonly."""
        paths = self._segment_paths()
        segments: list[_Segment] = []
        expected: Optional[int] = None
        dropped: list[Path] = []
        for i, path in enumerate(paths):
            segment = _scan_segment(path, expected)
            segments.append(segment)
            if segment.damaged is not None:
                self._note_corruption(
                    segment.damaged, repaired=not self._readonly, stacklevel=3
                )
                dropped = paths[i + 1 :]
                if dropped:
                    self._note_corruption(
                        WalCorruptionWarning(
                            self.path,
                            segment.damaged.offset,
                            f"{len(dropped)} later segment(s) are unreachable "
                            f"past the damage and are ignored",
                            segment.last_seq,
                        ),
                        repaired=not self._readonly,
                        stacklevel=3,
                    )
                break
            expected = segment.last_seq
        if not self._readonly:
            tail = segments[-1] if segments else None
            if tail is not None and tail.damaged is not None:
                # Repair: truncate the torn tail so appends continue
                # after the last valid record, and delete segments the
                # damage cut off (their bases no longer line up).
                if tail.end_offset > 0:
                    with open(tail.path, "r+b") as handle:
                        handle.truncate(tail.end_offset)
                        handle.flush()
                        os.fsync(handle.fileno())
                    tail = _scan_segment(tail.path, None)
                    segments[-1] = tail
                else:
                    tail.path.unlink()
                    segments.pop()
                for path in dropped:
                    path.unlink()
            if not segments:
                segments = [self._create_segment(start_seq)]
        return segments

    def _create_segment(
        self, base_seq: int, snapshot: Optional[str] = None
    ) -> _Segment:
        path = self.path / _segment_name(base_seq)
        header = {"format": WAL_FORMAT, "version": WAL_VERSION, "base_seq": base_seq}
        if snapshot is not None:
            header["snapshot"] = snapshot
        data = _frame(json.dumps(header).encode("utf-8"))
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return _Segment(path, base_seq, base_seq, len(data), snapshot=snapshot)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (== the base
        when the log holds none)."""
        with self._lock:
            return self._segments[-1].last_seq if self._segments else 0

    @property
    def first_base(self) -> int:
        """Sequence the oldest retained segment starts after — replay
        can reconstruct any state from ``first_base`` forward."""
        with self._lock:
            return self._segments[0].base_seq if self._segments else 0

    def moved(self, path: Union[str, os.PathLike]) -> "MutationLog":
        """A log at ``path`` with this one's sync policy."""
        return MutationLog(path, sync=self.sync_policy)

    def snapshot_at(self, seq: int) -> Optional[str]:
        """The content digest of the snapshot file at ``seq`` that the
        records after it continue, as :meth:`reset` or :meth:`truncate`
        recorded it; None when no retained segment recorded one."""
        with self._lock:
            found = [s.snapshot for s in self._segments if s.base_seq == seq]
            return found[0] if found else None

    def stats(self) -> dict:
        """Size and position counters for metrics/health export."""
        with self._lock:
            return {
                "last_seq": self.last_seq,
                "first_base": self.first_base,
                "segments": len(self._segments),
                "records": sum(s.records for s in self._segments),
                "bytes": sum(s.end_offset for s in self._segments),
                "sync": self.sync_policy,
                "appends": self._appends,
                "fsyncs": self._fsyncs,
                "appended_bytes": self._appended_bytes,
                "replayed_records": self._replayed_records,
                "corruption_records": self._corruption_records,
            }

    @classmethod
    def peek(cls, path: Union[str, os.PathLike]) -> Optional[dict]:
        """Cheap read-only inspection: :meth:`stats` for an existing log
        directory, or None when there is no log at ``path``.  Never
        creates or repairs anything (corruption still warns)."""
        if not Path(path).is_dir():
            return None
        return cls(path, readonly=True).stats()

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, mutations, *, seq: Optional[int] = None) -> int:
        """Append one committed batch of wire mutation dicts.

        ``seq`` defaults to ``last_seq + 1``; passing it explicitly
        asserts the caller's epoch arithmetic — a mismatch raises
        :class:`~repro.errors.WalError` *before* anything is written,
        which is how a misaligned journal fails the commit instead of
        silently recording an unreplayable history.
        """
        with self._lock:
            self._check_writable()
            expected = self.last_seq + 1
            if seq is None:
                seq = expected
            elif seq != expected:
                raise WalError(
                    f"out-of-order append: seq {seq} does not continue the "
                    f"log's last sequence {self.last_seq}"
                )
            record = {"seq": seq, "mutations": list(mutations), "ts": time.time()}
            data = _frame(json.dumps(record).encode("utf-8"))
            active = self._segments[-1]
            if (
                active.records >= self.SEGMENT_MAX_RECORDS
                or active.end_offset + len(data) > self.SEGMENT_MAX_BYTES
            ) and active.records > 0:
                self._rotate_locked()
                active = self._segments[-1]
            handle = self._writer(active)
            self._last_append_offset = active.end_offset
            handle.write(data)
            active.end_offset += len(data)
            active.records += 1
            active.last_seq = seq
            self._appends += 1
            self._appended_bytes += len(data)
            if self.sync_policy == "commit":
                handle.flush()
                os.fsync(handle.fileno())
                self._fsyncs += 1
                self._unsynced = 0
            elif self.sync_policy == "batched":
                handle.flush()
                self._unsynced += 1
                if self._unsynced >= self.BATCH_EVERY:
                    os.fsync(handle.fileno())
                    self._fsyncs += 1
                    self._unsynced = 0
            return seq

    def rollback_last(self) -> int:
        """Remove the record appended by the immediately preceding
        :meth:`append` on this instance (the supervisor's bad-batch
        compensation path).  Returns the new ``last_seq``."""
        with self._lock:
            self._check_writable()
            if self._last_append_offset is None:
                raise WalError(
                    "no append to roll back (rollback_last undoes only the "
                    "record this process appended last, exactly once)"
                )
            active = self._segments[-1]
            handle = self._writer(active)
            handle.flush()
            handle.truncate(self._last_append_offset)
            handle.seek(self._last_append_offset)
            os.fsync(handle.fileno())
            active.end_offset = self._last_append_offset
            active.records -= 1
            active.last_seq -= 1
            self._last_append_offset = None
            self._unsynced = 0
            return active.last_seq

    def sync(self) -> None:
        """Flush and ``fsync`` any buffered appends now."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._fsyncs += 1
                self._unsynced = 0

    def _writer(self, active: _Segment):
        if self._handle is None:
            self._handle = open(active.path, "ab")
        return self._handle

    def _check_writable(self) -> None:
        if self._closed:
            raise WalError(f"WAL {self.path} is closed")
        if self._readonly:
            raise WalError(f"WAL {self.path} was opened read-only")

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------
    def rotate(self) -> Path:
        """Seal the active segment and start a new one."""
        with self._lock:
            self._check_writable()
            return self._rotate_locked().path

    def _rotate_locked(self, snapshot: Optional[str] = None) -> _Segment:
        self._close_writer()
        segment = self._create_segment(self._segments[-1].last_seq, snapshot)
        self._segments.append(segment)
        self._last_append_offset = None
        return segment

    def truncate(self, upto_seq: int, snapshot: Optional[str] = None) -> int:
        """Delete segments wholly covered by a snapshot at ``upto_seq``
        (whose content digest is ``snapshot``).

        A segment is deletable when every record in it has
        ``seq <= upto_seq`` *and* a later segment exists to carry the
        log forward; the active segment is first rotated away when it
        is itself fully covered, so a snapshot taken at the current tip
        leaves exactly one empty segment based at ``upto_seq``, which
        records ``snapshot``.  Returns the number of segment files
        deleted.
        """
        with self._lock:
            self._check_writable()
            if self._segments[-1].last_seq <= upto_seq and (
                self._segments[-1].records > 0 or len(self._segments) > 1
            ):
                self._rotate_locked(snapshot)
            deleted = 0
            while len(self._segments) > 1 and self._segments[0].last_seq <= upto_seq:
                self._segments.pop(0).path.unlink()
                deleted += 1
            return deleted

    def reset(self, start_seq: int, snapshot: Optional[str] = None) -> None:
        """Discard every segment and start a fresh log after
        ``start_seq``, continuing the snapshot whose content digest is
        ``snapshot`` — the reload path: a dataset hot-swapped to an
        unrelated snapshot makes the old records unreplayable, so the
        log restarts at the new baseline."""
        with self._lock:
            self._check_writable()
            self._close_writer()
            for segment in self._segments:
                segment.path.unlink()
            self._segments = [self._create_segment(start_seq, snapshot)]
            self._last_append_offset = None
            self._unsynced = 0

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self, *, start_after: Optional[int] = None) -> Iterator[WalRecord]:
        """Yield valid records in order, newest last.

        ``start_after`` skips records with ``seq <= start_after``
        (replay onto a snapshot at that version).  Iteration stops at
        the first damaged byte with a :class:`WalCorruptionWarning`
        (see the module docstring); everything valid before the damage
        is always yielded.  One validating pass per segment — records
        are yielded as they are checked, so replaying a large log reads
        each byte once.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            paths = [segment.path for segment in self._segments]
        last: Optional[int] = None
        for i, path in enumerate(paths):
            damage: Optional[WalCorruptionWarning] = None
            for event, value, _offset in _walk_segment(path, last):
                if event == "record":
                    last = value.seq
                    if start_after is None or value.seq > start_after:
                        self._replayed_records += 1
                        yield value
                elif event == "base":
                    last = value["base_seq"]
                else:  # damage
                    damage = value
            if damage is not None:
                self._note_corruption(damage, repaired=False, stacklevel=2)
                remaining = len(paths) - i - 1
                if remaining:
                    self._note_corruption(
                        WalCorruptionWarning(
                            self.path,
                            damage.offset,
                            f"{remaining} later segment(s) are unreachable "
                            f"past the damage and are ignored",
                            damage.last_valid_seq,
                        ),
                        repaired=False,
                        stacklevel=2,
                    )
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _close_writer(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._fsyncs += 1
            self._handle.close()
            self._handle = None
            self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            if not self._readonly:
                self._close_writer()
            self._closed = True

    def __enter__(self) -> "MutationLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutationLog({str(self.path)!r}, last_seq={self.last_seq}, "
            f"segments={len(self._segments)}, sync={self.sync_policy!r})"
        )
