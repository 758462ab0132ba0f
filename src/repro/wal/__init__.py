"""Durable mutation log (WAL) with crash-recovery replay.

The durability tier under :mod:`repro.live`: every committed mutation
batch is appended — length-prefixed, crc32-checksummed, strictly
sequenced — to a per-dataset segmented log on disk, and replaying the
log onto the base snapshot reconstructs the live dataset bit-for-bit.
A ``kill -9``'d replica therefore recovers to exactly the last durable
epoch instead of silently serving its stale snapshot.

* :class:`MutationLog` — the log itself: append/replay/truncate with
  one knob, the sync policy (``"commit"`` / ``"batched"`` /
  ``"off"``); fsync batching and segment rotation are class constants.
* :class:`WalRecord` — one replayable record (sequence number ==
  dataset epoch version, wire mutation dicts); a record an earlier
  version wrote that this one cannot apply carries ``refused``, and
  replay stops there by its seq.
* :class:`WalCorruptionWarning` — the structured warning a torn or
  corrupt tail surfaces; recovery stops cleanly at the last valid
  record, never crashes, never skips valid data.
* :func:`default_wal_path` — the ``<snapshot>.wal`` sibling convention
  shared by ``QueryService.attach_wal`` and the snapshot CLI.

Wiring lives in the owning tiers: ``MutableDataset.mutate(batch,
journal=log.append)`` + ``MutableDataset.replay_records``
(:mod:`repro.live`),
``QueryService.attach_wal`` (thread tier),
``ShardedQueryService(wal_dir=...)`` append-before-broadcast plus
worker startup replay (cluster tier).
"""

from repro.wal.log import (
    SYNC_POLICIES,
    WAL_FORMAT,
    WAL_VERSION,
    MutationLog,
    WalCorruptionWarning,
    WalRecord,
    default_wal_path,
)

__all__ = [
    "SYNC_POLICIES",
    "WAL_FORMAT",
    "WAL_VERSION",
    "MutationLog",
    "WalCorruptionWarning",
    "WalRecord",
    "default_wal_path",
]
