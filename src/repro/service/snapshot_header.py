"""The snapshot preamble and JSON header, readable without numpy.

A fleet supervisor asks a snapshot only for its ``dataset_version``;
parsing that one JSON block must not cost it the array stack.
:mod:`repro.service.snapshot` owns the layout and re-exports these names.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Union

from repro.errors import SnapshotError

SNAPSHOT_FORMAT = "repro-engine-snapshot"
SNAPSHOT_VERSION = 3

#: Preamble of a snapshot.  Deliberately starts with a non-ASCII byte
#: (like numpy's own ``\x93NUMPY``) so no text file or zip container
#: (``PK``) can collide with it.
MAPPED_MAGIC = b"\x93REPROMAP2\n"
#: Array offsets in a snapshot are multiples of this (one page).
MAPPED_ALIGNMENT = 4096


def _align(offset: int) -> int:
    return -(-offset // MAPPED_ALIGNMENT) * MAPPED_ALIGNMENT


def _read_header(path: Path) -> tuple[dict, int]:
    """Parse a snapshot's preamble + JSON header.

    Reads only the header region — never the data arrays — so callers
    like :func:`snapshot_info` stay O(header) regardless of dataset
    size.  Returns ``(header, data_start)``.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAPPED_MAGIC))
            if magic != MAPPED_MAGIC:
                if magic.startswith(b"PK\x03\x04"):
                    raise SnapshotError(
                        f"{path} is a version-1 (zip container) snapshot, which "
                        f"this build no longer reads; `python -m "
                        f"repro.service.snapshot upgrade OLD NEW` at commit "
                        f"25ef7c5 is the last that converts it"
                    )
                raise SnapshotError(
                    f"cannot read snapshot {path}: not a {SNAPSHOT_FORMAT} file"
                )
            raw = fh.read(8)
            if len(raw) != 8:
                raise SnapshotError(f"{path} is truncated (no header length)")
            (header_len,) = struct.unpack("<Q", raw)
            if header_len > 1 << 31:
                raise SnapshotError(f"{path} has an implausible header length")
            header_bytes = fh.read(header_len)
            if len(header_bytes) != header_len:
                raise SnapshotError(f"{path} is truncated (incomplete header)")
    except FileNotFoundError:
        raise SnapshotError(f"snapshot file {path} does not exist") from None
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} has a corrupt header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path} is snapshot version {header.get('version')!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    data_start = _align(len(MAPPED_MAGIC) + 8 + header_len)
    return header, data_start


def snapshot_info(path: Union[str, os.PathLike]) -> dict:
    """Cheap header inspection: versions, digest and size counters.

    Parses only the JSON header, never a data array.
    """
    path = Path(path)
    meta, _ = _read_header(path)
    hints = meta.get("pin_hints") or {}
    return {
        "format": meta["format"],
        "version": meta["version"],
        "dataset_version": meta.get("dataset_version"),
        "content_digest": meta.get("content_digest"),
        "num_nodes": meta["num_nodes"],
        "num_forward_edges": meta["num_forward_edges"],
        "index_terms": meta["index_terms"],
        "relation_terms": meta["relation_terms"],
        "pin_hint_nodes": len(hints.get("nodes") or ()),
        "pin_hint_terms": len(hints.get("terms") or ()),
        "file_bytes": path.stat().st_size,
    }


def file_info(path) -> dict:
    """:func:`snapshot_info` of the file at ``path``; empty with no path
    or an unreadable file (``content_digest`` is absent, too, from a
    file that predates digests)."""
    try:
        return snapshot_info(path) if path else {}
    except SnapshotError:
        return {}
