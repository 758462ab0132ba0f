"""Storage-mode resolution, pin policy and residency accounting.

Small, dependency-free pieces shared by the snapshot loader
(:mod:`repro.service.snapshot`), the mapped graph/index classes
(:mod:`repro.storage.mapped`) and the service telemetry collector.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "STORAGE_MODES",
    "STORAGE_MODE_ENV",
    "PinPolicy",
    "StorageStats",
    "resolve_storage_mode",
]

#: Environment hook: set ``REPRO_SNAPSHOT_MODE=ram`` (or ``mapped``) to
#: steer every ``load_snapshot`` call that did not pick a mode
#: explicitly — how CI runs the storage-facing suites against the
#: eager tier without touching a single call site.
STORAGE_MODE_ENV = "REPRO_SNAPSHOT_MODE"

STORAGE_MODES = ("ram", "mapped")


def resolve_storage_mode(value: Optional[str] = None) -> str:
    """Resolve the effective storage mode for a snapshot load.

    Precedence: explicit ``value`` argument, then the
    ``REPRO_SNAPSHOT_MODE`` environment variable, then ``"mapped"``.
    """
    if value is None:
        value = os.environ.get(STORAGE_MODE_ENV) or "mapped"
    mode = str(value).strip().lower()
    if mode not in STORAGE_MODES:
        raise ValueError(
            f"unknown storage mode {value!r}; expected one of {STORAGE_MODES}"
        )
    return mode


@dataclass(frozen=True)
class PinPolicy:
    """Which rows a snapshot load materializes eagerly.

    The paper's activation model concentrates traffic on high-prestige
    hubs, and frontier expansion touches high-degree rows far more
    often than the long tail — so the pin set is the union of the
    top-``nodes`` rows by prestige and by combined degree (both
    adjacency sides are pinned for each).  ``terms`` pins the largest
    posting lists: keyword seeding reads whole origin sets, and the
    frequent-keyword case is exactly where a posting list is big.

    Pinning only *materializes* the rows at load time (they live in the
    ordinary row cache, which never evicts); it does not ``mlock``
    pages — the OS page cache underneath stays evictable, which is what
    lets N worker processes share one physical copy of the file.

    The defaults are deliberately small: pinning is O(pin set) Python
    tuple construction at load time, and a lazy load's whole point is
    an O(1)-ish warmup.  Hub nodes and frequent keywords are so skewed
    that a few dozen rows cover most first-query traffic; services with
    known-hot workloads pass a bigger policy explicitly.
    """

    nodes: int = 64
    terms: int = 16

    def __post_init__(self) -> None:
        if self.nodes < 0 or self.terms < 0:
            raise ValueError(
                f"pin counts must be >= 0, got nodes={self.nodes!r} "
                f"terms={self.terms!r}"
            )

    @classmethod
    def coerce(cls, value: Union[None, dict, "PinPolicy"]) -> "PinPolicy":
        """Accept ``None`` (defaults), a ``{"nodes", "terms"}`` dict, or
        an existing policy."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"pin_policy must be a PinPolicy, a dict or None, got {value!r}"
        )


class StorageStats:
    """Mutable residency counters for one snapshot-loaded dataset.

    One instance is shared by the dataset's graph and index (exposed as
    their ``.storage`` attribute) and read by the service telemetry
    collector at export time.  ``resident_bytes`` is an *estimate* of
    the Python-object working set (materialized rows and posting sets),
    not the OS page-cache footprint — the latter is shared across
    processes and invisible from here.  ``mapped_bytes`` is the size of
    the arrays behind the ``mmap`` (0 under ``ram``, where the bytes
    are the process's own).
    """

    __slots__ = (
        "mode",
        "path",
        "mapped_bytes",
        "row_faults",
        "posting_faults",
        "pinned_nodes",
        "pinned_terms",
        "pinned_bytes",
        "resident_bytes",
    )

    #: Rough bytes per materialized ``(neighbor, weight, is_forward)``
    #: edge tuple (tuple header + int + float; bools are interned).
    EDGE_ESTIMATE = 104
    #: Rough bytes per posting-set member (set slot + int object).
    POSTING_ESTIMATE = 60

    def __init__(self, *, mode: str = "mapped", path: str = "") -> None:
        self.mode = mode
        self.path = path
        self.mapped_bytes = 0
        self.row_faults = 0
        self.posting_faults = 0
        self.pinned_nodes = 0
        self.pinned_terms = 0
        self.pinned_bytes = 0
        self.resident_bytes = 0

    def note_row(self, edges: int) -> None:
        self.row_faults += 1
        self.resident_bytes += self.EDGE_ESTIMATE * edges

    def note_postings(self, nodes: int) -> None:
        self.posting_faults += 1
        self.resident_bytes += self.POSTING_ESTIMATE * nodes

    def snapshot(self) -> dict:
        """JSON-safe view of every counter."""
        return {
            "mode": self.mode,
            "path": self.path,
            "mapped_bytes": self.mapped_bytes,
            "row_faults": self.row_faults,
            "posting_faults": self.posting_faults,
            "pinned_nodes": self.pinned_nodes,
            "pinned_terms": self.pinned_terms,
            "pinned_bytes": self.pinned_bytes,
            "resident_bytes": self.resident_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageStats(mode={self.mode!r}, row_faults={self.row_faults}, "
            f"posting_faults={self.posting_faults}, "
            f"pinned_nodes={self.pinned_nodes}, pinned_terms={self.pinned_terms})"
        )
