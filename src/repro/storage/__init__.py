"""Residency modes for built engine state.

A snapshot file (see :mod:`repro.service.snapshot`) has one layout —
page-aligned flat arrays behind a small JSON header — and loads the
same way under every ``storage_mode``: lazily.  This package holds the
*runtime* side of that load:

* :class:`~repro.storage.mapped.MappedSearchGraph` /
  :class:`~repro.storage.mapped.MappedInvertedIndex` — drop-in
  read-only implementations of the graph/index contracts whose
  adjacency rows and posting lists materialize on first touch, over an
  ``mmap`` of the file (``mapped``) or its bytes read into process
  memory (``ram``);
* :func:`apply_pin_policy` — the rows materialized eagerly at load time
  (high-prestige and high-degree nodes, hot posting lists; counts
  :data:`~repro.storage.mapped.PIN_NODES` / ``PIN_TERMS``);
* :class:`StorageStats` — per-dataset fault/pin/residency counters the
  telemetry registry exports;
* :func:`resolve_storage_mode` — the ``ram`` / ``mapped`` knob
  resolution shared by every load path (explicit argument beats the
  ``REPRO_SNAPSHOT_MODE`` environment hook beats ``mapped``).
"""

from repro.storage.stats import (
    STORAGE_MODES,
    StorageStats,
    resolve_storage_mode,
)
from repro.storage.mapped import (
    MappedInvertedIndex,
    MappedSearchGraph,
    apply_pin_policy,
)

__all__ = [
    "STORAGE_MODES",
    "MappedInvertedIndex",
    "MappedSearchGraph",
    "StorageStats",
    "apply_pin_policy",
    "resolve_storage_mode",
]
