"""Live graph mutation subsystem: versioned datasets over frozen bases.

The BANKS model (and this reproduction's whole stack up to here)
assumes a static graph + index; real keyword-search deployments ingest
updates under live traffic.  This package layers mutability on top of
the frozen substrate without giving up any of its guarantees:

* :mod:`repro.live.mutations` — structured, wire-serializable mutation
  types (``add_node`` / ``add_edge`` / ``remove_edge`` /
  ``update_text``);
* :mod:`repro.live.overlay` — immutable copy-on-write read views
  (:class:`OverlayGraph`, :class:`OverlayIndex`) presenting the full
  ``SearchGraph`` / ``InvertedIndex`` API over a base plus deltas;
* :mod:`repro.live.dataset` — :class:`MutableDataset`, the MVCC epoch
  manager: staged mutations, monotone-versioned commits (in-flight
  searches keep their epoch), incremental backward-weight and posting
  maintenance, and compaction back to flat arrays.  A dataset keeps
  data, not lineage: it writes no file, and prestige stays what the
  base was built with (new nodes take the base's mean).

Service integration lives in the owning tiers:
``QueryService.apply`` / ``register_mutable`` (version-keyed result
caching), ``ShardedQueryService.apply`` (replica broadcast) and the
HTTP front-end's ``POST /mutate``.  Durability lives in
:mod:`repro.wal`: pass ``mutate(batch, journal=log.append)`` (or
attach a log with ``QueryService.attach_wal``) to append every commit
to a crash-recoverable mutation log, and
:meth:`MutableDataset.replay_records` to bring a dataset on its base
graph and index up to that log's tip.  ``QueryService`` writes live
state to disk, stamped with the version it serves.

Re-exports are lazy (:mod:`repro._lazy`): a process imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.live.dataset import Epoch, MutableDataset, MutationOutcome
    from repro.live.mutations import (
        AddEdge,
        AddNode,
        Mutation,
        MutationResult,
        RemoveEdge,
        UpdateText,
        coerce_mutation,
        coerce_mutations,
        mutation_from_dict,
        mutation_to_dict,
    )
    from repro.live.overlay import OverlayGraph, OverlayIndex

__all__ = [
    "AddEdge",
    "AddNode",
    "Epoch",
    "MutableDataset",
    "Mutation",
    "MutationOutcome",
    "MutationResult",
    "OverlayGraph",
    "OverlayIndex",
    "RemoveEdge",
    "UpdateText",
    "coerce_mutation",
    "coerce_mutations",
    "mutation_from_dict",
    "mutation_to_dict",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    dataset="Epoch MutableDataset MutationOutcome",
    mutations=(
        "AddEdge AddNode Mutation MutationResult RemoveEdge UpdateText coerce_mutation "
        "coerce_mutations mutation_from_dict mutation_to_dict"
    ),
    overlay="OverlayGraph OverlayIndex",
)
