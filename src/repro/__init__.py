"""repro — reproduction of "Bidirectional Expansion For Keyword Search on
Graph Databases" (Kacholia et al., VLDB 2005; the BANKS-II paper).

Public API highlights
---------------------
:class:`~repro.core.engine.KeywordSearchEngine`
    One-call facade: database -> graph + prestige + index -> search.
:class:`~repro.core.bidirectional.BidirectionalSearch`
    The paper's algorithm (incoming + outgoing iterators, spreading
    activation, bounded top-k output).
:class:`~repro.core.backward_si.SingleIteratorBackwardSearch`,
:class:`~repro.core.backward_mi.BackwardExpandingSearch`
    The SI-/MI-Backward baselines of Sections 3 and 4.6.
:mod:`repro.sparse`
    The candidate-network Sparse baseline (Hristidis et al.).
:mod:`repro.datasets`
    Synthetic DBLP/IMDB/US-Patent-shaped databases.
:mod:`repro.service`
    Deployment layer: :class:`~repro.service.QueryService` engine
    registry, LRU+TTL result cache, concurrent batch execution with
    per-request deadlines, disk snapshots and exported metrics.
    Deadlines are enforced by cooperative cancellation
    (:class:`~repro.core.cancellation.CancellationToken` threaded
    through every search loop): an expired or explicitly cancelled
    query stops within a couple of check intervals, frees its worker,
    and can return the answers released so far as a ``complete=False``
    partial result.
:mod:`repro.cluster`
    Multi-core scale-out: :class:`~repro.cluster.ShardedQueryService`
    dispatches the same ``search`` / ``search_many`` facade over a
    supervised pool of snapshot-warmed worker processes (deterministic
    shard routing, replica fan-out, restart-on-crash with structured
    error responses, merged cluster metrics) plus a stdlib HTTP
    front-end (``repro.cluster.http``).
:mod:`repro.live`
    Live mutation subsystem: :class:`~repro.live.MutableDataset`
    applies structured mutations (``add_node`` / ``add_edge`` /
    ``remove_edge`` / ``update_text``) as copy-on-write overlays over
    the frozen graph + index, committing monotone-versioned MVCC
    epochs — in-flight searches keep their epoch, the service tiers
    key result caches by version, and ``ShardedQueryService.apply``
    broadcasts commits to every replica without a process restart.
:mod:`repro.wal`
    Durability: a per-dataset append-only mutation log
    (:class:`~repro.wal.MutationLog`) journaling every commit
    write-ahead, with crash-recovery replay — a kill-9'd process or
    replica recovers to exactly the last durable epoch
    (``QueryService.attach_wal``, ``ShardedQueryService(wal_dir=...)``,
    :meth:`~repro.live.MutableDataset.replay`).
:mod:`repro.experiments`
    Harness regenerating every table and figure of Section 5
    (``python -m repro.experiments --list``).

Re-exports are lazy (:mod:`repro._lazy`): a process imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        ALGORITHMS,
        AnswerTree,
        BackwardExpandingSearch,
        BidirectionalSearch,
        CancellationToken,
        DEFAULT_PARAMS,
        KeywordSearchEngine,
        OutputAnswer,
        SearchParams,
        SearchResult,
        SearchStats,
        Scorer,
        SingleIteratorBackwardSearch,
        exhaustive_answers,
        parse_query,
    )
    from repro.cluster import ShardedQueryService
    from repro.errors import (
        ClusterError,
        DeadlineExceededError,
        EmptyQueryError,
        KeywordNotFoundError,
        MutationError,
        PoolClosedError,
        ReproError,
        SearchCancelledError,
        ServiceError,
        SnapshotError,
        UnknownDatasetError,
        WalError,
        WorkerCrashedError,
    )
    from repro.graph import (
        DataGraph,
        SearchGraph,
        build_data_graph,
        build_search_graph,
        compute_prestige,
    )
    from repro.index import InvertedIndex, build_index, tokenize
    from repro.live import (
        AddEdge,
        AddNode,
        MutableDataset,
        RemoveEdge,
        UpdateText,
    )
    from repro.relational import Database, ForeignKey, Schema, Table
    from repro.render import render_result, render_tree
    from repro.service import (
        QueryRequest,
        QueryResponse,
        QueryService,
        ResultCache,
        load_snapshot,
        save_snapshot,
    )

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ALGORITHMS",
    "AnswerTree",
    "BackwardExpandingSearch",
    "BidirectionalSearch",
    "CancellationToken",
    "DEFAULT_PARAMS",
    "KeywordSearchEngine",
    "OutputAnswer",
    "SearchParams",
    "SearchResult",
    "SearchStats",
    "Scorer",
    "SingleIteratorBackwardSearch",
    "exhaustive_answers",
    "parse_query",
    "ClusterError",
    "DeadlineExceededError",
    "EmptyQueryError",
    "KeywordNotFoundError",
    "MutationError",
    "PoolClosedError",
    "ReproError",
    "SearchCancelledError",
    "ServiceError",
    "ShardedQueryService",
    "SnapshotError",
    "UnknownDatasetError",
    "WalError",
    "WorkerCrashedError",
    "DataGraph",
    "SearchGraph",
    "build_data_graph",
    "build_search_graph",
    "compute_prestige",
    "InvertedIndex",
    "build_index",
    "tokenize",
    "AddEdge",
    "AddNode",
    "MutableDataset",
    "RemoveEdge",
    "UpdateText",
    "Database",
    "ForeignKey",
    "Schema",
    "Table",
    "render_result",
    "render_tree",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ResultCache",
    "load_snapshot",
    "save_snapshot",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    core=(
        "ALGORITHMS AnswerTree BackwardExpandingSearch BidirectionalSearch "
        "CancellationToken DEFAULT_PARAMS KeywordSearchEngine OutputAnswer "
        "SearchParams SearchResult SearchStats Scorer SingleIteratorBackwardSearch "
        "exhaustive_answers parse_query"
    ),
    cluster="ShardedQueryService",
    errors=(
        "ClusterError DeadlineExceededError EmptyQueryError KeywordNotFoundError "
        "MutationError PoolClosedError ReproError SearchCancelledError ServiceError "
        "SnapshotError UnknownDatasetError WalError WorkerCrashedError"
    ),
    graph="DataGraph SearchGraph build_data_graph build_search_graph compute_prestige",
    index="InvertedIndex build_index tokenize",
    live="AddEdge AddNode MutableDataset RemoveEdge UpdateText",
    relational="Database ForeignKey Schema Table",
    render="render_result render_tree",
    service=(
        "QueryRequest QueryResponse QueryService ResultCache load_snapshot "
        "save_snapshot"
    ),
)
