"""Query service layer (production north star, ROADMAP).

A deployable tier above the single-engine library API — one core on
two execution substrates:

* :class:`~repro.service.core.ServiceCore` — the serving verbs behind
  structured :class:`QueryRequest` / :class:`QueryResponse`
  dataclasses, written once: the ``search_many`` front, ``cancel``, the
  response builders, the per-process telemetry state and the
  introspection verbs (``trace``, ``slow_queries``, ``explain``,
  ``events``, ``query_stats``, ``slo_status``, ``metrics``) and
  ``reload``.
* :class:`QueryService` — the core on threads: engine registry +
  result cache + concurrent batch executor + live mutations and their
  WAL, all in this process.  (:class:`repro.cluster.ShardedQueryService`
  is the same core over worker processes.)
* :class:`~repro.service.cache.ResultCache` — thread-safe LRU + TTL
  cache, reusable on its own.
* :mod:`repro.service.snapshot` — versioned disk format for built
  graph/prestige/index state, so restarts skip ``from_database``.
* :mod:`repro.service.metrics` — the request-path recorder
  (:class:`~repro.service.metrics.ServiceMetrics`, which writes the
  metrics registry and nothing else) and
  :func:`~repro.service.metrics.metrics_view`, the pure function that
  renders a registry export as the ``metrics()`` dict: latency
  percentiles, cache hit rate, error counters.

See ``examples/service_quickstart.py`` for the end-to-end tour.

Re-exports are lazy (:mod:`repro._lazy`): a process imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.cache import ResultCache, canonical_cache_key
    from repro.service.metrics import ServiceMetrics, metrics_view, percentile
    from repro.service.core import (
        QueryRequest,
        QueryResponse,
        ServiceCore,
        coerce_request,
    )
    from repro.service.service import QueryService
    from repro.service.snapshot import (
        SNAPSHOT_VERSION,
        load_engine,
        load_snapshot,
        save_engine,
        save_snapshot,
        snapshot_info,
    )
    from repro.service.wire import (
        request_from_dict,
        request_to_dict,
        response_from_dict,
        response_to_dict,
        result_from_dict,
        result_to_dict,
    )

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ServiceCore",
    "coerce_request",
    "request_to_dict",
    "request_from_dict",
    "response_to_dict",
    "response_from_dict",
    "result_to_dict",
    "result_from_dict",
    "ResultCache",
    "canonical_cache_key",
    "ServiceMetrics",
    "metrics_view",
    "percentile",
    "SNAPSHOT_VERSION",
    "save_snapshot",
    "load_snapshot",
    "save_engine",
    "load_engine",
    "snapshot_info",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    cache="ResultCache canonical_cache_key",
    metrics="ServiceMetrics metrics_view percentile",
    core="QueryRequest QueryResponse ServiceCore coerce_request",
    service="QueryService",
    snapshot=(
        "SNAPSHOT_VERSION load_engine load_snapshot save_engine save_snapshot "
        "snapshot_info"
    ),
    wire=(
        "request_from_dict request_to_dict response_from_dict response_to_dict "
        "result_from_dict result_to_dict"
    ),
)
