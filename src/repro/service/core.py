"""``ServiceCore``: the serving verbs, written once for both tiers.

A query service is one core on one of two execution substrates.
:class:`~repro.service.QueryService` runs searches on threads in this
process; :class:`~repro.cluster.ShardedQueryService` ships them to
worker processes, each of which is itself a ``QueryService``.  What a
caller sees — :class:`QueryRequest` in, :class:`QueryResponse` out, and
the introspection verbs behind the HTTP front-end's ``/debug/*`` routes
— is the same on both, so it lives here:

* the **per-process serving state**: event log, metrics registry and
  its request-path recorder, WAL telemetry, tracer, slow-query log,
  explain store, SLO engine, and the map of cancellable in-flight
  requests;
* the **request front**: :meth:`ServiceCore.search` (a batch of one,
  unless the tier answers it inline) and :meth:`ServiceCore.search_many`
  normalise arguments, answer malformed items in their slots, anchor
  each deadline at submission and collect in order, over two tier
  hooks — ``_submit(request, token)`` starts a request (or answers it
  at once) and ``_await(request, handle, deadline)`` settles it;
* the **result cache**, one per service, in front of both hooks: a hit
  is answered before ``_submit`` and a complete answer is put after
  ``_await``, keyed at the dataset's ``(generation, version)`` (tier
  hook ``_cache_state``) and only when the answer was computed there;
* the **response builders** for structured errors, deadline misses and
  malformed items, and :meth:`ServiceCore._settle`, which harvests the
  explain report and feeds the slow-query log for every finished
  request;
* the **mutation log's one owner**: a ``{dataset: MutationLog}`` map
  and one mutation lock per dataset, which ``apply``, :meth:`reload`
  (over one tier hook, ``_swap_snapshot``) and the log attach hold on
  both tiers, the one lineage rule they follow (``_continue_lineage``)
  and the one tip rule ``health()``'s ``wal_behind`` reads
  (``_wal_tips``);
* the **verbs**: ``cancel``, ``trace``, ``slow_queries``, ``explain``,
  ``slo_status``, ``wal_seqs`` read the state above; ``events``,
  ``query_stats`` and ``metrics`` merge one part per process — one on
  the thread tier, the supervisor's plus every worker's on the fleet.
  A merge of one part is the part (``test_facade_surface.py``), so
  there is no single-process special case; ``warmup``,
  ``dataset_versions`` and ``health`` read one per-replica state pull,
  the tier hook ``_replica_states`` (one replica, ``"local"``, on the
  thread tier; one ``state`` message per worker on the fleet);
* the **SLO ticker**, evaluating the objectives on both tiers.

What is *not* here is what the substrates do differently: running a
search (the hooks above), registering datasets, a commit's write-ahead
order (stage then journal here; journal, broadcast, roll back a batch
every replica rejected on the fleet), ``close()``.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from repro.core.answer import SearchResult
from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.core.query import ALGORITHM_NAMES, parse_query
from repro.errors import DeadlineExceededError, UnknownDatasetError, WalError
from repro.service.cache import ResultCache, canonical_cache_key
from repro.service.metrics import ServiceMetrics, family_values, metrics_view
from repro.service.snapshot_header import snapshot_info
from repro.telemetry.accounting import (
    ExplainStore,
    WorkloadAnalytics,
    merge_sketch_exports,
    query_fingerprint,
)
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry, merge_registries, strip_samples
from repro.telemetry.slo import SloEngine, SloObjective, default_objectives
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.trace import Tracer
from repro.wal.log import MutationLog
from repro.wal.telemetry import WalTelemetry

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "ServiceCore",
    "coerce_request",
    "normalize_search_args",
    "request_fingerprint",
]


@dataclass(frozen=True)
class QueryRequest:
    """One keyword query addressed to a registered dataset.

    Attributes
    ----------
    dataset:
        Registry name the query runs against.
    query:
        Query string or keyword sequence (sequences are normalized to
        tuples so requests stay hashable).
    algorithm:
        ``"bidirectional"`` (default), ``"si-backward"`` or
        ``"mi-backward"``.
    k:
        Top-k override; folded into the effective params before caching
        so ``k=10`` via either spelling shares a cache entry.
    params:
        Full :class:`SearchParams` override (defaults to the engine's).
    timeout:
        Per-request deadline in seconds, measured from when the request
        is handed to the executor.
    deadline_ms:
        The same deadline in milliseconds — the spelling HTTP clients
        think in.  Normalized into ``timeout`` at construction (the
        canonical field; ``deadline_ms`` reads None afterwards); setting
        both is an error.
    use_cache:
        Set False to force a fresh search (the result still refreshes
        the cache for later callers).
    allow_partial:
        When the deadline fires (or the request is cancelled), attach
        the bound-certified answers the search had already released to
        the error response (``result.complete`` is False).  Default
        False: an expired query returns only the structured error.
    explain:
        Run the query with the engine's explain mode on: the response's
        ``result.explain`` carries the structured report (seed
        resolution, sampled expansion timeline, per-answer score
        decomposition) and the service retains it in its bounded
        explain store, keyed by ``request_id``.  Explain requests bypass
        the cache *read* (a cached result has no report to attach) but
        still refresh the cache with a report-stripped copy.
    request_id:
        Optional caller-chosen id making the request cancellable
        mid-flight via ``cancel(request_id)`` on either service tier
        (and ``DELETE /search/<id>`` over HTTP).
    trace_id:
        Trace this request belongs to.  Minted at the outermost layer
        that sees the request (the HTTP front door, the cluster
        supervisor, or the service itself when absent) and echoed on
        the response; all spans the request produces share it.
    parent_span_id:
        Span id the executing service should parent its ``worker`` span
        under — how the supervisor's ``route`` span and the worker
        process's spans join into one tree.
    """

    dataset: str
    query: Union[str, tuple[str, ...]]
    algorithm: str = "bidirectional"
    k: Optional[int] = None
    params: Optional[SearchParams] = None
    timeout: Optional[float] = None
    deadline_ms: Optional[float] = None
    use_cache: bool = True
    allow_partial: bool = False
    explain: bool = False
    request_id: Optional[str] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.query, (str, tuple)):
            object.__setattr__(self, "query", tuple(self.query))
        if self.algorithm not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{sorted(ALGORITHM_NAMES)}"
            )
        if self.deadline_ms is not None:
            if self.timeout is not None:
                raise ValueError(
                    "set timeout (seconds) or deadline_ms (milliseconds), "
                    "not both"
                )
            object.__setattr__(self, "timeout", self.deadline_ms / 1000.0)
            object.__setattr__(self, "deadline_ms", None)
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")


@dataclass
class QueryResponse:
    """Outcome of one request: a result, or a structured error.

    The one case carrying both: a deadline-expired or cancelled request
    with ``allow_partial=True`` keeps its error fields *and* attaches
    the partial result (``result.complete`` is False) — the paper's
    anytime semantics surfaced at the service boundary.

    ``request`` is None only when the raw batch item was too malformed
    to build a :class:`QueryRequest` at all (unknown algorithm, wrong
    shape) — the error fields then carry the construction failure.
    """

    request: Optional[QueryRequest]
    result: Optional[SearchResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    cached: bool = False
    elapsed: float = 0.0
    #: Echo of ``request.request_id`` — present on every path (success,
    #: error, deadline, cancel) so callers correlate without keeping the
    #: request object around.
    request_id: Optional[str] = None
    #: The trace this response belongs to (minted by the executing
    #: service when the request carried none); key into
    #: ``service.trace(...)`` / ``GET /debug/trace/<id>``.
    trace_id: Optional[str] = None
    #: Finished span dicts produced while executing this request — how
    #: spans cross the worker→supervisor process boundary (the
    #: supervisor ingests and clears them).
    spans: Optional[list] = field(default=None, repr=False)
    #: The original exception object, for in-process callers that want
    #: exception semantics back (``error``/``error_type`` carry the
    #: wire-friendly view; a deadline miss has no exception object).
    exception: Optional[BaseException] = field(default=None, repr=False)
    #: The dataset version the answer was computed at (a hit's: the
    #: version its entry was keyed at); None when no search ran.  Set by
    #: the service that answered and carried on the wire, so a fleet
    #: supervisor caches a worker's answer only at its current version.
    dataset_version: Optional[int] = field(default=None, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_error(self) -> "QueryResponse":
        """Re-raise the recorded error (for callers preferring exceptions)."""
        if self.exception is not None:
            raise self.exception
        if self.error is not None:
            described = (
                f"query {self.request.query!r} on {self.request.dataset!r}"
                if self.request is not None
                else "malformed request"
            )
            message = f"{described} failed: [{self.error_type}] {self.error}"
            if self.error_type == DeadlineExceededError.__name__:
                raise DeadlineExceededError(message)
            raise RuntimeError(message)
        return self


def coerce_request(
    request, *, default_timeout: Optional[float] = None
) -> QueryRequest:
    """Normalize one batch item into a :class:`QueryRequest`.

    Accepts a prepared request (given ``default_timeout``, a request
    without its own deadline picks it up) or a ``(dataset, query[,
    algorithm])`` tuple.  Raises on anything else —
    :meth:`ServiceCore.search_many` turns the exception into a
    structured error response in the item's slot.
    """
    if isinstance(request, QueryRequest):
        if request.timeout is None and default_timeout is not None:
            return replace(request, timeout=default_timeout)
        return request
    dataset, query, *rest = request
    if len(rest) > 1:
        raise ValueError(
            f"batch tuple must be (dataset, query[, algorithm]), got "
            f"{len(rest) + 2} elements — build a QueryRequest for more knobs"
        )
    return QueryRequest(
        dataset=dataset,
        query=query if isinstance(query, str) else tuple(query),
        algorithm=rest[0] if rest else "bidirectional",
        timeout=default_timeout,
    )


def normalize_search_args(
    dataset: Union[str, QueryRequest],
    query: Optional[Union[str, Sequence[str]]],
    *,
    algorithm: str,
    k: Optional[int],
    params,
    timeout: Optional[float],
    use_cache: bool,
) -> QueryRequest:
    """Resolve ``search``'s dual calling convention to one request.

    Both tiers accept either a prepared :class:`QueryRequest` or the
    ``(dataset, query, ...)`` shorthand — not both: keyword overrides
    alongside a request object would be silently shadowed by the
    request's own fields, so they are rejected.
    """
    if isinstance(dataset, QueryRequest):
        overrides = (
            query is not None
            or algorithm != "bidirectional"
            or k is not None
            or params is not None
            or timeout is not None
            or use_cache is not True
        )
        if overrides:
            raise ValueError(
                "pass either a QueryRequest or (dataset, query, ...) "
                "keywords, not both — the request object already fixes "
                "those fields"
            )
        return dataset
    if query is None:
        raise ValueError("query is required when dataset is a name")
    return QueryRequest(
        dataset=dataset,
        query=query if isinstance(query, str) else tuple(query),
        algorithm=algorithm,
        k=k,
        params=params,
        timeout=timeout,
        use_cache=use_cache,
    )


def request_fingerprint(request: QueryRequest) -> str:
    """Canonical workload fingerprint for a request.

    Normalizes through the engine's own query parser so
    ``"beer wine"`` and ``("Wine", "beer")`` collapse to one
    fingerprint, then folds in the algorithm and the shape-affecting
    knobs (``k`` plus any explicit params override).  Used as the
    aggregation key of the workload sketch and stamped onto slow-log
    entries.
    """
    try:
        terms = parse_query(request.query)
    except Exception:
        terms = (str(request.query),)
    return query_fingerprint(
        terms,
        algorithm=request.algorithm,
        params={
            "k": request.k,
            "params": asdict(request.params) if request.params else None,
        },
    )


#: Result-cache generations: one per registration (a fleet's: per
#: reload), since versions repeat across them.
GENERATIONS = itertools.count(1)


def _slo_ticker(owner: weakref.ref, stop: threading.Event, interval: float) -> None:
    """Evaluate ``owner``'s SLOs every ``interval`` seconds until ``stop``
    is set or the service is gone (held weakly, as the collectors are)."""
    while not stop.wait(interval):
        service = owner()
        if service is None:
            return
        try:
            service.slo.evaluate()
        except Exception:  # pragma: no cover - defensive
            pass
        del service


class ServiceCore:
    """Serving state and verbs shared by both tiers (module docstring).

    Subclasses provide :meth:`search_many`'s hooks ``_submit`` /
    ``_await`` (the execution substrate), the cache's ``_cache_state``,
    :meth:`reload`'s ``_swap_snapshot``, the per-replica state pull
    ``_replica_states``, ``datasets`` and ``close``, and may extend ``_search_one`` /
    ``_gather`` / ``_pull_events`` / ``_worker_exports`` /
    ``_cluster_section`` / ``_liveness`` / ``_account`` with what their
    substrate does differently or other processes contribute.

    Retention is fixed: the structures size themselves (128 slow
    queries, 128 explain reports, a 64-row workload sketch, a 2048-sample
    latency window) except where the tiers differ, which the two
    capacities below state.
    """

    #: Traces the tracer's store retains.
    TRACE_CAPACITY = 256
    #: Ring size of the structured event log.
    EVENT_LOG_CAPACITY = 512
    #: ``source`` of the commit and reload events this tier emits.
    EVENT_SOURCE = "service"
    #: Seconds a deadline-missed ``allow_partial`` request waits for the
    #: cancelled search to hand back what it has before settling for a
    #: bare deadline error.  Cooperative checks make that milliseconds;
    #: the grace only matters for a search stuck between checks.
    CANCEL_GRACE = 1.0
    #: Seconds :meth:`warmup` and the fleet's ``reload`` wait for every
    #: replica's load: a hung filesystem read raises, never blocks.
    LOAD_TIMEOUT = 300.0
    #: Seconds :meth:`dataset_versions` and :meth:`health` wait for each
    #: replica's state; one too busy to answer reads None.
    VERSIONS_TIMEOUT = 2.0
    #: Seconds between the SLO ticker's evaluations.
    SLO_INTERVAL = 5.0
    #: Whether this service keeps a result cache.  A fleet worker's does
    #: not: its supervisor's sits in front of routing
    #: (:mod:`repro.cluster.worker`).
    RESULT_CACHE = True
    #: Request / error / latency families the SLO objectives read: the
    #: per-algorithm request-path counters every service records.
    SLO_FAMILIES = (
        "repro_requests_total",
        "repro_errors_total",
        "repro_request_latency_seconds",
    )

    def __init__(
        self,
        *,
        cache_capacity: int,
        cache_ttl: Optional[float],
        tracing: bool,
        slow_query_threshold: Optional[float],
        slo_objectives: Optional[Sequence[SloObjective]],
        accounting: bool,
    ) -> None:
        self.event_log = EventLog(self.EVENT_LOG_CAPACITY)
        self.registry = MetricsRegistry()
        self._metrics = ServiceMetrics(self.registry)
        #: The result cache; None where :attr:`RESULT_CACHE` is off.
        self.cache: Optional[ResultCache] = None
        if self.RESULT_CACHE:
            self.cache = ResultCache(cache_capacity, cache_ttl)
            self._register_cache_collector()
        self._wal_telemetry = WalTelemetry(self.registry, self.event_log)
        self.tracer: Optional[Tracer] = (
            Tracer(self.TRACE_CAPACITY) if tracing else None
        )
        self.slow_log = SlowQueryLog(slow_query_threshold)
        # Retained explain reports.  ``accounting=False`` is the control
        # arm of ``benchmarks/bench_telemetry_overhead.py``.
        self.explain_store: Optional[ExplainStore] = (
            ExplainStore() if accounting else None
        )
        #: Heavy-hitter sketch of cost/latency per query fingerprint —
        #: kept only by a process that runs searches (the thread tier
        #: sets it; a fleet supervisor merges its workers').
        self.analytics: Optional[WorkloadAnalytics] = None
        objectives = (
            default_objectives() if slo_objectives is None else tuple(slo_objectives)
        )
        self.slo: Optional[SloEngine] = None
        if objectives:
            requests, errors, latency = self.SLO_FAMILIES
            self.slo = SloEngine(
                objectives,
                source=self.registry.export,
                registry=self.registry,
                event_log=self.event_log,
                request_family=requests,
                error_family=errors,
                latency_family=latency,
            )
        self._slo_stop = threading.Event()
        self._slo_thread = threading.Thread(
            target=_slo_ticker,
            args=(weakref.ref(self), self._slo_stop, self.SLO_INTERVAL),
            name="repro-slo-ticker",
            daemon=True,
        )
        if self.slo is not None:
            self._slo_thread.start()
        self._active_lock = threading.Lock()
        #: ``request_id -> canceller`` for every cancellable in-flight
        #: request; see :meth:`cancel`.
        self._active: dict[str, Callable[[], object]] = {}
        #: Attached writable logs, and one lock per dataset (a slow
        #: replica of one dataset never serializes another's applies).
        self._wal_lock = threading.Lock()
        self._wals: dict[str, MutationLog] = {}
        self._mutate_locks: dict[str, threading.RLock] = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stop_slo(self) -> None:
        """Stop the SLO ticker; every tier's ``close`` calls this."""
        self._slo_stop.set()
        if self._slo_thread.is_alive():
            self._slo_thread.join(timeout=1.0)

    def _register_cache_collector(self) -> None:
        """Declare the result cache's families, filled at export time
        from ``self.cache.stats()`` (held weakly: a strong capture in
        its own registry would make the service cyclic garbage)."""
        registry, owner = self.registry, weakref.ref(self)
        gauges = {
            "size": registry.gauge("repro_cache_entries", "Result cache entries held"),
            "capacity": registry.gauge("repro_cache_capacity", "Result cache capacity"),
            "ttl": registry.gauge(
                "repro_cache_ttl_seconds",
                "Result cache entry time-to-live (no sample: entries never expire)",
                merge="max",
            ),
        }
        counters = {
            stat: registry.counter(f"repro_cache_{name}_total", f"Result cache {help}")
            for stat, name, help in (
                ("hits", "lookup_hits", "lookups that found a live entry"),
                ("misses", "lookup_misses", "lookups that found no live entry"),
                ("evictions", "evictions", "LRU evictions"),
                ("expirations", "expirations", "TTL expirations"),
            )
        }

        def collect() -> None:
            service = owner()
            if service is None:
                return
            stats = service.cache.stats()
            for stat, gauge in gauges.items():
                if stats[stat] is not None:
                    gauge.set(stats[stat])
            for stat, counter in counters.items():
                counter.set_total(stats[stat])

        registry.add_collector(collect)

    # ------------------------------------------------------------------
    # the request front
    # ------------------------------------------------------------------
    def _account(self, response: QueryResponse) -> None:
        """Tier-level accounting of a response :meth:`search_many` hands
        back.  Nothing here: a service counts each request where it
        runs."""

    def search(
        self,
        dataset: Union[str, QueryRequest],
        query: Optional[Union[str, Sequence[str]]] = None,
        *,
        algorithm: str = "bidirectional",
        k: Optional[int] = None,
        params: Optional[SearchParams] = None,
        timeout: Optional[float] = None,
        use_cache: bool = True,
        token: Optional[CancellationToken] = None,
    ) -> QueryResponse:
        """Execute one query synchronously.

        Accepts either a prepared :class:`QueryRequest` or the
        ``(dataset, query, ...)`` shorthand — not both
        (:func:`normalize_search_args`).  ``token`` is an optional
        caller-owned :class:`CancellationToken`, composed with the
        deadline token the thread tier arms itself; the fleet refuses
        one (it cannot cross a process boundary — give the request a
        ``request_id`` and use :meth:`cancel`).
        """
        request = normalize_search_args(
            dataset,
            query,
            algorithm=algorithm,
            k=k,
            params=params,
            timeout=timeout,
            use_cache=use_cache,
        )
        return self._search_one(request, token)

    def _search_one(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> QueryResponse:
        """:meth:`search`'s hook: one request as a batch of one.  The
        thread tier answers a request without a deadline on the
        caller's thread instead."""
        return self.search_many([request], token=token)[0]

    def search_many(
        self,
        requests: Sequence[Union[QueryRequest, tuple]],
        *,
        timeout: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> list[QueryResponse]:
        """Execute a batch concurrently; responses in request order.

        ``requests`` holds :class:`QueryRequest` objects or ``(dataset,
        query)`` / ``(dataset, query, algorithm)`` tuples.  ``timeout``
        is a default per-request deadline for requests without their
        own; each deadline is measured from batch submission — time
        spent queueing (or waiting out a worker respawn) counts against
        the caller's budget.  The whole batch is submitted before any
        response is awaited, so requests overlap (threads) or run in
        parallel (shards).  A shared ``token`` cancels the whole batch
        at once (thread tier; a token cannot cross a process boundary).

        A cache hit is answered before any hook runs.  Otherwise two
        tier hooks do the work: ``_submit(request, token)`` starts a
        request and returns an opaque handle — or a
        :class:`QueryResponse` when the tier can answer at once (an
        unroutable dataset, a dead shard) — and ``_await(request,
        handle, deadline)`` settles it, ``deadline`` being a
        ``time.monotonic`` instant or None.

        Never raises per-item: a malformed item (unknown algorithm,
        wrong shape) yields an error response in its slot and the rest
        of the batch still runs.
        """
        prepared: list[Union[QueryRequest, QueryResponse]] = []
        for raw in requests:
            try:
                prepared.append(coerce_request(raw, default_timeout=timeout))
            except Exception as exc:
                prepared.append(self._malformed_response(exc))
        submitted = time.monotonic()
        started = [
            self._start(item, token) if isinstance(item, QueryRequest) else (None, item)
            for item in prepared
        ]
        responses: list[QueryResponse] = []
        for item, (key, handle) in zip(prepared, started):
            if isinstance(handle, QueryResponse):
                response = handle  # malformed, a hit, or answered at submission
            else:
                deadline = (
                    submitted + item.timeout if item.timeout is not None else None
                )
                response = self._await(item, handle, deadline)
            responses.append(self._finish(item, key, response))
        return responses

    def _start(self, request: QueryRequest, token: Optional[CancellationToken]):
        """``(key, handle)``: ``request``'s cache key, and its cached
        answer or what the tier's ``_submit`` returned."""
        key = self._cache_key(request)
        hit = self._hit(request, key)
        return key, hit if hit is not None else self._submit(request, token)

    def _finish(self, request, key, response: QueryResponse) -> QueryResponse:
        if key is not None and not response.cached:
            self._remember(request, key, response)
        self._account(response)
        return response

    # ------------------------------------------------------------------
    # the result cache, in front of both hooks
    # ------------------------------------------------------------------
    def _cache_state(self, name: str) -> tuple[SearchParams, tuple[int, int]]:
        """``name``'s default params and ``(generation, version)``, what
        its cache keys embed; raises ``UnknownDatasetError``."""
        raise NotImplementedError

    def _cache_key(self, request: QueryRequest) -> Optional[tuple]:
        """``request``'s cache key at its dataset's current state (``k``
        folded into the effective params); None without a cache, or when
        no key fits (an unknown dataset, an empty query: execution
        answers those)."""
        if self.cache is None:
            return None
        try:
            params, state = self._cache_state(request.dataset)
            params = request.params if request.params is not None else params
            if request.k is not None:
                params = params.with_(max_results=request.k)
            return canonical_cache_key(
                request.dataset, request.query, request.algorithm, params, version=state
            )
        except Exception:
            return None

    def _hit(self, request: QueryRequest, key) -> Optional[QueryResponse]:
        """The cached answer to ``request``, or None: a miss, or a
        request that skips the read (``use_cache=False``; ``explain``,
        since a cached result has no report to attach).  A hit opens one
        ``cache`` span and counts as a cached request."""
        if key is None or not request.use_cache or request.explain:
            return None
        start = time.perf_counter()
        result = self.cache.get(key)
        if result is None:
            return None
        response = QueryResponse(
            request, result, cached=True, request_id=request.request_id
        )
        response.dataset_version = version = key[-1][1]
        response.trace_id = request.trace_id
        if self.tracer is not None:
            span = self.tracer.start_span(
                "cache", trace_id=request.trace_id, parent_id=request.parent_span_id
            )
            span.attributes.update(
                dataset=request.dataset,
                algorithm=request.algorithm,
                cached=True,
                dataset_version=version,
            )
            if request.request_id is not None:
                span.set_attribute("request_id", request.request_id)
            response.trace_id = span.end().trace_id
        response.elapsed = time.perf_counter() - start
        self._metrics.record_request(request.algorithm, response.elapsed, cached=True)
        self._settle(request, response)
        return response

    def _remember(self, request: QueryRequest, key, response: QueryResponse) -> None:
        """Put a complete, ok answer under ``key`` — report-stripped —
        when it was computed at the version ``key`` names and that is
        still the dataset's: an answer from a replica behind the log's
        tip, or one that raced a commit or a reload, never fills a
        current key."""
        result = response.result
        if (
            not response.ok
            or result is None
            or not result.complete
            or response.dataset_version != key[-1][1]
            or self._cache_state(request.dataset)[1] != key[-1]
        ):
            return
        self.cache.put(
            key, replace(result, explain=None) if result.explain is not None else result
        )

    def _shred(self, name: str, keep: Optional[tuple[int, int]] = None) -> int:
        """Drop ``name``'s cached answers but those keyed at ``keep``;
        returns how many.  Capacity hygiene only: a key naming another
        generation or version is unreachable already.  Dropping them all
        (a replaced registration, a reload, a replay) is an operational
        event: the dataset just lost its warm cache."""
        if self.cache is None:
            return 0
        purged = self.cache.purge(lambda key: key[0] == name and key[-1] != keep)
        if keep is None:
            self.event_log.emit(
                "cache_shred",
                f"purged {purged} cached result(s) for {name!r}: its state was "
                f"replaced",
                severity="info",
                dataset=name,
                source=self.EVENT_SOURCE,
                purged=purged,
            )
        return purged

    def cancel(self, request_id: str) -> bool:
        """Cancel an in-flight request by its ``QueryRequest.request_id``.

        The running search stops at its next cooperative check (a
        request still queued never starts) and its response comes back
        through the normal path (``error_type="SearchCancelledError"``,
        carrying partial answers when the request set
        ``allow_partial``).  Returns True if a live request with that
        id was found.
        """
        with self._active_lock:
            canceller = self._active.get(request_id)
        # Only a canceller that finds its request already settled
        # answers False; a token's ``cancel`` answers nothing.
        return canceller is not None and canceller() is not False

    def _track(self, request_id: str, canceller: Callable[[], object]) -> None:
        with self._active_lock:
            self._active[request_id] = canceller

    def _untrack(self, request_id: str, canceller: Callable[[], object]) -> None:
        """Forget ``request_id`` unless a newer request reused it."""
        with self._active_lock:
            if self._active.get(request_id) == canceller:
                del self._active[request_id]

    # ------------------------------------------------------------------
    # response builders
    # ------------------------------------------------------------------
    def _malformed_response(self, exc: Exception) -> QueryResponse:
        self._metrics.record_error("invalid-request", type(exc).__name__)
        return QueryResponse(
            request=None,
            error=str(exc),
            error_type=type(exc).__name__,
            exception=exc,
        )

    def _error_response(
        self,
        request: QueryRequest,
        exc: Exception,
        start: float,
        *,
        trace_id: Optional[str] = None,
        record: bool = True,
    ) -> QueryResponse:
        """The structured response for ``exc``; ``start`` is the
        ``perf_counter`` reading the request began at.  ``record=False``
        when another party already counted this request."""
        if record:
            self._metrics.record_error(request.algorithm, type(exc).__name__)
        return QueryResponse(
            request=request,
            error=str(exc),
            error_type=type(exc).__name__,
            elapsed=time.perf_counter() - start,
            exception=exc,
            request_id=request.request_id,
            trace_id=trace_id,
        )

    def _deadline_response(
        self,
        request: QueryRequest,
        fate: str,
        *,
        trace_id: Optional[str] = None,
        record: bool = True,
    ) -> QueryResponse:
        """The watcher's answer when no response arrived in time;
        ``fate`` says what becomes of the search."""
        if record:
            self._metrics.record_error(
                request.algorithm, DeadlineExceededError.__name__
            )
        return QueryResponse(
            request=request,
            error=f"deadline of {request.timeout}s exceeded ({fate})",
            error_type=DeadlineExceededError.__name__,
            elapsed=request.timeout or 0.0,
            request_id=request.request_id,
            trace_id=trace_id,
        )

    def _settle(self, request: QueryRequest, response: QueryResponse) -> None:
        """Fold one finished request into the accounting layer: the
        workload sketch, the explain store, the slow-query log.

        Cache hits are skipped in the sketch — their cost was charged
        when the result was computed; charging the hit again would
        double-count the fingerprint's resource usage (latency of hits
        is already visible in the service metrics).  The slow log dumps
        the request's span tree, so it records only under tracing.
        """
        result = response.result
        if self.analytics is not None and not response.cached:
            costs = (
                result.stats.cost_vector()
                if result is not None and result.stats is not None
                else None
            )
            self.analytics.record(
                request_fingerprint(request),
                elapsed=response.elapsed,
                costs=costs,
            )
        if (
            self.explain_store is not None
            and result is not None
            and result.explain is not None
            and request.request_id is not None
        ):
            self.explain_store.put(request.request_id, result.explain)
        threshold = self.slow_log.threshold
        if (
            threshold is None
            or response.elapsed < threshold
            or self.tracer is None
            or response.trace_id is None
        ):
            return
        self.slow_log.record(
            elapsed=response.elapsed,
            trace_id=response.trace_id,
            request={
                "dataset": request.dataset,
                "query": (
                    request.query
                    if isinstance(request.query, str)
                    else list(request.query)
                ),
                "algorithm": request.algorithm,
                "request_id": request.request_id,
            },
            error_type=response.error_type,
            span_tree=self.tracer.trace(response.trace_id),
            extra={
                "fingerprint": request_fingerprint(request),
                "explain_available": bool(
                    self.explain_store is not None
                    and request.request_id is not None
                    and self.explain_store.get(request.request_id) is not None
                ),
            },
        )

    # ------------------------------------------------------------------
    # introspection verbs over this process's state
    # ------------------------------------------------------------------
    def trace(self, trace_id: str) -> Optional[dict]:
        """The reconstructed span tree for ``trace_id`` (cross-process
        on the fleet), or None: unknown or evicted trace, or tracing
        off (``self.tracer is None`` tells the two apart)."""
        return self.tracer.trace(trace_id) if self.tracer is not None else None

    def slow_queries(self) -> list[dict]:
        """Slow-query log entries, newest first (see :class:`SlowQueryLog`)."""
        return self.slow_log.entries()

    def explain(self, request_id: str) -> Optional[dict]:
        """The retained explain report for ``request_id``, or None.

        Reports are kept in a bounded FIFO store; only requests that ran
        with ``explain=True`` (and carried a request id) leave one.
        None also when accounting is off (``self.explain_store is
        None`` tells the two apart).
        """
        if self.explain_store is None:
            return None
        return self.explain_store.get(request_id)

    def slo_status(self) -> list[dict]:
        """Evaluate the configured objectives now and return their
        status (burn rates per window, firing state).  Empty when SLOs
        are disabled (``slo_objectives=()``)."""
        return self.slo.evaluate() if self.slo is not None else []

    def wal_seqs(self) -> dict[str, int]:
        """``{dataset: last durable WAL sequence}`` for every dataset
        with an attached (writable) log."""
        return {name: log.last_seq for name, log in sorted(self._logs().items())}

    # ------------------------------------------------------------------
    # the mutation log: one map, one lock per dataset
    # ------------------------------------------------------------------
    def _mutation_lock(self, name: str):
        """The lock ordering ``name``'s commits, reloads, registrations
        and log attaches (reentrant: a reload installs under it)."""
        with self._wal_lock:
            return self._mutate_locks.setdefault(name, threading.RLock())

    def _log(self, name: str) -> Optional[MutationLog]:
        """``name``'s attached log, or None."""
        with self._wal_lock:
            return self._wals.get(name)

    def _logs(self) -> dict[str, MutationLog]:
        """Attached logs by dataset (a copy, safe to iterate)."""
        with self._wal_lock:
            return dict(self._wals)

    def _set_log(self, name: str, log: Optional[MutationLog]) -> None:
        """Attach ``log`` to ``name`` (None detaches), closing the log
        it replaces: a commit still holding that one fails loudly."""
        with self._wal_lock:
            old = self._wals.pop(name, None)
            if log is not None:
                self._wals[name] = log
        if old is not None and old is not log:
            old.close()

    def _continue_lineage(
        self,
        name: str,
        log: MutationLog,
        version: int,
        digest: Optional[str],
        *,
        reload: bool = False,
    ) -> None:
        """The one lineage rule, for both tiers: attach ``log`` to
        ``name``, continuing the snapshot served at ``version`` (the
        file's ``dataset_version``, which registering, reloading and
        restarting all serve) whose content digest is ``digest``.  A
        reload restarts the log there: its records described the
        replaced content.  An attach refuses a log that continues another
        file (:meth:`_check_lineage`), keeps the records past
        ``version`` (they replay on top) and restarts a log holding
        nothing past it.  A restart records ``digest``: the log names the
        file it continues.  Called under the dataset's mutation lock.
        """
        if not reload:
            self._check_lineage(name, log, version, digest)
        if reload or log.last_seq <= version:
            log.reset(version, snapshot=digest)
        self._set_log(name, log)

    @staticmethod
    def _check_lineage(
        name: str, log: MutationLog, version: int, digest: Optional[str]
    ) -> None:
        """Refuse a log that recorded another content digest at
        ``version``: its records are another file's commits, and without
        any the dataset was last served from that other file."""
        recorded = log.snapshot_at(version)
        if None not in (recorded, digest) and recorded != digest:
            raise WalError(
                f"the log at {log.path} continues another snapshot of "
                f"{name!r} at version {version} (content digest {recorded}, "
                f"not {digest}): register the file it was last reloaded from"
            )

    def _close_logs(self) -> None:
        for log in self._logs().values():
            log.close()

    def _note_commit(self, dataset: str, version: int, applied: int, wal_seq) -> None:
        self.event_log.emit(
            "mutation_commit",
            f"committed {applied} mutation(s) to {dataset!r} (version {version})",
            dataset=dataset,
            source=self.EVENT_SOURCE,
            version=version,
            applied=applied,
            wal_seq=wal_seq,
        )

    def _wal_tips(self) -> dict[str, int]:
        """Each attached log's last sequence, read while its dataset's
        mutation lock is free — no commit sits between its append and
        its install (or broadcast), so versions read next have seen
        every record up to the tip.  A dataset mid-commit is left out."""
        tips = {}
        for name, log in self._logs().items():
            lock = self._mutation_lock(name)
            if lock.acquire(blocking=False):
                tips[name] = log.last_seq
                lock.release()
        return tips

    # ------------------------------------------------------------------
    # reload: one body over one tier hook
    # ------------------------------------------------------------------
    def reload(self, dataset: str, path, *, force: bool = False) -> dict:
        """Hot-swap ``dataset`` to the snapshot file at ``path`` without
        a process restart, serving the file's ``dataset_version``.

        The tier's hook ``_swap_snapshot(dataset, path, header, force)``
        loads the file, swaps what it serves and returns ``(reloaded,
        workers)``; a failed load raises here, leaving the log and the
        fleet's worker specs as they were.
        Wherever the file's content digest is already served at its
        version the swap no-ops; ``force`` swaps regardless, and
        committed live mutations never no-op (reloading resets them).
        When anything swapped, the log restarts at the file's version,
        naming the file (:meth:`_continue_lineage`), so a restart — or a
        replica respawned after a crash — replays every commit
        acknowledged since.  Under the dataset's mutation lock: a racing
        commit waits, then is journalled in the new lineage.

        Returns ``{"dataset", "reloaded", "version", "digest",
        "workers"}``; ``workers`` is ``{worker_id: reloaded}`` on the
        fleet and ``{}`` on the thread tier, as ``MutationResult.workers``
        is.
        """
        path = str(path)
        info = snapshot_info(path)
        version = int(info.get("dataset_version") or 0)
        digest = info.get("content_digest")
        with self._mutation_lock(dataset):
            reloaded, workers = self._swap_snapshot(dataset, path, info, force)
            log = self._log(dataset)
            if reloaded and log is not None:
                self._continue_lineage(dataset, log, version, digest, reload=True)
            wal_seq = log.last_seq if log is not None else None
        if reloaded:
            self.event_log.emit(
                "snapshot_reload",
                f"reloaded {dataset!r} from snapshot (version {version})",
                dataset=dataset,
                source=self.EVENT_SOURCE,
                version=version,
                digest=digest,
                wal_seq=wal_seq,
            )
        return {
            "dataset": dataset,
            "reloaded": reloaded,
            "version": version,
            "digest": digest,
            "workers": workers,
        }

    # ------------------------------------------------------------------
    # per-replica state: one pull over one tier hook
    # ------------------------------------------------------------------
    def _replica_states(
        self, names: Optional[Sequence[str]], *, timeout: float, strict: bool
    ) -> dict[str, dict]:
        """``{replica: {dataset: state}}`` over ``names`` (None: all): a
        state is ``{"version", "build_seconds"}``, the replica's load
        error, or None when it did not answer within ``timeout`` (a
        ``strict`` pull raises instead)."""
        raise NotImplementedError

    def _liveness(self) -> dict:
        """The fleet's ``workers``, ``alive`` and per-worker ``restarts``."""
        return {}

    def warmup(self, names: Optional[Sequence[str]] = None) -> dict[str, float]:
        """``{dataset: build_seconds}`` for ``names`` (default: all): the
        slowest replica's snapshot load, waited for up to
        :attr:`LOAD_TIMEOUT`.  An unknown name raises
        ``UnknownDatasetError``; a load error re-raises with its type."""
        for name in set(names or ()) - set(self.datasets()):
            raise UnknownDatasetError(name)
        timings: dict[str, float] = {}
        states = self._replica_states(names, timeout=self.LOAD_TIMEOUT, strict=True)
        for held in states.values():
            for name, state in held.items():
                if isinstance(state, Exception):
                    raise state
                timings[name] = max(timings.get(name, 0.0), state["build_seconds"])
        return timings

    def dataset_versions(self) -> dict[str, dict[str, Optional[int]]]:
        """``{dataset: {replica: version}}``: None is a replica that did
        not answer within :attr:`VERSIONS_TIMEOUT` or did not load the
        dataset, so none is ever left out."""
        return self._versions(
            self._replica_states(None, timeout=self.VERSIONS_TIMEOUT, strict=False)
        )

    @staticmethod
    def _versions(states: dict[str, dict]) -> dict[str, dict[str, Optional[int]]]:
        versions: dict[str, dict[str, Optional[int]]] = {}
        for replica, held in states.items():
            for name, state in held.items():
                version = state["version"] if isinstance(state, dict) else None
                versions.setdefault(name, {})[replica] = version
        return dict(sorted(versions.items()))

    @staticmethod
    def _drift(versions: dict[str, dict]) -> list[str]:
        """The drift rule: datasets served at more than one version."""
        return [
            name for name, by in versions.items() if len(set(by.values()) - {None}) > 1
        ]

    def health(self) -> dict:
        """What ``GET /healthz`` serves (docs/OBSERVABILITY.md, "The health
        shape"): the fleet's liveness, then :meth:`dataset_versions` and
        the datasets drifting, of unknown version, ``unloaded`` by some
        replica or served behind the log's tip (:meth:`_wal_tips`)."""
        tips = self._wal_tips()
        states = self._replica_states(None, timeout=self.VERSIONS_TIMEOUT, strict=False)
        versions = self._versions(states)
        payload = self._liveness()  # after the pull, which starts a fleet
        if payload:
            payload["restarts"] = sum(payload["restarts"].values())
        payload["datasets"] = self.datasets()
        payload["versions"] = versions
        payload["version_drift"] = self._drift(versions)
        payload["version_unknown"] = [
            name for name, by in versions.items() if None in by.values()
        ]
        payload["unloaded"] = [
            name
            for name in versions
            if any(isinstance(held.get(name), Exception) for held in states.values())
        ]
        payload["wal_behind"] = [
            name
            for name, tip in sorted(tips.items())
            if any(v is not None and v < tip for v in versions.get(name, {}).values())
        ]
        wal_seqs = self.wal_seqs()
        if wal_seqs:
            payload["wal_seq"] = wal_seqs
        return payload

    # ------------------------------------------------------------------
    # verbs merged over every process's part
    # ------------------------------------------------------------------
    def _local_part(self) -> Optional[dict]:
        """This process's workload sketch export, or None with
        accounting off.  Also what a worker answers its supervisor's
        ``"queries"`` pull with."""
        return self.analytics.export() if self.analytics is not None else None

    def _gather(self) -> dict[str, dict]:
        """Every process's workload sketch export, keyed by process.
        One process here; the fleet adds its workers' replies."""
        part = self._local_part()
        return {} if part is None else {"local": part}

    def _pull_events(self) -> None:
        """Fold other processes' event logs into :attr:`event_log`
        before a read.  One process here: nothing to pull."""

    def _worker_exports(self) -> dict[int, Optional[dict]]:
        """Every worker's registry export (latency windows included), by
        worker id, None for one that did not answer.  One process here:
        none."""
        return {}

    def _cluster_section(self, exports: dict[int, Optional[dict]]) -> Optional[dict]:
        """The fleet's ``cluster`` section of :meth:`metrics` over its
        workers' ``exports``; None here."""
        return None

    def metrics(self, *, include_samples: bool = False) -> dict:
        """Latency percentiles, cache and error counters as a plain
        dict: :func:`~repro.service.metrics.metrics_view` of this
        process's registry export merged with every worker's (windows
        included, so percentiles are exact), plus the merged export
        under ``"registry"``; ``include_samples=True`` adds each
        algorithm's latency window.  ``datasets.version_drift`` applies
        :meth:`health`'s drift rule to the workers' unmerged exports.
        The fleet adds its ``cluster`` section; a worker down or slow to
        answer within :attr:`VERSIONS_TIMEOUT` is left out of the merge
        and reads None there, and a closed fleet raises
        ``PoolClosedError``.

        On the fleet a deadline-missed request counts twice: as the
        supervisor's ``DeadlineExceededError`` and by the worker when
        the abandoned search completes — the thread tier's exactly-once
        claim needs shared memory.
        """
        exports = self._worker_exports()
        answered = {w: part for w, part in exports.items() if part is not None}
        merged = merge_registries(
            [*answered.values(), self.registry.export(include_samples=True)]
        )
        view = metrics_view(merged, include_samples=include_samples)
        datasets = view.get("datasets")
        if datasets is not None:
            wal_seq = datasets.pop("wal_seq", None)
            replicas: dict[str, dict] = {}
            for worker_id, part in answered.items():
                for name, version in family_values(
                    part, "repro_dataset_version", "dataset"
                ).items():
                    replicas.setdefault(name, {})[worker_id] = version
            datasets["version_drift"] = self._drift(replicas)
            if wal_seq is not None:
                datasets["wal_seq"] = wal_seq  # keeps its place: last
        view["registry"] = strip_samples(merged)
        cluster = self._cluster_section(exports)
        if cluster is not None:
            view["cluster"] = cluster
        return view

    def events(
        self, since: int = 0, *, limit: Optional[int] = None, pull: bool = True
    ) -> dict:
        """Operational events with ``seq > since`` plus the log head:
        ``{"events": [...], "last_seq": N}`` — the polling contract
        behind ``GET /debug/events?since=<seq>``.  On the fleet, worker
        logs are pulled and re-sequenced into the stream first unless
        ``pull=False``."""
        if pull:
            self._pull_events()
        return {
            "events": self.event_log.events(since=since, limit=limit),
            "last_seq": self.event_log.last_seq,
        }

    def query_stats(self) -> dict:
        """Workload analytics: the top-K heavy-hitter sketch of
        per-fingerprint query counts, latency and cost vectors, folded
        over every replica's sketch by
        :func:`~repro.telemetry.accounting.merge_sketch_exports` — the
        mergeable-summaries combine, so counts stay over-estimates with
        known error even though each replica saw only its slice of the
        workload.  A busy or crashed replica is absent from the pull;
        empty-shaped when accounting is off.
        """
        parts = self._gather()
        if not parts:
            return {"capacity": 0, "total": 0, "floor": 0, "entries": []}
        return merge_sketch_exports(parts.values())
