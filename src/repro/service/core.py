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
* the **request front**: :meth:`ServiceCore.search_many` (a tier's
  ``search`` is a batch of one) normalises arguments, answers malformed
  items in their slots, anchors each deadline at submission and
  collects in order, over two tier hooks — ``_submit(request, token)``
  starts a request (or answers it at once) and ``_await(request,
  handle, deadline)`` settles it;
* the **response builders** for structured errors, deadline misses and
  malformed items, and :meth:`ServiceCore._settle`, which harvests the
  explain report and feeds the slow-query log for every finished
  request;
* the **verbs**: ``cancel``, ``trace``, ``slow_queries``, ``explain``,
  ``slo_status``, ``wal_seqs`` read the state above; ``events`` and
  ``query_stats`` merge one part per process — one on the thread tier,
  the supervisor's plus every worker's on the fleet.  A merge of one
  part is the part (``tests/service/test_facade_surface.py``), so there
  is no single-process special case.

What is *not* here is what the substrates do differently: running a
search, registering datasets, committing mutations, ``metrics()``'s
fleet sections, ``close()``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from repro.core.answer import SearchResult
from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.core.query import ALGORITHM_NAMES, parse_query
from repro.errors import DeadlineExceededError
from repro.service.metrics import ServiceMetrics
from repro.telemetry.accounting import (
    ExplainStore,
    WorkloadAnalytics,
    merge_sketch_exports,
    query_fingerprint,
)
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import SloEngine, SloObjective, default_objectives
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.trace import Tracer
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


class ServiceCore:
    """Serving state and verbs shared by both tiers (module docstring).

    Subclasses provide ``search`` over :meth:`search_many`'s hooks
    ``_submit`` / ``_await`` (the execution substrate), ``_logs``,
    ``metrics``, ``health``, ``datasets`` and ``close``, and may extend
    ``_gather`` / ``_pull_events`` / ``_account`` with what other
    processes contribute.

    Retention is fixed: the structures size themselves (128 slow
    queries, 128 explain reports, a 64-row workload sketch, a 2048-sample
    latency window) except where the tiers differ, which the two
    capacities below state.
    """

    #: Traces the tracer's store retains.
    TRACE_CAPACITY = 256
    #: Ring size of the structured event log.
    EVENT_LOG_CAPACITY = 512
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
        cancel_grace: float,
        tracing: bool,
        slow_query_threshold: Optional[float],
        slo_objectives: Optional[Sequence[SloObjective]],
        accounting: bool,
    ) -> None:
        if cancel_grace < 0:
            raise ValueError(f"cancel_grace must be >= 0, got {cancel_grace!r}")
        self._cancel_grace = cancel_grace
        self.event_log = EventLog(self.EVENT_LOG_CAPACITY)
        self.registry = MetricsRegistry()
        self._metrics = ServiceMetrics(self.registry)
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
        self._active_lock = threading.Lock()
        #: ``request_id -> canceller`` for every cancellable in-flight
        #: request; see :meth:`cancel`.
        self._active: dict[str, Callable[[], object]] = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the request front
    # ------------------------------------------------------------------
    def _account(self, response: QueryResponse) -> None:
        """Tier-level accounting of a response :meth:`search_many` hands
        back.  Nothing here: a service counts each request where it
        runs."""

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

        Two tier hooks do the work: ``_submit(request, token)`` starts
        a request and returns an opaque handle — or a
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
        handles = [
            self._submit(item, token) if isinstance(item, QueryRequest) else item
            for item in prepared
        ]
        responses: list[QueryResponse] = []
        for item, handle in zip(prepared, handles):
            if isinstance(handle, QueryResponse):
                response = handle  # malformed, or answered at submission
            else:
                deadline = (
                    submitted + item.timeout if item.timeout is not None else None
                )
                response = self._await(item, handle, deadline)
            self._account(response)
            responses.append(response)
        return responses

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
        with an attached (writable) log — the tier's ``_logs()``, a
        dict that a registration attaching or detaching a log beside
        this read cannot disturb."""
        return {name: log.last_seq for name, log in sorted(self._logs().items())}

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
