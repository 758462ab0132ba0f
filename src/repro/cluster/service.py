"""``ShardedQueryService``: the serving core on worker processes.

One core, a different execution substrate:
:class:`~repro.service.core.ServiceCore` holds the request front, the
result cache, the response builders, the telemetry state and the
introspection verbs, and :class:`~repro.service.QueryService` runs it
on threads.  This module runs it over N worker *processes*, each
holding a private snapshot-warmed ``QueryService`` — so a batch's
pure-Python search time actually divides across cores instead of
serializing on one GIL.  What is written here is what only a
supervisor does: **routing** (``_submit`` picks a replica for a cache
miss and ships the request), **fan-out** (``apply`` / ``reload``
broadcasts, and the ``state`` pull behind the core's ``warmup`` /
``dataset_versions`` / ``health``) and **fan-in**
(``_await`` re-homes the worker's spans and settles its response;
``_gather`` / ``_pull_events`` / ``_worker_exports`` collect worker
replies for the core's merged verbs, all through one
:meth:`~ShardedQueryService._collect`).

Everything crossing the process boundary is primitives, and crosses it
on the one duplex channel the pool keeps per worker
(:mod:`repro.cluster.pool`): snapshot paths as its first message,
request-shaped dicts, control messages and cancels down, response-shaped
dicts back up (:mod:`repro.service.wire`).  Placement is deterministic
(:class:`~repro.cluster.router.ShardRouter`): a dataset lives on a
fixed replica set.  Which replica serves a request is not pinned: the
one result cache sits here, in front of routing, so a request that
reaches routing missed it and no replica holds anything that would
answer it faster — a miss goes to the replica with the fewest jobs in
flight, ties to the hash of its query.

The supervisor keys its cache at each dataset's ``(generation,
version)`` without asking a replica: a broadcast reload bumps the
generation, an ``apply`` every replica acknowledged sets the version,
and a worker's answer is kept only when the version it carries back is
that one.  A broadcast that fails once sent leaves the replicas at a
state nobody acknowledged, so the dataset caches nothing until the next
``apply`` or reload succeeds.

Failure semantics extend the service contract across processes:

* a malformed request or unroutable dataset is answered supervisor-side
  as a structured error response;
* a deadline is enforced *worker-side first*: the request ships with
  its ``timeout``, the worker arms a cooperative
  :class:`~repro.core.cancellation.CancellationToken`, and the expired
  search stops within a couple of check intervals and frees the shard
  (``error_type="DeadlineExceededError"``, carrying partial answers
  when ``allow_partial``).  The supervisor still watches the clock as a
  backstop — a request that missed its deadline while *queued* is
  cancelled down its worker's channel
  (:meth:`~repro.cluster.pool.WorkerPool.cancel`) so it never occupies
  the shard at all;
* requests carrying a ``request_id`` can be stopped explicitly through
  :meth:`ShardedQueryService.cancel` (what ``DELETE /search/<id>`` and
  the HTTP disconnect watcher call) — the shard stops searching, the
  waiter gets a structured ``SearchCancelledError`` response;
* a worker crash turns its in-flight requests into
  ``error_type="WorkerCrashedError"`` responses and the pool restarts
  the worker — callers never hang, and the *next* batch is served.

Live updates (:mod:`repro.live`) propagate fleet-wide without process
restarts: :meth:`ShardedQueryService.apply` broadcasts a mutation
batch to every replica of the dataset's shard (one serialized stream,
so replicas stay bit-identical), the core's ``reload`` swaps every
replica to a snapshot file, and the core's ``dataset_versions`` /
``health`` expose per-replica versions so drift is observable.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import weakref
from concurrent.futures import Future, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.core.cancellation import CancellationToken
from repro.core.params import DEFAULT_PARAMS, SearchParams
from repro.core.query import parse_query
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    MutationError,
    PoolClosedError,
    SearchCancelledError,
    UnknownDatasetError,
    WorkerCrashedError,
)
from repro.live.mutations import MutationResult, coerce_mutations, mutation_to_dict
from repro.service.core import GENERATIONS, QueryRequest, QueryResponse, ServiceCore
from repro.service.metrics import family_total
from repro.service.snapshot_header import file_info
from repro.service.wire import request_to_dict, response_from_dict
from repro.telemetry.slo import SloObjective
from repro.telemetry.trace import new_span_id, new_trace_id
from repro.wal.log import MutationLog
from repro.cluster.pool import WorkerPool, control_error
from repro.cluster.router import ShardRouter

__all__ = ["ShardedQueryService"]


class ShardedQueryService(ServiceCore):
    """The process tier: a :class:`~repro.service.core.ServiceCore`
    that owns a shard router and a worker pool, routes each cache miss
    to a worker process and merges what the workers report.

    Parameters
    ----------
    snapshots:
        ``{dataset_name: snapshot_path}`` — every dataset a worker may
        serve must exist as a snapshot file
        (:func:`repro.service.snapshot.save_engine`); workers load from
        disk, ``from_database`` never runs in the fleet.
    num_workers:
        Process count (default: the machine's CPU count).
    default_replicas:
        Replica fan-out per dataset (see :class:`ShardRouter`).  A
        single hot dataset on an 8-core box wants
        ``default_replicas=8``.
    cache_capacity:
        The supervisor's result cache, the fleet's only one (workers
        run none).
    wal_dir:
        Directory for per-dataset durable mutation logs
        (:mod:`repro.wal`; ``<wal_dir>/<dataset>.wal``).  When set, the
        supervisor appends every :meth:`apply` batch to the dataset's
        log *before* broadcasting it, and every worker — including the
        replacement a restart-on-crash spawns — **replays the log at
        startup**, so a ``kill -9``'d replica recovers to exactly the
        last durable epoch instead of silently serving its snapshot.
        The logs take :class:`~repro.wal.MutationLog`'s ``"batched"``
        durability: every batch is flushed (a supervisor ``kill -9``
        loses nothing) and fsynced periodically.
    tracing:
        Structured tracing, on by default: the supervisor mints a trace
        id per request (or adopts the caller's), records a ``route``
        span, and re-homes every span the worker process returns into
        its own :class:`~repro.telemetry.Tracer` — :meth:`trace`
        reconstructs the cross-process tree.  Forwarded to every
        worker's private ``QueryService``; False disables both sides.
    slow_query_threshold:
        Elapsed-seconds threshold of the supervisor's slow-query log
        (:meth:`slow_queries`; ``None`` disables it).  Workers keep
        none: the supervisor records from settled responses.
    slo_objectives:
        Burn-rate alerting (:mod:`repro.telemetry.slo`): objectives
        default to :func:`~repro.telemetry.slo.default_objectives`
        evaluated every :attr:`SLO_INTERVAL` seconds by the core's
        ticker, on every :meth:`slo_status` read and on a worker crash
        or restart (alerts fire into the event log and export ``slo_*``
        gauges).  An empty sequence disables SLOs and the ticker.
    accounting:
        Per-query resource accounting (:mod:`repro.telemetry.accounting`),
        on by default: every worker keeps a workload sketch merged
        fleet-wide by :meth:`query_stats`, and the supervisor retains
        the explain reports harvested from settled ``explain=True``
        responses (:meth:`explain`) — workers are restartable cattle,
        so ``GET /debug/explain/<id>`` works whichever replica ran the
        query.

    The pool restarts a crashed worker (:class:`WorkerPool`); the
    timeouts of the fan-out verbs are the class constants below.
    """

    # A supervisor sees every shard's traffic and every worker's
    # events: it retains twice what one worker does.
    TRACE_CAPACITY = 512
    EVENT_LOG_CAPACITY = 1024
    EVENT_SOURCE = "supervisor"
    #: Recorded supervisor-side on every settled response
    #: (:meth:`_account`), so the SLO engine never needs a worker
    #: round-trip to evaluate.
    SLO_FAMILIES = (
        "repro_fleet_requests_total",
        "repro_fleet_failures_total",
        "repro_fleet_request_latency_seconds",
    )
    #: Seconds :meth:`apply` waits for every replica to commit a batch.
    APPLY_TIMEOUT = 60.0

    def __init__(
        self,
        snapshots: Mapping[str, os.PathLike],
        *,
        num_workers: Optional[int] = None,
        default_replicas: int = 1,
        cache_capacity: int = 1024,
        wal_dir: Optional[os.PathLike] = None,
        tracing: bool = True,
        slow_query_threshold: Optional[float] = 1.0,
        slo_objectives: Optional[Sequence[SloObjective]] = None,
        accounting: bool = True,
        storage_mode: Optional[str] = None,
    ) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        # A bad shard layout fails before any serving state is built.
        self.router = ShardRouter(
            list(snapshots), num_workers, default_replicas=default_replicas
        )
        super().__init__(
            cache_capacity=cache_capacity,
            tracing=tracing,
            slow_query_threshold=slow_query_threshold,
            slo_objectives=slo_objectives,
            accounting=accounting,
        )
        paths = {name: str(path) for name, path in snapshots.items()}
        wal_paths: dict[str, str] = {}
        #: ``{dataset: (generation, version)}`` the cache keys carry: the
        #: snapshot header's version, or the log's tip replicas replay to.
        self._states: dict[str, tuple[int, int]] = {}
        for name, snapshot_path in paths.items():
            info = file_info(snapshot_path)
            start = int(info.get("dataset_version") or 0)
            if wal_dir is not None:
                wal_path = Path(wal_dir) / f"{name}.wal"
                log = MutationLog(wal_path, start_seq=start)
                try:
                    self._continue_lineage(name, log, start, info.get("content_digest"))
                except BaseException:
                    log.close()
                    self._close_logs()
                    raise
                wal_paths[name] = str(wal_path)
                self._wal_telemetry.note_recovery(name, log)
                start = log.last_seq
            self._states[name] = (next(GENERATIONS), start)
        specs = {
            worker_id: {name: paths[name] for name in names}
            for worker_id, names in self.router.assignments().items()
        }
        self.pool = WorkerPool(
            specs,
            settings={
                "wals": wal_paths,
                "tracing": tracing,
                "accounting": accounting,
                # Storage tier every worker loads its snapshots into.
                # Replacement workers spawned after a crash reuse these
                # settings, so the tier survives restarts; under
                # "mapped" all workers mapping one snapshot file share
                # a single physical copy in the OS page cache.
                "storage_mode": storage_mode,
            },
            event_sink=self._pool_event,
        )
        self._fleet_requests = self.registry.counter(
            "repro_fleet_requests_total",
            "Requests settled by the supervisor",
            labels=("dataset",),
        )
        self._fleet_failures = self.registry.counter(
            "repro_fleet_failures_total",
            "Requests settled with a structured error",
            labels=("dataset", "type"),
        )
        self._fleet_latency = self.registry.histogram(
            "repro_fleet_request_latency_seconds",
            "End-to-end request latency as seen by the supervisor",
            labels=("dataset",),
        )
        self._event_cursors: dict[int, int] = {}
        self._events_lock = threading.Lock()
        self._register_telemetry_collectors()

    def _register_telemetry_collectors(self) -> None:
        """Register fleet-state metric families, filled at export time.

        Collector-driven because their sources of truth live elsewhere
        (the pool's liveness map, the WAL's counters): the collector
        snapshots them whenever the registry is exported, so the
        request path never pays for fleet bookkeeping.
        """
        workers_total = self.registry.gauge(
            "repro_cluster_workers", "Configured worker processes"
        )
        workers_alive = self.registry.gauge(
            "repro_cluster_workers_alive", "Worker processes currently alive"
        )
        restarts = self.registry.counter(
            "repro_cluster_worker_restarts_total",
            "Crash-restarts performed by the worker pool",
            labels=("worker",),
        )

        # Held weakly for the same reason as ``QueryService``'s.
        owner = weakref.ref(self)

        def collect() -> None:
            self = owner()
            if self is None:
                return
            liveness = self._liveness()
            workers_total.set(liveness["workers"])
            workers_alive.set(liveness["alive"])
            for worker_id, count in liveness["restarts"].items():
                restarts.set_total(count, worker=worker_id)
            self._wal_telemetry.collect(self._logs())

        self.registry.add_collector(collect)

    def _pool_event(self, kind: str, **info) -> None:
        """Event sink the worker pool calls from its health/crash
        machinery.  Never raises — an observability failure must not
        take down crash handling."""
        try:
            worker = info.get("worker_id")
            if kind == "worker_crash":
                self.event_log.emit(
                    "worker_crash",
                    f"worker {worker} (pid {info.get('pid')}) died with "
                    f"exit code {info.get('exitcode')}; "
                    f"{info.get('in_flight', 0)} request(s) were in flight",
                    severity="error",
                    source="pool",
                    **info,
                )
            elif kind == "worker_restart":
                self.event_log.emit(
                    "worker_restart",
                    f"worker {worker} respawned "
                    f"(restart #{info.get('restarts')})",
                    severity="warning",
                    source="pool",
                    **info,
                )
            if self.slo is not None:
                # The pool reports a crash while the slot is still down
                # and a restart once it is back: evaluating on both
                # edges records the outage however it falls between the
                # ticker's samples.
                self.slo.evaluate()
        except Exception:  # pragma: no cover - defensive
            pass

    def _account(self, response: QueryResponse) -> None:
        """Fleet-level per-dataset accounting for every response the
        front hands back (malformed items count under ``"unknown"``) —
        the series the SLO engine's error-rate and latency objectives
        are evaluated over."""
        try:
            request = response.request
            dataset = request.dataset if request is not None else "unknown"
            self._fleet_requests.inc(dataset=dataset)
            if response.error_type:
                self._fleet_failures.inc(
                    dataset=dataset, type=response.error_type
                )
            if response.elapsed:
                self._fleet_latency.observe(response.elapsed, dataset=dataset)
        except Exception:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    # registry view
    # ------------------------------------------------------------------
    def datasets(self) -> list[str]:
        """Dataset names the cluster serves, sorted."""
        return self.router.datasets()

    def _cache_state(self, name: str) -> tuple[SearchParams, tuple[int, int]]:
        """The defaults a worker's snapshot registration serves with, and
        ``name``'s tracked ``(generation, version)``: no replica is asked."""
        try:
            return DEFAULT_PARAMS, self._states[name]
        except KeyError:
            raise UnknownDatasetError(name) from None

    def _replica_states(
        self, names: Optional[Sequence[str]], *, timeout: float, strict: bool
    ) -> dict[str, dict[str, object]]:
        """One ``state`` message to each worker holding one of ``names``
        (None: all); a load error comes back as its exception, and a
        worker that did not answer holds None for each of its datasets."""
        held = {
            worker_id: [name for name in assigned if names is None or name in names]
            for worker_id, assigned in sorted(self.router.assignments().items())
        }
        held = {worker_id: wanted for worker_id, wanted in held.items() if wanted}
        replies = self._broadcast(
            dict.fromkeys(held), "state", timeout=timeout, strict=strict
        )
        states: dict[str, dict[str, object]] = {}
        for worker_id, wanted in held.items():
            reply = replies.get(worker_id, {}).get("datasets", {})
            states[str(worker_id)] = {
                name: control_error(reply.get(name)) or reply.get(name)
                for name in wanted
            }
        return states

    # ------------------------------------------------------------------
    # live mutations
    # ------------------------------------------------------------------
    def apply(self, dataset: str, mutations: Sequence) -> MutationResult:
        """Apply a mutation batch on **every replica** of ``dataset``.

        The batch is validated once supervisor-side, then broadcast
        (under the dataset's mutation lock, held until every replica
        answers, so concurrent callers reach every replica in the same
        order) as ``mutate`` messages; each replica's private
        ``QueryService`` commits a new epoch, and the version they
        acknowledge keys the supervisor's cache from then on.  No worker
        restarts: the commit is an in-process overlay.  Exception
        semantics like :meth:`warmup` — a replica that fails the batch raises here
        (``MutationError`` for bad batches, ``WorkerCrashedError`` for
        a crash; the survivors stay consistent because every replica
        drops a bad batch whole).

        Returns the thread tier's :class:`~repro.live.MutationResult`
        with ``workers`` (``{worker_id: version}``) filled in.

        Caution on timeouts: worker queues are serial, so a replica
        busy with a long search can push the collection past
        :attr:`APPLY_TIMEOUT`.  That raises a structured
        :class:`~repro.errors.ClusterError`, but the mutate message is
        *already enqueued* and commits when the worker drains — a blind
        retry would double-apply the batch.  Check
        :meth:`dataset_versions` first.  Any failure after the broadcast
        went out (that timeout, a crash, a batch some replicas committed
        and another rejected) leaves the dataset caching nothing until
        the next ``apply`` or reload succeeds: the replicas may be at a
        version the supervisor never saw acknowledged.

        With ``wal_dir`` set, the batch is appended to the dataset's
        durable log **before** the broadcast (write-ahead: the log is
        the recovery truth, so a crash mid-broadcast leaves replicas
        *behind* the log — recoverable by restart replay — never ahead
        of it), and the record's sequence number rides on the message
        so a replica whose startup replay already covered it
        acknowledges idempotently.  A batch every replica rejects rolls
        the record back; a timeout or crash keeps it, since the batch
        is still in flight.
        """
        wire = [mutation_to_dict(m) for m in coerce_mutations(mutations)]
        replicas = self.router.replicas_for(dataset)
        payload = {"dataset": dataset, "mutations": wire}
        # Held through collection: rolling a rejected record back is
        # only sound while it is still the log's tail.
        with self._mutation_lock(dataset):
            log = self._log(dataset)
            if log is not None and wire:
                # Empty batches are version no-ops on every replica
                # (mutate() commits nothing); journaling one would leave
                # a record that bumps nothing and desynchronize WAL
                # sequences from replica versions forever.
                payload["seq"] = log.append(wire)
            futures: dict[int, Future] = {}
            try:
                for worker_id in replicas:
                    futures[worker_id] = self.pool.submit(worker_id, "mutate", payload)
                results = self._collect(
                    futures, "mutate", timeout=self.APPLY_TIMEOUT, strict=True
                )
            except MutationError:
                # A rejected batch is dropped whole on every replica
                # *of the same state*, so the record should not
                # survive to be replayed at the next restart — but a
                # drifted replica (e.g. one whose non-strict startup
                # replay stopped early) can reject a batch its healthy
                # siblings committed.  Reusing the sequence number would
                # then make the siblings skip the *next* batch as a
                # duplicate, so roll back only when no replica is known
                # to have committed.
                if self._no_replica_committed(futures):
                    if "seq" in payload:
                        log.rollback_last()
                else:
                    self._lose_track(dataset)
                raise
            except BaseException:
                # A timeout (the message still queued), a crash (with a
                # log, the replacement replays the record) or a failed
                # submit: the batch may yet commit.
                self._lose_track(dataset)
                raise
            wal_seq = log.last_seq if log is not None else None
            workers = {str(w): int(r["version"]) for w, r in sorted(results.items())}
            generation = self._states[dataset][0]
            current = self._states[dataset] = (generation, max(workers.values()))
        # A replica whose replay already held the record acknowledges
        # it with nothing applied; the others report the batch.
        first = next(
            (r for r in results.values() if r["applied"]), results[replicas[0]]
        )
        outcome = MutationResult(
            dataset=dataset,
            version=current[1],
            applied=first["applied"],
            new_nodes=tuple(first["new_nodes"]),
            compacted=any(r["compacted"] for r in results.values()),
            cache_purged=self._shred(dataset, keep=current),
            workers=workers,
            wal_seq=wal_seq,
        )
        self._note_commit(dataset, outcome.version, outcome.applied, wal_seq)
        if outcome.drift:
            self.event_log.emit(
                "version_drift",
                f"replica versions for dataset {dataset!r} disagree after "
                f"commit: {workers} — a replica likely crash-restarted "
                f"and needs a reload",
                severity="warning",
                dataset=dataset,
                source="supervisor",
                workers=workers,
            )
        return outcome

    def _no_replica_committed(self, futures: Mapping[int, Future]) -> bool:
        """True iff every replica's mutate outcome resolved to an error
        payload — the precondition for rolling a WAL record back and for
        keeping the dataset's cached answers.  An outcome that cannot be
        confirmed (not in 10 s, crash) counts as a possible commit:
        keeping a rejected record merely degrades to a warned stop at the
        next replay, while rolling back a committed one would silently
        desynchronize sequence numbers.  (Losing the cache on a doubtful
        outcome costs only misses.)"""
        done, pending = wait(futures.values(), timeout=10.0)
        return not pending and all(
            future.exception() is None and control_error(future.result()) is not None
            for future in done
        )

    def _swap_snapshot(
        self, dataset: str, path: str, info: dict, force: bool
    ) -> tuple[bool, dict[str, bool]]:
        """:meth:`reload`'s hook: broadcast the reload to every replica
        of ``dataset``.  When one reloaded, the worker specs point at
        the file, so a replica respawned after a crash loads it.  A
        replica no-ops only when it already serves this digest at this
        version, so with none reloaded the old file and its lineage
        stay.  When one reloaded, the cache moves to a new generation at
        the file's version; a broadcast that failed part way moves it to
        one that caches nothing (:meth:`_lose_track`)."""
        replicas = self.router.replicas_for(dataset)
        payload = {"dataset": dataset, "path": path, "force": force}
        try:
            results = self._broadcast(
                dict.fromkeys(replicas, payload), "reload", timeout=self.LOAD_TIMEOUT
            )
        except BaseException:
            self._lose_track(dataset)
            raise
        workers = {str(w): bool(r["reloaded"]) for w, r in sorted(results.items())}
        reloaded = any(workers.values())
        if reloaded:
            self.pool.set_snapshot(dataset, path)
            version = int(info.get("dataset_version") or 0)
            self._states[dataset] = (next(GENERATIONS), version)
            self._shred(dataset)
        return reloaded, workers

    def _lose_track(self, dataset: str) -> None:
        """After a broadcast that failed once sent: key ``dataset`` at a
        new generation and a version no reply carries, so no answer is
        cached for it — whatever state its replicas reach — until an
        ``apply`` or reload succeeds and sets a state every replica
        acknowledged."""
        self._states[dataset] = (next(GENERATIONS), -1)
        self._shred(dataset)

    def _broadcast(
        self,
        payloads: Mapping[int, Optional[dict]],
        kind: str,
        *,
        timeout: float,
        strict: bool = True,
    ) -> dict[int, dict]:
        """Submit one ``kind`` message to each worker of ``payloads``,
        carrying its payload (None: none); collect the replies.

        ``strict`` raises on any failure (submit error, timeout, or a
        worker-side error payload, rebuilt via :func:`control_error`);
        non-strict skips failed workers — the observability calls'
        contract — but never a closed pool's ``PoolClosedError``: a read
        of a closed fleet must not look like an idle one.  A strict
        timeout raises a structured :class:`~repro.errors.ClusterError`
        that says the message is *still queued* — worker queues are
        serial, so it may yet be processed; callers must check
        :meth:`dataset_versions` before retrying a mutation or they risk
        double-applying it.
        (Mutation-ordering calls — :meth:`apply`, :meth:`reload` —
        submit under their dataset's mutation lock themselves.)
        """
        futures = {}
        for worker_id, payload in payloads.items():
            args = () if payload is None else (payload,)
            try:
                futures[worker_id] = self.pool.submit(worker_id, kind, *args)
            except Exception as exc:
                if strict or isinstance(exc, PoolClosedError):
                    raise
        return self._collect(futures, kind, timeout=timeout, strict=strict)

    def _collect(
        self,
        futures: Mapping[int, Future],
        kind: str,
        *,
        timeout: float,
        strict: bool,
    ) -> dict[int, dict]:
        """Await a broadcast's futures; see :meth:`_broadcast` for the
        strict/non-strict and timeout semantics."""
        deadline = time.monotonic() + timeout
        results: dict[int, dict] = {}
        for worker_id, future in futures.items():
            try:
                result = future.result(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )
            except FutureTimeoutError:
                if strict:
                    raise ClusterError(
                        f"{kind} broadcast to worker {worker_id} timed out "
                        f"after {timeout}s; the message is still queued and "
                        f"may yet be processed — check dataset_versions() "
                        f"before retrying"
                    ) from None
                continue
            except Exception:
                if strict:
                    raise
                continue
            error = control_error(result)
            if error is not None:
                if strict:
                    raise error
                continue
            results[worker_id] = result
        return results

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop the worker fleet (idempotent; a worker that
        has not stopped after :meth:`WorkerPool.close`'s grace is
        killed); durable logs are synced and closed last."""
        self._closed = True
        self._stop_slo()
        self.pool.close()
        self._close_logs()

    def _closed_error(self) -> Exception:
        return PoolClosedError("ShardedQueryService is closed")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _submit(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> Union[Future, QueryResponse]:
        """Route and ship one request (a cache miss: to its dataset's
        least busy replica); supervisor-side failures (bad query, unknown
        dataset, a shard that is gone) come back as an immediate
        response."""
        if token is not None:
            raise ValueError(
                "a caller token cannot cross the process boundary; give "
                "the request a request_id and use cancel()"
            )
        start = time.perf_counter()
        trace_id = request.trace_id
        route_span = None
        if self.tracer is not None:
            if trace_id is None:
                trace_id = new_trace_id()
            route_span = self.tracer.start_span(
                "route", trace_id=trace_id, parent_id=request.parent_span_id
            )
        try:
            worker_id = self.router.route(
                request.dataset,
                (parse_query(request.query), request.algorithm),
                in_flight=self.pool.in_flight(),
            )
            wire_request = request_to_dict(request)
            if route_span is not None:
                route_span.set_attribute("dataset", request.dataset)
                route_span.set_attribute("worker", worker_id)
                # The worker's root span hangs off the route span: the
                # wire copy carries the context, the caller's object
                # stays as submitted.
                wire_request["trace_id"] = trace_id
                wire_request["parent_span_id"] = route_span.span_id
            future = self.pool.submit(worker_id, "request", wire_request)
        except PoolClosedError:
            if route_span is not None:
                route_span.end(status="error")
            raise  # caller bug, like searching a closed QueryService
        except Exception as exc:
            # Also e.g. WorkerCrashedError when a crashed worker's
            # replacement did not come up in time: the shard is gone,
            # which is an answer, not an exception.
            if route_span is not None:
                route_span.end(status="error")
            return self._error_response(request, exc, start, trace_id=trace_id)
        if route_span is not None:
            route_span.end()
            future.trace_id = trace_id  # type: ignore[attr-defined]
            future.route_span = route_span  # type: ignore[attr-defined]
        if request.request_id is not None:
            canceller = functools.partial(
                self.pool.cancel, future.job_id  # type: ignore[attr-defined]
            )
            future.canceller = canceller  # type: ignore[attr-defined]
            self._track(request.request_id, canceller)
        return future

    def _await(
        self,
        request: QueryRequest,
        future: Future,
        deadline: Optional[float],
    ) -> QueryResponse:
        try:
            return self._await_inner(request, future, deadline)
        finally:
            canceller = getattr(future, "canceller", None)
            if canceller is not None:
                self._untrack(request.request_id, canceller)

    def _await_inner(
        self,
        request: QueryRequest,
        future: Future,
        deadline: Optional[float],
    ) -> QueryResponse:
        payload: Optional[dict] = None
        try:
            if deadline is None:
                payload = future.result()
            else:
                payload = future.result(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )
        except FutureTimeoutError:
            payload = None
        if payload is None:
            # Deadline passed without a response.  Cancel the request
            # down its worker's channel — a search in flight stops at
            # its next check, a request still *queued* never starts —
            # then, for partial-results requests, give the worker's
            # answer a grace period to arrive.  (In the common case the
            # worker's own deadline token already fired and its
            # structured response is moments away.)
            self.pool.cancel(future.job_id)  # type: ignore[attr-defined]
            if request.allow_partial:
                try:
                    payload = future.result(timeout=self.CANCEL_GRACE)
                except FutureTimeoutError:  # pragma: no cover - stuck shard
                    pass
            if payload is None:
                return self._absorb_trace(
                    request,
                    future,
                    self._deadline_response(
                        request, "the shard worker is stopping it cooperatively"
                    ),
                )
        response = response_from_dict(payload)
        if (
            deadline is not None
            and response.error_type == SearchCancelledError.__name__
            and time.monotonic() >= deadline
        ):
            # The cancel was *caused* by the deadline; surface the
            # cause, not the mechanism.
            response.error_type = DeadlineExceededError.__name__
            response.error = (
                f"deadline of {request.timeout}s exceeded ({response.error})"
            )
        # Hand the caller back the exact object it submitted (the wire
        # copy lost nothing, but identity is friendlier than equality).
        response.request = request
        if response.error_type == WorkerCrashedError.__name__:
            # Worker-side errors are counted by the worker; a crash is
            # the one failure only the supervisor can account for.
            self._metrics.record_error(
                request.algorithm, WorkerCrashedError.__name__
            )
            response.exception = WorkerCrashedError(response.error)
        return self._absorb_trace(request, future, response)

    def _absorb_trace(
        self, request: QueryRequest, future: Future, response: QueryResponse
    ) -> QueryResponse:
        """Re-home the worker's spans in the supervisor tracer, stamp
        trace/request ids on the response, and settle it (explain
        harvest, slow-query log) supervisor-side.

        Also synthesizes the ``queue_wait`` span — the gap between the
        route span ending (request enqueued) and the worker's root span
        starting — which neither process can time alone.  The response
        hands its span list over to the tracer rather than carrying it:
        supervisor callers read trees through :meth:`trace`.
        """
        if response.request_id is None:
            response.request_id = request.request_id
        trace_id = getattr(future, "trace_id", None)
        if self.tracer is not None and trace_id is not None:
            if response.trace_id is None:
                response.trace_id = trace_id
            route_span = getattr(future, "route_span", None)
            spans = [span for span in response.spans or () if isinstance(span, dict)]
            self.tracer.ingest(spans)
            if route_span is not None and route_span.duration is not None:
                route_end = route_span.started_at + route_span.duration
                worker_start = min(
                    (
                        span["start"]
                        for span in spans
                        if span.get("parent_id") == route_span.span_id
                        and isinstance(span.get("start"), (int, float))
                    ),
                    default=None,
                )
                if worker_start is not None:
                    self.tracer.ingest(
                        [
                            {
                                "name": "queue_wait",
                                "trace_id": trace_id,
                                "span_id": new_span_id(),
                                "parent_id": route_span.span_id,
                                "start": route_end,
                                "duration": max(0.0, worker_start - route_end),
                                "status": "ok",
                                "attributes": {},
                            }
                        ]
                    )
        response.spans = None
        self._settle(request, response)
        return response

    # ------------------------------------------------------------------
    # what the workers contribute to the merged verbs
    # ------------------------------------------------------------------
    def _worker_exports(self) -> dict[int, Optional[dict]]:
        """Every worker's registry export, None for one that did not
        answer within :attr:`VERSIONS_TIMEOUT` (busy or crashed)."""
        workers = dict.fromkeys(self.pool.worker_ids())
        timeout = self.VERSIONS_TIMEOUT
        replies = self._broadcast(workers, "metrics", timeout=timeout, strict=False)
        for part in replies.values():
            # Every replica commits each batch; the supervisor counts
            # it once, where it is acknowledged (:meth:`apply`).
            part.pop("repro_mutations_applied_total", None)
        return {worker_id: replies.get(worker_id) for worker_id in workers}

    def _liveness(self) -> dict:
        """``workers``, ``alive`` and per-worker ``restarts``: what health,
        :meth:`_cluster_section` and the collector read of the pool."""
        return {
            "workers": self.router.num_workers,
            "alive": sum(self.pool.alive().values()),
            "restarts": {str(w): n for w, n in sorted(self.pool.restarts().items())},
        }

    def _cluster_section(self, exports: dict[int, Optional[dict]]) -> dict:
        """Fleet state for :meth:`metrics`: liveness, restart counts,
        shard assignments, per-worker totals (None: no answer) and the
        log tips."""
        section = {
            **self._liveness(),
            "assignments": {
                str(w): list(names)
                for w, names in sorted(self.router.assignments().items())
            },
            "per_worker": {
                str(w): None
                if part is None
                else {
                    "requests_total": family_total(part, "repro_requests_total"),
                    "errors_total": family_total(part, "repro_errors_total"),
                }
                for w, part in sorted(exports.items())
            },
        }
        wal_seqs = self.wal_seqs()
        if wal_seqs:
            section["wal_seq"] = wal_seqs
        return section

    def _gather(self) -> dict[str, dict]:
        """The supervisor's own sketch plus every live worker's reply to
        a ``"queries"`` pull.  Non-strict: a busy or crashed replica is
        simply absent from this pull."""
        parts = super()._gather()
        replies = self._broadcast(
            dict.fromkeys(self.pool.worker_ids()), "queries", timeout=5.0, strict=False
        )
        for worker_id, payload in replies.items():
            if isinstance(payload.get("queries"), dict):
                parts[f"worker-{worker_id}"] = payload["queries"]
        return parts

    def _pull_events(self) -> None:
        """Merge every worker's event log into the supervisor's.

        Each worker keeps its own monotonically-sequenced log; the
        supervisor pulls incrementally with a per-worker cursor and
        re-sequences into its own stream (``ingest`` preserves the
        worker-side seq as ``remote_seq``).  A worker whose reported
        ``last_seq`` went *backwards* restarted with a fresh log — the
        cursor resets and its events are re-pulled from zero.  Serial
        worker queues mean a busy replica delays its answer; non-strict
        collection skips it until the next pull.
        """
        timeout = 2.0
        with self._events_lock:
            cursors = {
                worker_id: {"since": self._event_cursors.get(worker_id, 0)}
                for worker_id in self.pool.worker_ids()
            }
            results = self._broadcast(cursors, "events", timeout=timeout, strict=False)
            for worker_id, payload in results.items():
                last = int(payload.get("last_seq") or 0)
                if last < cursors[worker_id]["since"]:
                    restarted = {worker_id: {"since": 0}}
                    payload = self._broadcast(
                        restarted, "events", timeout=timeout, strict=False
                    ).get(worker_id)
                    if payload is None:
                        continue
                    last = int(payload.get("last_seq") or 0)
                for event in payload.get("events") or []:
                    if isinstance(event, dict):
                        self.event_log.ingest(
                            event, source=f"worker-{worker_id}"
                        )
                self._event_cursors[worker_id] = last
