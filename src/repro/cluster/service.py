"""``ShardedQueryService``: the serving core on worker processes.

One core, a different execution substrate:
:class:`~repro.service.core.ServiceCore` holds the request front, the
response builders, the telemetry state and the introspection verbs, and
:class:`~repro.service.QueryService` runs it on threads.  This module
runs it over N worker *processes*, each holding a private
snapshot-warmed ``QueryService`` — so a batch's pure-Python search time
actually divides across cores instead of serializing on one GIL.  What
is written here is what only a supervisor does: **routing**
(``_submit`` picks the shard and ships the request), **fan-out**
(``apply`` / ``reload`` / ``warmup`` / ``dataset_versions`` broadcasts)
and **fan-in** (``_await`` re-homes the worker's spans and settles its
response; ``_gather`` / ``_pull_events`` / ``metrics`` collect worker
replies for the core's merged verbs).

Everything crossing the process boundary is primitives, and crosses it
on the one duplex channel the pool keeps per worker
(:mod:`repro.cluster.pool`): snapshot paths as its first message,
request-shaped dicts, control messages and cancels down, response-shaped
dicts back up (:mod:`repro.service.wire`).  Routing is deterministic
(:class:`~repro.cluster.router.ShardRouter`): a dataset lives on a
fixed replica set, and a given query always lands on the same replica —
which is also what makes each worker's private result cache effective.

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

Supervisor-side events (deadline misses, malformed requests, crashes)
are recorded in the supervisor's own registry; :meth:`metrics` merges
its export with every worker's
(:func:`~repro.telemetry.metrics.merge_registries`) and serves the same
view of the result that one ``QueryService`` serves of its own
(:func:`~repro.service.metrics.metrics_view`).

Live updates (:mod:`repro.live`) propagate fleet-wide without process
restarts: :meth:`ShardedQueryService.apply` broadcasts a mutation
batch to every replica of the dataset's shard (one serialized stream,
so replicas stay bit-identical), each worker commits a new epoch and
bumps the version its result cache is keyed by, and
:meth:`dataset_versions` / :meth:`health` expose per-replica versions
so drift is observable.  :meth:`reload` hot-swaps a dataset from a
re-written snapshot file, no-opping on replicas whose content digest
already matches.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import weakref
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import ExitStack
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.core.query import parse_query
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    MutationError,
    PoolClosedError,
    SearchCancelledError,
    SnapshotError,
    WorkerCrashedError,
)
from repro.live.mutations import coerce_mutations, mutation_to_dict
from repro.service.core import (
    QueryRequest,
    QueryResponse,
    ServiceCore,
    normalize_search_args,
)
from repro.service.metrics import family_total, family_values, metrics_view
from repro.service.snapshot_header import snapshot_info
from repro.service.wire import request_to_dict, response_from_dict
from repro.telemetry.metrics import merge_registries, strip_samples
from repro.telemetry.slo import SloObjective
from repro.telemetry.trace import new_span_id, new_trace_id
from repro.wal.log import MutationLog
from repro.cluster.pool import WorkerPool, control_error
from repro.cluster.router import ShardRouter

__all__ = ["ShardedQueryService"]


class ShardedQueryService(ServiceCore):
    """The process tier: a :class:`~repro.service.core.ServiceCore`
    that owns a shard router and a worker pool, routes each request to
    a worker process and merges what the workers report.

    Parameters
    ----------
    snapshots:
        ``{dataset_name: snapshot_path}`` — every dataset a worker may
        serve must exist as a snapshot file
        (:func:`repro.service.snapshot.save_engine`); workers load from
        disk, ``from_database`` never runs in the fleet.
    num_workers:
        Process count (default: the machine's CPU count).
    default_replicas / replicas:
        Replica fan-out per dataset (see :class:`ShardRouter`).  A
        single hot dataset on an 8-core box wants
        ``default_replicas=8``.
    cache_capacity / cache_ttl:
        Per-worker result-cache knobs.
    restart:
        Restart-on-crash policy, on by default.
    cancel_grace:
        How long a deadline-missed ``allow_partial`` request waits for
        the cancelled search's partial response before settling for a
        bare deadline error.
    wal_dir:
        Directory for per-dataset durable mutation logs
        (:mod:`repro.wal`; ``<wal_dir>/<dataset>.wal``).  When set, the
        supervisor appends every :meth:`apply` batch to the dataset's
        log *before* broadcasting it, and every worker — including the
        replacement a restart-on-crash spawns — **replays the log at
        startup**, so a ``kill -9``'d replica recovers to exactly the
        last durable epoch instead of silently serving its snapshot.
        None (the default) keeps the PR-4 in-memory behaviour.
    wal_sync:
        Per-append durability policy for those logs: ``"commit"``
        fsyncs every batch, the ``"batched"`` default flushes every
        batch (a supervisor ``kill -9`` loses nothing) and fsyncs
        periodically, ``"off"`` defers flushing to rotation/close.
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
    slo_objectives / slo_interval:
        Burn-rate alerting (:mod:`repro.telemetry.slo`): objectives
        default to :func:`~repro.telemetry.slo.default_objectives`
        evaluated every ``slo_interval`` seconds by a background
        ticker (alerts fire into the event log and export ``slo_*``
        gauges).  An empty sequence disables SLOs; ``slo_interval=0``
        keeps evaluate-on-read only.
    accounting:
        Per-query resource accounting (:mod:`repro.telemetry.accounting`),
        on by default: every worker keeps a workload sketch merged
        fleet-wide by :meth:`query_stats`, and the supervisor retains
        the explain reports harvested from settled ``explain=True``
        responses (:meth:`explain`) — workers are restartable cattle,
        so ``GET /debug/explain/<id>`` works whichever replica ran the
        query.
    """

    # A supervisor sees every shard's traffic and every worker's
    # events: it retains twice what one worker does.
    TRACE_CAPACITY = 512
    EVENT_LOG_CAPACITY = 1024
    #: Recorded supervisor-side on every settled response
    #: (:meth:`_account`), so the SLO engine never needs a worker
    #: round-trip to evaluate.
    SLO_FAMILIES = (
        "repro_fleet_requests_total",
        "repro_fleet_failures_total",
        "repro_fleet_request_latency_seconds",
    )

    def __init__(
        self,
        snapshots: Mapping[str, os.PathLike],
        *,
        num_workers: Optional[int] = None,
        default_replicas: int = 1,
        replicas: Optional[Mapping[str, int]] = None,
        cache_capacity: int = 1024,
        cache_ttl: Optional[float] = None,
        health_interval: float = 0.5,
        restart: bool = True,
        cancel_grace: float = 1.0,
        wal_dir: Optional[os.PathLike] = None,
        wal_sync: str = "batched",
        tracing: bool = True,
        slow_query_threshold: Optional[float] = 1.0,
        slo_objectives: Optional[Sequence[SloObjective]] = None,
        slo_interval: float = 5.0,
        accounting: bool = True,
        storage_mode: Optional[str] = None,
    ) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        # A bad shard layout fails before any serving state is built.
        self.router = ShardRouter(
            list(snapshots),
            num_workers,
            default_replicas=default_replicas,
            replicas=replicas,
        )
        super().__init__(
            cancel_grace=cancel_grace,
            tracing=tracing,
            slow_query_threshold=slow_query_threshold,
            slo_objectives=slo_objectives,
            accounting=accounting,
        )
        paths = {name: str(path) for name, path in snapshots.items()}
        #: The supervisor's durable mutation logs by dataset: filled
        #: here, never changed afterwards.
        self._wals: dict[str, MutationLog] = {}
        wal_paths: dict[str, str] = {}
        if wal_dir is not None:
            for name, snapshot_path in paths.items():
                wal_path = Path(wal_dir) / f"{name}.wal"
                try:
                    start = int(
                        snapshot_info(snapshot_path).get("dataset_version") or 0
                    )
                except SnapshotError:
                    start = 0
                log = MutationLog(wal_path, sync=wal_sync, start_seq=start)
                if log.last_seq < start:
                    # The snapshot was re-provisioned past this log's
                    # lineage (its records are superseded history);
                    # keeping them would leave every new append's
                    # sequence number trailing replica versions, which
                    # the idempotent-skip guard reads as "already
                    # applied".  Restart the log at the snapshot.
                    log.reset(start_seq=start)
                self._wals[name] = log
                wal_paths[name] = str(wal_path)
                self._wal_telemetry.note_recovery(name, log)
        specs = {
            worker_id: {name: paths[name] for name in names}
            for worker_id, names in self.router.assignments().items()
        }
        self.pool = WorkerPool(
            specs,
            settings={
                "cache_capacity": cache_capacity,
                "cache_ttl": cache_ttl,
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
            health_interval=health_interval,
            restart=restart,
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
        self._slo_stop = threading.Event()
        self._slo_thread: Optional[threading.Thread] = None
        if self.slo is not None and slo_interval and slo_interval > 0:
            self._slo_thread = threading.Thread(
                target=self._slo_loop,
                args=(slo_interval,),
                name="repro-slo-ticker",
                daemon=True,
            )
            self._slo_thread.start()
        # One mutation stream per *dataset*: broadcasts from concurrent
        # callers must reach every replica's queue in the same order,
        # or replicas would assign different node ids to the same
        # AddNode and drift apart.  Per-dataset (not fleet-wide) so a
        # slow replica of one dataset never serializes applies — or a
        # WAL append's hold-through-collection — against another's.
        self._mutate_locks: dict[str, threading.Lock] = {
            name: threading.Lock() for name in paths
        }
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
            alive = self.pool.alive()
            workers_total.set(self.router.num_workers)
            workers_alive.set(sum(alive.values()))
            for worker_id, count in self.pool.restarts().items():
                restarts.set_total(count, worker=str(worker_id))
            self._wal_telemetry.collect(self._wals)

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
            else:  # pragma: no cover - future pool event kinds
                self.event_log.emit(kind, str(info), source="pool", **info)
            if self.slo is not None:
                # The pool reports a crash while the slot is still down
                # and a restart once it is back: evaluating on both
                # edges records the outage however it falls between the
                # ticker's samples.
                self.slo.evaluate()
        except Exception:  # pragma: no cover - defensive
            pass

    def _slo_loop(self, interval: float) -> None:
        while not self._slo_stop.wait(interval):
            try:
                if self.slo is not None:
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

    def warmup(
        self, names: Optional[Sequence[str]] = None, *, timeout: float = 300.0
    ) -> dict[str, float]:
        """Build every shard's engines from disk now.

        Returns ``{dataset: build_seconds}``, reporting each dataset's
        *slowest* replica — the one that gates fleet readiness.
        ``timeout`` bounds the whole fleet warmup: a worker alive but
        stuck loading (hung filesystem read) must surface as an error,
        not block startup forever — the same deadline discipline as
        :meth:`WorkerPool.warmup`.
        """
        wanted = set(names) if names is not None else None
        futures: dict[int, Future] = {}
        for worker_id, assigned in self.router.assignments().items():
            targets = (
                list(assigned)
                if wanted is None
                else [name for name in assigned if name in wanted]
            )
            if not targets:
                continue
            futures[worker_id] = self.pool.submit(worker_id, "warmup", targets)
        timings: dict[str, float] = {}
        deadline = time.monotonic() + timeout
        for future in futures.values():
            payload = future.result(
                timeout=max(deadline - time.monotonic(), 0.0)
            )
            error = control_error(payload)
            if error is not None:
                # e.g. a SnapshotError warming from a corrupt file —
                # re-raised here with its original type where possible.
                raise error
            for name, seconds in payload.items():
                timings[name] = max(timings.get(name, 0.0), seconds)
        return timings

    # ------------------------------------------------------------------
    # live mutations
    # ------------------------------------------------------------------
    def apply(
        self, dataset: str, mutations: Sequence, *, timeout: float = 60.0
    ) -> dict:
        """Apply a mutation batch on **every replica** of ``dataset``.

        The batch is validated once supervisor-side, then broadcast
        (under a fleet-wide mutation lock, so concurrent callers reach
        every replica in the same order) as ``mutate`` messages; each
        replica's private ``QueryService`` commits a new epoch and
        bumps its version-keyed cache.  No worker restarts: the commit
        is an in-process overlay.  Exception semantics like
        :meth:`warmup` — a replica that fails the batch raises here
        (``MutationError`` for bad batches, ``WorkerCrashedError`` for
        a crash; the survivors stay consistent because a bad batch
        rolls back atomically on every replica).

        Returns ``{"dataset", "version", "applied", "new_nodes",
        "compacted", "workers": {worker_id: version}, "drift"}`` —
        ``drift`` is True if replica versions disagree (observable via
        :meth:`health` too), which after a crash-restart means the
        replica reloaded its snapshot and missed earlier commits.

        Caution on timeouts: worker queues are serial, so a replica
        busy with a long search can push the collection past
        ``timeout``.  That raises a structured
        :class:`~repro.errors.ClusterError`, but the mutate message is
        *already enqueued* and commits when the worker drains — a blind
        retry would double-apply the batch.  Check
        :meth:`dataset_versions` first.

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
        log = self._wals.get(dataset)
        with ExitStack() as stack:
            stack.enter_context(self._mutate_locks[dataset])
            payload = {"dataset": dataset, "mutations": wire}
            seq: Optional[int] = None
            if log is not None and wire:
                # Empty batches are version no-ops on every replica
                # (commit() early-returns); journaling one would leave
                # a record that bumps nothing and desynchronize WAL
                # sequences from replica versions forever.
                seq = log.append(wire)
                payload["seq"] = seq
            futures = {
                worker_id: self.pool.submit(worker_id, "mutate", payload)
                for worker_id in replicas
            }
            if log is None:
                # PR-4 semantics: the lock only orders enqueueing; the
                # round-trip itself runs unserialized.
                stack.close()
                results = self._collect(
                    futures, "mutate", timeout=timeout, strict=True
                )
            else:
                # With a WAL the lock is held through collection too:
                # rolling a rejected record back is only sound while it
                # is still the log's tail.
                try:
                    results = self._collect(
                        futures, "mutate", timeout=timeout, strict=True
                    )
                except MutationError:
                    # A rejected batch rolls back atomically on every
                    # replica *of the same state*, so the record should
                    # not survive to be replayed at the next restart —
                    # but a drifted replica (e.g. one whose non-strict
                    # startup replay stopped early) can reject a batch
                    # its healthy siblings committed.  Reusing the
                    # sequence number would then make the siblings skip
                    # the *next* batch as a duplicate, so roll back
                    # only when no replica is known to have committed.
                    if self._no_replica_committed(
                        futures, timeout=min(timeout, 10.0)
                    ):
                        log.rollback_last()
                    raise
        versions = {
            worker_id: result["version"] for worker_id, result in results.items()
        }
        first = next(
            (r for r in results.values() if not r.get("skipped")),
            results[replicas[0]],
        )
        outcome = {
            "dataset": dataset,
            "version": max(versions.values()),
            "applied": first["applied"],
            "new_nodes": first["new_nodes"],
            "compacted": any(result["compacted"] for result in results.values()),
            "workers": {str(w): v for w, v in sorted(versions.items())},
            "drift": len(set(versions.values())) > 1,
        }
        if seq is not None:
            outcome["wal_seq"] = seq
        self.event_log.emit(
            "mutation_commit",
            f"dataset {dataset!r} committed {outcome['applied']} mutation(s) "
            f"at version {outcome['version']}",
            dataset=dataset,
            source="supervisor",
            version=outcome["version"],
            applied=outcome["applied"],
            wal_seq=seq,
        )
        if outcome["drift"]:
            self.event_log.emit(
                "version_drift",
                f"replica versions for dataset {dataset!r} disagree after "
                f"commit: {outcome['workers']} — a replica likely "
                f"crash-restarted from an older snapshot and needs a reload",
                severity="warning",
                dataset=dataset,
                source="supervisor",
                workers=outcome["workers"],
            )
        return outcome

    def _no_replica_committed(
        self, futures: Mapping[int, Future], *, timeout: float
    ) -> bool:
        """True iff every replica's mutate outcome resolved to an error
        payload — the precondition for rolling a WAL record back.  An
        outcome that cannot be confirmed (timeout, crash) counts as a
        possible commit: keeping a rejected record merely degrades to a
        warned stop at the next replay, while rolling back a committed
        one would silently desynchronize sequence numbers."""
        deadline = time.monotonic() + timeout
        for future in futures.values():
            try:
                result = future.result(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )
            except Exception:
                return False
            if not isinstance(result, dict) or control_error(result) is None:
                return False
        return True

    def reload(
        self,
        dataset: str,
        snapshot_path,
        *,
        force: bool = False,
        timeout: float = 300.0,
    ) -> dict:
        """Hot-reload ``dataset`` from a snapshot file on every replica.

        Replicas already holding the file's content digest no-op
        (satellite of the versioned-snapshot work); the rest re-register
        and rebuild from disk — no process restart.  Returns
        ``{"dataset", "reloaded": {worker_id: bool}, "version"}``.

        With ``wal_dir`` set, the supervisor's log is **reset** to the
        replicas' post-reload version: the old records applied on top
        of the old lineage and replaying them onto the new file would
        rebuild the wrong state — and without the realignment the next
        ``apply``'s sequence number would trail the bumped replica
        versions, making every replica skip it as already-replayed.
        (A replica that crash-restarts *after* a reload still warms
        from its original spec snapshot and cannot replay the reset
        log past the reload point — the same observable-drift-then-
        reload story as before; restart the fleet on the new snapshot
        to make reloads crash-durable.)
        """
        replicas = self.router.replicas_for(dataset)
        payload = {"dataset": dataset, "path": str(snapshot_path), "force": force}
        # The dataset's mutation lock is held for the whole reload:
        # an apply interleaving between the replica swap and the log
        # reset would journal an old-lineage batch into the new log.
        with self._mutate_locks[dataset]:
            futures = {
                worker_id: self.pool.submit(worker_id, "reload", payload)
                for worker_id in replicas
            }
            results = self._collect(
                futures, "reload", timeout=timeout, strict=True
            )
            version = max(
                (int(result.get("version") or 0) for result in results.values()),
                default=0,
            )
            log = self._wals.get(dataset)
            if log is not None and any(
                result["reloaded"] for result in results.values()
            ):
                # A fleet-wide digest no-op changed nothing — the log
                # stays replayable.  Any actual reload starts a new
                # lineage.
                log.reset(start_seq=version)
        reloaded = {
            str(worker_id): bool(result["reloaded"])
            for worker_id, result in sorted(results.items())
        }
        if any(reloaded.values()):
            self.event_log.emit(
                "snapshot_reload",
                f"dataset {dataset!r} hot-reloaded from "
                f"{snapshot_path} on replicas "
                f"{sorted(w for w, did in reloaded.items() if did)} "
                f"(version {version})",
                dataset=dataset,
                source="supervisor",
                version=version,
                reloaded=reloaded,
            )
        return {
            "dataset": dataset,
            "reloaded": reloaded,
            "version": version,
        }

    def dataset_versions(self, *, timeout: float = 10.0) -> dict[str, dict[str, int]]:
        """Per-dataset epoch versions as seen by each replica:
        ``{dataset: {worker_id: version}}`` — the drift observability
        ``/healthz`` and ``/metrics`` surface.  Workers that fail to
        answer in time are omitted rather than blocking health checks.
        """
        results = self._broadcast(
            self.pool.worker_ids(), "versions", None, timeout=timeout, strict=False
        )
        collected: dict[str, dict[str, int]] = {}
        for worker_id, payload in results.items():
            for name, version in payload.get("versions", {}).items():
                collected.setdefault(name, {})[str(worker_id)] = int(version)
        return collected

    def _broadcast(
        self,
        worker_ids: Sequence[int],
        kind: str,
        payload: Optional[dict],
        *,
        timeout: float,
        strict: bool = True,
    ) -> dict[int, dict]:
        """Submit one control message to each worker; collect payloads.

        ``strict`` raises on any failure (submit error, timeout, or a
        worker-side error payload, rebuilt via :func:`control_error`);
        non-strict skips failed workers — the observability calls'
        contract.  A strict timeout raises a structured
        :class:`~repro.errors.ClusterError` that says the message is
        *still queued* — worker queues are serial, so it may yet be
        processed; callers must check :meth:`dataset_versions` before
        retrying a mutation or they risk double-applying it.
        (Mutation-ordering calls — :meth:`apply`, :meth:`reload` —
        submit under their dataset's mutation lock themselves.)
        """
        args = () if payload is None else (payload,)
        futures = {}
        for worker_id in worker_ids:
            try:
                futures[worker_id] = self.pool.submit(worker_id, kind, *args)
            except Exception:
                if strict:
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
    # querying
    # ------------------------------------------------------------------
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
    ) -> QueryResponse:
        """Execute one query on its shard.  Same dual calling
        convention as :meth:`QueryService.search`, minus the caller
        ``token``: a token cannot cross the process boundary — give the
        request a ``request_id`` and use :meth:`cancel`."""
        request = normalize_search_args(
            dataset,
            query,
            algorithm=algorithm,
            k=k,
            params=params,
            timeout=timeout,
            use_cache=use_cache,
        )
        return self.search_many([request])[0]

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def metrics(self, *, include_samples: bool = False) -> dict:
        """One cluster-wide metrics dict.

        Every worker's registry export (latency windows included, so
        percentiles are exact) is merged with the supervisor's own and
        viewed exactly as one ``QueryService`` views its registry; a
        ``cluster`` section adds fleet state — per-worker liveness,
        restart counts and shard assignments.

        Known divergence from the thread tier: a deadline-missed
        request is recorded twice — once here as a supervisor-side
        ``DeadlineExceededError`` and once by the worker when the
        abandoned search eventually completes.  The thread tier's
        exactly-once claim needs shared memory; across processes the
        honest choice is counting both sides rather than hiding either.

        A worker that is down or slow to answer is left out of the
        merge; a closed fleet raises ``PoolClosedError``.
        """
        futures = {}
        for worker_id in self.pool.worker_ids():
            try:
                futures[worker_id] = self.pool.submit(worker_id, "metrics")
            except WorkerCrashedError:
                continue
        per_worker = self._collect(futures, "metrics", timeout=10.0, strict=False)
        merged = merge_registries(
            [*per_worker.values(), self.registry.export(include_samples=True)]
        )
        view = metrics_view(merged, include_samples=include_samples)
        datasets = view.get("datasets")
        if datasets is not None:
            # Highest epoch wins the merge; a replica behind it shows up
            # here — the signal a mutation broadcast missed one, and the
            # one value only the unmerged exports can give.
            wal_seq = datasets.pop("wal_seq", None)
            datasets["version_drift"] = sorted(
                {
                    name
                    for part in per_worker.values()
                    for name, version in family_values(
                        part, "repro_dataset_version", "dataset"
                    ).items()
                    if version != datasets["versions"][name]
                }
            )
            if wal_seq is not None:
                datasets["wal_seq"] = wal_seq  # keeps its place: last
        view["registry"] = strip_samples(merged)
        view["cluster"] = {
            "workers": self.router.num_workers,
            "alive": sum(self.pool.alive().values()),
            "restarts": {str(w): n for w, n in sorted(self.pool.restarts().items())},
            "assignments": {
                str(w): list(names)
                for w, names in sorted(self.router.assignments().items())
            },
            "per_worker": {
                str(w): {
                    "requests_total": family_total(part, "repro_requests_total"),
                    "errors_total": family_total(part, "repro_errors_total"),
                }
                for w, part in sorted(per_worker.items())
            },
        }
        if self._wals:
            view["cluster"]["wal_seq"] = self.wal_seqs()
        return view

    def health(
        self, *, include_versions: bool = True, versions_timeout: float = 2.0
    ) -> dict:
        """Fleet liveness summary for a health endpoint.

        ``versions`` maps each dataset to its per-replica epoch
        versions and ``version_drift`` names datasets whose replicas
        disagree — the observable signal that a replica missed a
        mutation broadcast (e.g. it crash-restarted from an older
        snapshot) and needs a :meth:`reload`.  A replica too busy to
        answer within ``versions_timeout`` (worker queues are serial,
        so a long search delays control messages) reports ``None`` and
        puts its datasets in ``version_unknown`` rather than silently
        vanishing — a wedged replica must never make the fleet look
        *more* consistent.  ``include_versions=False`` restores the
        pure supervisor-local (never-blocking) probe.
        """
        alive = self.pool.alive()
        payload = {
            "workers": self.router.num_workers,
            "alive": sum(alive.values()),
            "restarts": sum(self.pool.restarts().values()),
            "datasets": self.datasets(),
        }
        if self._wals:
            # The durable tip per dataset: a replica whose version
            # matches is fully recovered; one behind it (and behind its
            # siblings) shows up in version_drift below.
            payload["wal_seq"] = self.wal_seqs()
        if include_versions:
            versions = self.dataset_versions(timeout=versions_timeout)
            for name in self.datasets():
                by_worker = versions.setdefault(name, {})
                for worker_id in self.router.replicas_for(name):
                    by_worker.setdefault(str(worker_id), None)
            payload["versions"] = versions
            payload["version_drift"] = sorted(
                name
                for name, by_worker in versions.items()
                if len({v for v in by_worker.values() if v is not None}) > 1
            )
            payload["version_unknown"] = sorted(
                name
                for name, by_worker in versions.items()
                if any(v is None for v in by_worker.values())
            )
        return payload

    def close(self, timeout: float = 10.0) -> None:
        """Drain and stop the worker fleet (idempotent); durable logs
        are synced and closed last."""
        self._slo_stop.set()
        if self._slo_thread is not None:
            self._slo_thread.join(timeout=1.0)
            self._slo_thread = None
        self.pool.close(timeout)
        for log in self._wals.values():
            log.close()

    def _logs(self) -> dict[str, MutationLog]:
        return self._wals

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _submit(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> Union[Future, QueryResponse]:
        """Route and ship one request; supervisor-side failures (bad
        query, unknown dataset, a shard that is gone) come back as an
        immediate response."""
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
                request.dataset, (parse_query(request.query), request.algorithm)
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
            future = self.pool.request(worker_id, wire_request)
        except PoolClosedError:
            if route_span is not None:
                route_span.end(status="error")
            raise  # caller bug, like searching a closed QueryService
        except Exception as exc:
            # Also e.g. WorkerCrashedError with restarts disabled: the
            # shard is gone, which is an answer, not an exception.
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
                    payload = future.result(timeout=self._cancel_grace)
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
    def _gather(self) -> dict[str, dict]:
        """The supervisor's own sketch plus every live worker's reply to
        a ``"queries"`` pull.  Non-strict: a busy or crashed replica is
        simply absent from this pull."""
        parts = super()._gather()
        replies = self._broadcast(
            self.pool.worker_ids(), "queries", None, timeout=5.0, strict=False
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
            futures: dict[int, Future] = {}
            for worker_id in self.pool.worker_ids():
                since = self._event_cursors.get(worker_id, 0)
                try:
                    futures[worker_id] = self.pool.submit(
                        worker_id, "events", {"since": since}
                    )
                except Exception:
                    continue
            results = self._collect(
                futures, "events", timeout=timeout, strict=False
            )
            for worker_id, payload in results.items():
                last = int(payload.get("last_seq") or 0)
                if last < self._event_cursors.get(worker_id, 0):
                    try:
                        payload = self.pool.submit(
                            worker_id, "events", {"since": 0}
                        ).result(timeout=timeout)
                    except Exception:
                        continue
                    if (
                        not isinstance(payload, dict)
                        or control_error(payload) is not None
                    ):
                        continue
                    last = int(payload.get("last_seq") or 0)
                for event in payload.get("events") or []:
                    if isinstance(event, dict):
                        self.event_log.ingest(
                            event, source=f"worker-{worker_id}"
                        )
                self._event_cursors[worker_id] = last
