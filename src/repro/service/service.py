"""``QueryService``: the serving core on threads, in one process.

:class:`~repro.service.core.ServiceCore` holds what every tier serves
the same way — the request front (``search_many``, deadlines anchored
at submission, malformed items answered in their slots), ``cancel``,
the response builders, the telemetry state and the introspection verbs.
This module is the substrate under it that runs searches *here*, the
layer the ROADMAP's production north star needs above
:class:`~repro.core.engine.KeywordSearchEngine`:

* **Engine registry** — one record per dataset name (what is served,
  its base version, snapshot provenance and mutation log, which change
  together: a re-registration installs a new record in one step),
  registered eagerly (:meth:`QueryService.register_engine`), lazily
  from a database (:meth:`register_database`), or from a disk snapshot
  (:meth:`register_snapshot`) so restarts skip graph/prestige/index
  builds.  Lazy builds are per-record locked: under concurrent traffic
  exactly one thread pays the construction cost.
* **Result cache** — a shared :class:`~repro.service.cache.ResultCache`
  (LRU + TTL) keyed on the canonicalized query identity; repeated
  queries are answered in microseconds without touching the graph.
* **Execution** — the core's two hooks: ``_submit`` queues a request
  on a ``ThreadPoolExecutor`` and ``_await`` watches its deadline; a
  :meth:`QueryService.search` without a deadline skips both and runs
  on the caller's thread.  Responses never raise: errors (unknown
  dataset, absent keyword, deadline exceeded) come back as structured
  :class:`QueryResponse` objects, the contract an HTTP front-end can
  map onto status codes directly.
* **Metrics** — every request writes the core's
  :class:`~repro.telemetry.metrics.MetricsRegistry` and nothing else;
  :meth:`metrics` is a view of its export (per-algorithm latency
  percentiles, cache hit rate, error counters) as a plain dict.
* **Live mutations** — :meth:`apply` commits a
  :mod:`repro.live` mutation batch against a dataset (upgrading it to
  a :class:`~repro.live.MutableDataset` on first touch): new requests
  see the new epoch, in-flight searches finish on theirs, and the
  result cache is keyed by :meth:`dataset_version` so a commit makes
  stale entries unreachable atomically.  :meth:`reload_snapshot`
  hot-swaps a dataset from a re-written snapshot file, no-opping when
  the file's content digest matches what is already served.
* **Durability** — :meth:`attach_wal` opens the dataset's
  :mod:`repro.wal` mutation log: records the served state is missing
  are replayed (crash recovery to exactly the last durable epoch) and
  every later commit is journaled write-ahead; :meth:`save_snapshot`
  truncates segments the new snapshot covers.

Threads, not processes: search holds the GIL, so a batch's *CPU* time is
not divided across cores — what batching buys is overlap of cache hits
with in-flight searches, deduplication of identical queries through the
cache, deadline enforcement, and a single shared warm engine.  The
process tier (:mod:`repro.cluster`) runs the same core over worker
processes, each of which holds one of these.

Deadlines are enforced *cooperatively*: the service arms a
:class:`~repro.core.cancellation.CancellationToken` from each request's
deadline and threads it into the engine's pop loop, so a deadline miss
actually stops the losing search within a couple of check intervals and
frees its worker thread (``benchmarks/bench_cancellation.py`` holds it
to that bound).  The expired query's
response is a structured ``error_type="DeadlineExceededError"``; with
``QueryRequest.allow_partial=True`` it additionally carries the
bound-certified answers the search had already released, flagged
``complete=False``.  Explicit cancellation rides the same token:
requests carrying a ``request_id`` can be stopped mid-flight through
:meth:`QueryService.cancel` (what the HTTP front-end's ``DELETE
/search/<id>`` and client-disconnect mapping call).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
import weakref
from collections import deque
from pathlib import Path
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.core.answer import SearchResult
from repro.core.cancellation import CancellationToken
from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import (
    DeadlineExceededError,
    SearchCancelledError,
    SnapshotError,
    UnknownDatasetError,
    WalError,
)
from repro.service.cache import ResultCache, canonical_cache_key
from repro.service.core import (
    QueryRequest,
    QueryResponse,
    ServiceCore,
    coerce_request,
    normalize_search_args,
    request_fingerprint,
)
from repro.service.metrics import metrics_view
from repro.service.snapshot_header import snapshot_info
from repro.telemetry.accounting import WorkloadAnalytics
from repro.telemetry.metrics import strip_samples
from repro.telemetry.slo import SloObjective
from repro.telemetry.trace import new_trace_id, use_span
from repro.wal.log import MutationLog, default_wal_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.dataset import MutableDataset
    from repro.live.mutations import MutationResult

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "coerce_request",
    "normalize_search_args",
    "request_fingerprint",
]

_MISS = object()


@functools.lru_cache(maxsize=256)
def _accepts_token(search_fn) -> bool:
    """Whether an engine's ``search`` takes the ``token`` kwarg.

    Duck-typed engines (tests, embedders) predating cooperative
    cancellation must keep working; they simply run uncancellable, with
    the deadline watcher's structured response as the fallback.

    Memoized — the answer is a property of the function, and the
    reflection must stay off the per-request hot path.  Callers pass
    the *underlying* function (``__func__`` for bound methods) so the
    cache neither grows per bound-method object nor pins engine
    instances alive.
    """
    try:
        parameters = inspect.signature(search_fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return False
    return "token" in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def _file_digest(path: Optional[str]) -> Optional[str]:
    """Content digest of the snapshot file at ``path``, or None: no
    path, an unreadable file, or one that predates digests."""
    try:
        return snapshot_info(path).get("content_digest") if path else None
    except SnapshotError:
        return None


@dataclass(eq=False)
class _Dataset:
    """One registration of a dataset name: what is served (``engine``
    once built, ``factory`` while still lazy, ``live`` after the upgrade
    to a :class:`~repro.live.MutableDataset`), the version lineage
    (``base``), the snapshot provenance (``source`` path, ``digest`` of
    the file actually loaded) and the attached mutation ``log``.

    These change *together*: a replacement is a new record
    (:meth:`QueryService._install`), never an edit of this one, so
    ``service._datasets.get(name) is record`` is the one staleness
    check — a slow lazy build that lost to a re-registration, a log
    attached to a registration that is gone.  Provenance therefore goes
    on every path that is not itself a snapshot registration — a later
    :meth:`~QueryService.reload_snapshot` against the old file cannot
    see a matching digest and incorrectly no-op while the service
    serves something else — and so does the log: its sequence lineage
    belongs to the replaced content, and leaving it attached would
    wedge every later commit on an out-of-order append (re-attach
    explicitly — or via ``reload_snapshot``, which starts a fresh log
    itself).  Fields change only under the registry lock, ``source`` never.
    """

    engine: Optional[KeywordSearchEngine] = None
    factory: Optional[Callable[[], KeywordSearchEngine]] = None
    live: Optional["MutableDataset"] = None
    base: int = 0
    source: Optional[str] = None
    digest: Optional[str] = None
    #: Seconds the last engine build took: None until a lazy
    #: registration is first built.
    build_seconds: Optional[float] = None
    log: Optional[MutationLog] = None
    #: Per-registration, so under concurrent traffic exactly one thread
    #: pays the construction cost (and a replacement's build never
    #: queues behind the build it made stale).
    build_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def version(self) -> int:
        """The dataset version cache keys embed.

        ``base`` is a generation counter: every replacement
        (re-register, reload) starts past the prior effective version,
        and a mutable dataset adds its own monotone epoch on top.  The
        sum therefore strictly increases across every event that can
        change answers — commits and replacements — which is the
        invariant that makes version-keyed cache entries impossible to
        serve stale.
        """
        live = self.live
        return self.base + live.version if live is not None else self.base

    @property
    def serving(self) -> Optional[KeywordSearchEngine]:
        """The engine a request runs on now — the live dataset's current
        epoch, else the built engine — or None while still lazy."""
        return self.live.engine if self.live is not None else self.engine


class _DatasetJournal:
    """Commit journal adapter pinning WAL sequence numbers to the
    service's *effective* dataset version.

    ``MutableDataset`` only knows its own epoch counter; the cache keys
    (and replica drift checks) run on the effective version — base
    generation plus epoch.  Appending with the explicit expected
    sequence makes :class:`repro.wal.MutationLog` reject any
    misalignment, failing the commit loudly instead of recording an
    unreplayable history.  A replaced registration's log is closed
    (:meth:`QueryService._install`), so a stale dataset's commit fails
    the same way.
    """

    __slots__ = ("_record",)

    def __init__(self, record: _Dataset):
        # Weak: the record owns the dataset this journal is attached to.
        self._record = weakref.ref(record)

    def append(self, mutations, *, seq=None, recompute_prestige=False) -> int:
        del seq  # the record's effective version is authoritative
        record = self._record()
        if record is None:
            raise WalError("the registration this dataset journaled for is gone")
        return record.log.append(
            mutations,
            seq=record.version + 1,
            recompute_prestige=recompute_prestige,
        )


class _Once:
    """A test-and-set token: exactly one of N racers wins the claim.

    Settles who records a deadline-missed request's metrics — the
    deadline watcher or the still-running worker — without the window a
    bare ``Event`` check-then-act leaves open.
    """

    __slots__ = ("_lock", "_claimed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claimed = False

    def claim(self) -> bool:
        with self._lock:
            if self._claimed:
                return False
            self._claimed = True
            return True


class QueryService(ServiceCore):
    """The thread tier: a :class:`~repro.service.core.ServiceCore` that
    owns engines, a result cache and an executor, and runs every search
    in this process.

    Usable as a context manager; :meth:`close` shuts the executor down.

    Every request with a cancellation source is armed with a
    :class:`CancellationToken`, so deadlines and explicit :meth:`cancel`
    calls actually stop the search and free its thread.
    ``cancel_grace`` bounds how long a deadline-missed *partial-results*
    request waits for the cancelled search to hand back what it has —
    cooperative checks make that a few milliseconds; the grace only
    matters if a search is stuck in a non-cooperative section.

    ``tracing``, ``slow_query_threshold`` (None disables the slow-query
    log), ``slo_objectives`` (empty disables SLOs; the
    objectives here are fleet-wide — dataset-scoped ones belong to the
    cluster tier, whose supervisor counters carry a dataset label) and
    ``accounting`` (explain retention plus the workload sketch) switch
    the core's telemetry; see docs/OBSERVABILITY.md.
    """

    #: Cancellation-storm event: this many cancellations inside the
    #: window emit one ``cancellation_storm`` warning (then re-arm only
    #: after a quiet window — a storm is one event, not a stream).
    CANCEL_STORM_THRESHOLD = 10
    CANCEL_STORM_WINDOW = 10.0

    def __init__(
        self,
        *,
        cache_capacity: int = 1024,
        cache_ttl: Optional[float] = None,
        max_workers: int = 8,
        clock: Callable[[], float] = time.monotonic,
        cancel_grace: float = 1.0,
        tracing: bool = True,
        slow_query_threshold: Optional[float] = 1.0,
        slo_objectives: Optional[Sequence[SloObjective]] = None,
        accounting: bool = True,
        storage_mode: Optional[str] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        super().__init__(
            cancel_grace=cancel_grace,
            tracing=tracing,
            slow_query_threshold=slow_query_threshold,
            slo_objectives=slo_objectives,
            accounting=accounting,
        )
        self.cache = ResultCache(cache_capacity, cache_ttl, clock=clock)
        if accounting:
            self.analytics = WorkloadAnalytics()
        # Default storage tier for snapshot registrations: None defers
        # to each load's own resolution (explicit arg, then the
        # REPRO_SNAPSHOT_MODE environment hook, then "mapped").
        self._storage_mode = storage_mode
        self._max_workers = max_workers
        self._datasets: dict[str, _Dataset] = {}
        self._registry_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        # Cancellation-storm detector: a burst of cancellations usually
        # means one shared cause (deadline too tight after a deploy, a
        # stuck shard) rather than many unlucky queries — worth one
        # operational event, not one per request.
        self._cancel_times: deque[float] = deque()
        self._cancel_storm_lock = threading.Lock()
        self._cancel_storm_until = 0.0
        self._closed = False
        self._register_telemetry_collectors()

    def _register_telemetry_collectors(self) -> None:
        """Declare the service/live/wal metric families and the
        export-time collector that reads their live state."""
        registry = self.registry
        cache_entries = registry.gauge(
            "repro_cache_entries", "Result cache entries currently held"
        )
        cache_capacity = registry.gauge(
            "repro_cache_capacity", "Result cache capacity"
        )
        cache_ttl = registry.gauge(
            "repro_cache_ttl_seconds",
            "Result cache entry time-to-live (no sample: entries never expire)",
            merge="max",
        )
        cache_lookup_hits = registry.counter(
            "repro_cache_lookup_hits_total",
            "Result cache lookups that found a live entry",
        )
        cache_lookup_misses = registry.counter(
            "repro_cache_lookup_misses_total",
            "Result cache lookups that found nothing (or an expired entry)",
        )
        cache_evictions = registry.counter(
            "repro_cache_evictions_total", "Result cache LRU evictions"
        )
        cache_expirations = registry.counter(
            "repro_cache_expirations_total", "Result cache TTL expirations"
        )
        datasets_built = registry.gauge(
            "repro_datasets_built", "Datasets with a built engine"
        )
        dataset_version = registry.gauge(
            "repro_dataset_version",
            "Live-mutation epoch per dataset",
            labels=("dataset",),
            merge="max",
        )
        dataset_built = registry.gauge(
            "repro_dataset_built",
            "1 when the dataset's engine is built, 0 while it is still lazy",
            labels=("dataset",),
            merge="max",
        )
        dataset_build_seconds = registry.gauge(
            "repro_dataset_build_seconds",
            "Seconds the dataset's last engine build took (slowest replica)",
            labels=("dataset",),
            merge="max",
        )
        registry.counter(
            "repro_mutations_applied_total",
            "Mutation batches committed",
            labels=("dataset",),
        )
        # Mapped-storage residency (datasets served from a memory-mapped
        # snapshot; see docs/STORAGE.md).  Fault counters measure
        # post-pin demand misses; byte gauges are working-set estimates.
        storage_mapped = registry.gauge(
            "repro_storage_mapped_bytes",
            "Bytes of snapshot data served via memory mapping per dataset",
            labels=("dataset",),
            merge="max",
        )
        storage_resident = registry.gauge(
            "repro_storage_resident_bytes",
            "Estimated bytes of materialized (resident) mapped rows per dataset",
            labels=("dataset",),
            merge="max",
        )
        storage_pinned_nodes = registry.gauge(
            "repro_storage_pinned_nodes",
            "Adjacency rows pinned at load time per mapped dataset",
            labels=("dataset",),
            merge="max",
        )
        storage_pinned_terms = registry.gauge(
            "repro_storage_pinned_terms",
            "Posting lists pinned at load time per mapped dataset",
            labels=("dataset",),
            merge="max",
        )
        storage_pinned_bytes = registry.gauge(
            "repro_storage_pinned_bytes",
            "Estimated bytes of load-time pinned rows per mapped dataset",
            labels=("dataset",),
            merge="max",
        )
        storage_row_faults = registry.counter(
            "repro_storage_row_faults_total",
            "Adjacency rows materialized on demand per mapped dataset",
            labels=("dataset",),
        )
        storage_posting_faults = registry.counter(
            "repro_storage_posting_faults_total",
            "Posting lists materialized on demand per mapped dataset",
            labels=("dataset",),
        )

        # The registry this collector is stored in belongs to ``self``:
        # a strong capture would make every service cyclic garbage.
        owner = weakref.ref(self)

        def collect() -> None:
            self = owner()
            if self is None:
                return
            stats = self.cache.stats()
            cache_entries.set(stats["size"])
            cache_capacity.set(stats["capacity"])
            if stats["ttl"] is not None:
                cache_ttl.set(stats["ttl"])
            cache_lookup_hits.set_total(stats["hits"])
            cache_lookup_misses.set_total(stats["misses"])
            cache_evictions.set_total(stats["evictions"])
            cache_expirations.set_total(stats["expirations"])
            with self._registry_lock:
                rows = [
                    (name, r.version, r.factory is None, r.build_seconds, r.engine)
                    for name, r in self._datasets.items()
                ]
            datasets_built.set(sum(built for _, _, built, _, _ in rows))
            self._wal_telemetry.collect(self._logs())
            for name, version, built, seconds, engine in rows:
                dataset_version.set(version, dataset=name)
                dataset_built.set(int(built), dataset=name)
                if seconds is not None:
                    dataset_build_seconds.set(seconds, dataset=name)
                # Tolerate engine doubles without a graph (tests).
                storage = getattr(getattr(engine, "graph", None), "storage", None)
                if storage is None:
                    continue
                counters = storage.snapshot()
                storage_mapped.set(counters["mapped_bytes"], dataset=name)
                storage_resident.set(counters["resident_bytes"], dataset=name)
                storage_pinned_nodes.set(counters["pinned_nodes"], dataset=name)
                storage_pinned_terms.set(counters["pinned_terms"], dataset=name)
                storage_pinned_bytes.set(counters["pinned_bytes"], dataset=name)
                storage_row_faults.set_total(counters["row_faults"], dataset=name)
                storage_posting_faults.set_total(
                    counters["posting_faults"], dataset=name
                )

        registry.add_collector(collect)

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register_engine(self, name: str, engine: KeywordSearchEngine) -> None:
        """Register an already-built engine under ``name``.

        Re-registering an existing name replaces its engine, bumps the
        dataset's version (so version-keyed cache entries go stale) and
        purges its cached results — the old engine's answers must not
        outlive it.
        """
        self._install(name, _Dataset(engine=engine, build_seconds=0.0))

    def register_factory(
        self, name: str, factory: Callable[[], KeywordSearchEngine]
    ) -> None:
        """Register a lazy engine builder; it runs (once) on first use.

        Like :meth:`register_engine`, replacing an existing name bumps
        the dataset's version and purges its cached results.
        """
        self._install(name, _Dataset(factory=factory))

    def register_mutable(
        self,
        name: str,
        dataset: "MutableDataset",
        *,
        wal_path=None,
        wal_sync: str = "batched",
    ) -> None:
        """Register a live :class:`~repro.live.MutableDataset`.

        Queries run against the dataset's *current epoch* engine;
        :meth:`apply` commits mutations and advances the version the
        result cache is keyed by.  ``wal_path`` opens (or resumes) a
        durable mutation log there and journals every commit into it —
        shorthand for a follow-up :meth:`attach_wal` call; ``wal_sync``
        picks the :mod:`repro.wal` sync policy (``"commit"`` fsyncs
        every commit, the ``"batched"`` default flushes each commit and
        fsyncs periodically, ``"off"`` leaves flushing to rotation).
        """
        self._install(name, _Dataset(live=dataset, build_seconds=0.0))
        if wal_path is not None:
            self.attach_wal(name, wal_path, sync=wal_sync)

    def _install(self, name: str, record: _Dataset) -> None:
        """Make ``record`` the registration of ``name`` — the one step
        every ``register_*`` and :meth:`reload_snapshot` ends in.

        One lock acquisition decides everything a replacement means:
        the new base starts past the prior effective version, and the
        old record — engine, provenance and log with it — stops being
        served.  Outside the lock (closing fsyncs) the replaced log is
        closed, so a stale dataset still holding it through its journal
        fails its next commit loudly instead of appending to a lineage
        no longer served, and the dataset's cached results are purged
        and the shred recorded as an operational event (a replaced
        engine's answers must not outlive it — and an operator should
        see that the fleet just lost its warm cache for the dataset).
        """
        with self._registry_lock:
            old = self._datasets.get(name)
            if old is not None:
                record.base = max(record.base, old.version + 1)
            self._datasets[name] = record
        if old is None:
            return
        if old.log is not None:
            old.log.close()
        purged = self.cache.purge(lambda key: key[0] == name)
        self.event_log.emit(
            "cache_shred",
            f"purged {purged} cached result(s) for {name!r} after "
            f"re-registration",
            severity="info",
            dataset=name,
            source="service",
            purged=purged,
        )

    def register_database(
        self,
        name: str,
        db,
        *,
        params: Optional[SearchParams] = None,
        compute_prestige: bool = True,
    ) -> None:
        """Register a database to be built into an engine on first use."""
        self.register_factory(
            name,
            lambda: KeywordSearchEngine.from_database(
                db, params=params, compute_prestige=compute_prestige
            ),
        )

    def register_snapshot(
        self,
        name: str,
        path,
        *,
        params: Optional[SearchParams] = None,
        storage_mode: Optional[str] = None,
        pin_policy=None,
    ) -> None:
        """Register a disk snapshot; loading replaces ``from_database``.

        ``storage_mode`` picks the tier the lazy build loads into
        (``ram`` / ``mapped``); omitted, it falls back to the
        service-wide default from the constructor, then the usual
        per-load resolution.  ``pin_policy`` is forwarded to the
        load (see :class:`repro.storage.PinPolicy`).
        """
        record = self._snapshot_record(path, params, storage_mode, pin_policy)
        self._install(name, record)

    def _snapshot_record(self, path, params, storage_mode, pin_policy) -> _Dataset:
        from repro.service.snapshot import load_engine

        if storage_mode is None:
            storage_mode = self._storage_mode
        # The factory is stored on this service until first use, so it
        # captures what the load needs, not ``self`` — a pending
        # (never-built) registration must not make the service cyclic.
        return _Dataset(
            factory=lambda: load_engine(
                path,
                params=params,
                storage_mode=storage_mode,
                pin_policy=pin_policy,
            ),
            # Remembered (no I/O here — the file may not exist yet) so
            # reload_snapshot can later compare content digests and
            # no-op when this worker already holds the epoch.
            source=str(path),
        )

    def reload_snapshot(
        self,
        name: str,
        path,
        *,
        params: Optional[SearchParams] = None,
        force: bool = False,
        storage_mode: Optional[str] = None,
        pin_policy=None,
    ) -> dict:
        """Re-register ``name`` from ``path`` without a process restart.

        The fleet-wide purge/reload story: compares the new file's
        content digest (:func:`repro.service.snapshot.snapshot_info`)
        against what this service is already serving and **no-ops**
        when they match — a broadcast reload is then free on replicas
        that already hold the epoch.  A dataset with *committed* live
        mutations never no-ops: reloading it deliberately resets to
        the snapshot.  Returns ``{"dataset", "reloaded", "version",
        "digest"}``.
        """
        info = snapshot_info(path)
        digest = info.get("content_digest")
        if not force and digest is not None:
            current = self._current_snapshot_digest(name)
            if current == digest:
                return {
                    "dataset": name,
                    "reloaded": False,
                    "version": self.dataset_version(name),
                    "digest": digest,
                }
        record = self._snapshot_record(path, params, storage_mode, pin_policy)
        record.digest = digest
        # Convergence rule: every replica adopting this file lands
        # on ``snapshot_version + 1`` — strictly above any replica
        # the file could have been saved from (the saver stamps its
        # own effective version), so cache keys stay monotone AND
        # replicas with different histories stop reporting drift
        # for identical content.  Reloading a snapshot *older* than
        # this service's own state keeps the local ``prior + 1``
        # (the max), which is the genuinely-ambiguous rollback case
        # — drift stays visible until a fresh snapshot propagates.
        record.base = int(info.get("dataset_version") or 0) + 1
        with self._registry_lock:
            old = self._datasets.get(name)
            old_log = old.log if old is not None else None
        if old_log is not None:
            # The old log's records applied on top of the *old* base,
            # so against the reloaded file they are unreplayable
            # history.  Closing it first pins the old version — a
            # commit racing this reload fails loudly against the closed
            # log, never lands an old-lineage batch in the new one or
            # an unjournaled one in a window without a log — so the
            # fresh log can open where the new record will start and
            # be installed with it.  (Another registration slipping in
            # between leaves the log behind the installed base, and its
            # sequence check refuses every commit: loud, not lost.)
            old_log.close()
            record.base = max(record.base, old.version + 1)
            record.log = MutationLog.fresh(
                old_log.path, sync=old_log.sync_policy, start_seq=record.base
            )
        self._install(name, record)
        version = record.base
        self.event_log.emit(
            "snapshot_reload",
            f"reloaded {name!r} from snapshot (version {version})",
            severity="info",
            dataset=name,
            source="service",
            version=version,
            digest=digest,
        )
        return {
            "dataset": name,
            "reloaded": True,
            "version": version,
            "digest": digest,
        }

    def _current_snapshot_digest(self, name: str) -> Optional[str]:
        """Digest of the snapshot this service serves for ``name``, or
        None when unknown (never registered from a file, mutated since,
        or the file predates digests)."""
        with self._registry_lock:
            record = self._datasets.get(name)
            if record is None:
                return None
            if record.live is not None and record.live.version > 0:
                # A commit landed: the served state diverged from any
                # file.  (A version-0 mutable — upgraded but never
                # successfully mutated — still equals its snapshot.)
                return None
            if record.digest is not None:
                return record.digest
            if record.factory is None:
                # Built, but not from a digest-recorded snapshot load:
                # we cannot prove equality, so never no-op.
                return None
        # Still lazy: the registered factory will read this same file
        # when it first builds, so the file's current digest *is* what
        # this service would serve.
        return _file_digest(record.source)

    def attach_wal(
        self,
        name: str,
        path=None,
        *,
        sync: str = "batched",
        writable: bool = True,
        strict: bool = True,
        **log_knobs,
    ) -> dict:
        """Open dataset ``name``'s durable mutation log: replay what the
        served state is missing, then journal every later commit.

        This is the crash-recovery entry point (call it right after
        registering the dataset): records newer than the served state —
        the snapshot's ``dataset_version`` for snapshot-registered
        datasets, the current effective version otherwise — are applied
        in sequence, landing the dataset on exactly the log's last
        durable epoch.  ``path`` defaults to the registered snapshot's
        sibling ``<snapshot>.wal`` (:func:`repro.wal.default_wal_path`).

        ``sync`` is the durability knob per commit (see
        :mod:`repro.wal`): ``"commit"`` fsyncs each append, the default
        ``"batched"`` flushes each append (commits survive a process
        ``kill -9``) and fsyncs every few, ``"off"`` defers flushing
        entirely.  ``writable=False`` replays without taking ownership
        of the log — what a cluster replica does, since only the
        supervisor appends.  ``strict=False`` lets replay stop at a
        record that fails to apply (warning) instead of raising.

        Raises :class:`~repro.errors.WalError` when exact recovery is
        impossible: a replay gap (log truncated past the snapshot) or,
        for writable logs, a log *behind* the served state (commits
        happened unjournaled — save a snapshot and reset instead).
        Returns ``{"dataset", "path", "replayed", "wal_seq",
        "version"}``.
        """
        with self._registry_lock:
            record = self._datasets.get(name)
        if record is None:
            raise UnknownDatasetError(name)
        source = record.source
        if path is None:
            if source is None:
                raise ValueError(
                    f"dataset {name!r} was not registered from a snapshot; "
                    f"pass an explicit WAL path"
                )
            path = default_wal_path(source)
        snap_version = 0
        if source is not None:
            try:
                snap_version = int(
                    snapshot_info(source).get("dataset_version") or 0
                )
            except SnapshotError:
                snap_version = 0
        with self._registry_lock:
            live_version = record.live.version if record.live is not None else 0
            if live_version == 0 and record.base < snap_version:
                # Adopt the snapshot's version baseline: WAL sequence
                # numbers continue the snapshot's history instead of
                # restarting at zero on every process start.  Only for
                # a dataset with no live commits — absorbing committed
                # (necessarily unjournaled) epochs into the baseline
                # would let old log records replay on top of a
                # diverged state instead of failing loudly below.
                record.base = snap_version
            effective = record.version
        if writable:
            log = MutationLog(path, sync=sync, start_seq=effective, **log_knobs)
        else:
            try:
                log = MutationLog(path, readonly=True, **log_knobs)
            except WalError:
                # No log on disk yet: nothing to recover, nothing to own.
                return {
                    "dataset": name,
                    "path": str(path),
                    "replayed": 0,
                    "wal_seq": effective,
                    "version": effective,
                }
        try:
            replayed = 0
            if log.last_seq > effective:
                dataset = self._mutable_dataset(name)
                replayed = dataset.replay_records(
                    log.records(start_after=effective),
                    expected=effective + 1,
                    strict=strict,
                )
                if replayed:
                    self.cache.purge(lambda key: key[0] == name)
                if strict and log.last_seq > self.dataset_version(name):
                    raise WalError(
                        f"replay gap for {name!r}: the log ends at seq "
                        f"{log.last_seq} but its retained records only "
                        f"reach version {self.dataset_version(name)} "
                        f"(older segments were truncated past this "
                        f"snapshot; recover from a newer one)"
                    )
            effective = self.dataset_version(name)
            if writable and log.last_seq < effective:
                raise WalError(
                    f"WAL for {name!r} ends at seq {log.last_seq} but the "
                    f"served state is already at version {effective}: "
                    f"commits happened without a journal.  save_snapshot() "
                    f"and attach a fresh log instead"
                )
            if writable:
                with self._registry_lock:
                    if self._datasets.get(name) is not record:
                        raise WalError(
                            f"dataset {name!r} was re-registered while its "
                            f"log was being attached"
                        )
                    stale, record.log = record.log, log
                    live = record.live
        except BaseException:
            log.close()
            raise
        if writable:
            if stale is not None and stale is not log:
                stale.close()
            if live is not None:
                live.attach_journal(_DatasetJournal(record))
        else:
            log.close()
        self._wal_telemetry.note_recovery(name, log, replayed)
        return {
            "dataset": name,
            "path": str(path),
            "replayed": replayed,
            "wal_seq": log.last_seq,
            "version": effective,
        }

    def save_snapshot(self, name: str, path):
        """Write dataset ``name``'s built state to ``path`` (building it
        first if still lazy); returns the path written.  The snapshot
        records the dataset's current version.  A mutable dataset is
        compacted first — snapshots hold flat arrays, and compaction
        changes no answer (or version).  With a WAL attached **and**
        ``path`` being the dataset's registered snapshot source,
        segments the new snapshot makes redundant (every record at or
        below its ``dataset_version``) are deleted afterwards — the
        log only ever needs to reach back to the newest snapshot.
        Saving to any *other* path (a backup, a new provision file)
        leaves the log alone: crash recovery still registers the
        original source and must be able to replay up from it."""
        from repro.service.snapshot import save_engine, save_snapshot

        with self._registry_lock:
            record = self._datasets.get(name)
            live = record.live if record is not None else None
        if live is not None:
            epoch = live.compact()
            # The version must come from the epoch actually being
            # written, not a later dataset_version() read — a commit
            # racing this save would otherwise stamp (and truncate the
            # WAL past) a version the file does not contain.
            with self._registry_lock:
                version = record.base + epoch.version
            written = save_snapshot(
                path, epoch.graph, epoch.index, version=version
            )
        else:
            engine = self.engine(name)
            version = self.dataset_version(name)
            written = save_engine(path, engine, version=version)
        with self._registry_lock:
            record = self._datasets[name]
            log, source = record.log, record.source
        if (
            log is not None
            and source is not None
            and Path(source).resolve() == written.resolve()
        ):
            log.truncate(version)
        return written

    def datasets(self) -> list[str]:
        """Registered dataset names (built or lazy), sorted."""
        with self._registry_lock:
            return sorted(self._datasets)

    def dataset_version(self, name: str) -> int:
        """The dataset's current effective version (0 until it changes).

        This is what result-cache keys embed: every mutation commit and
        every engine replacement advances it, so stale cached answers
        become unreachable the instant the new state is visible (see
        :attr:`_Dataset.version` for the monotonicity argument).
        """
        with self._registry_lock:
            record = self._datasets.get(name)
            return record.version if record is not None else 0

    def dataset_versions(self) -> dict[str, int]:
        """``{dataset: version}`` for every registered dataset."""
        return {name: self.dataset_version(name) for name in self.datasets()}

    def engine(self, name: str) -> KeywordSearchEngine:
        """The engine for ``name``, building/loading it on first use.

        A mutable dataset answers with its *current epoch's* engine —
        requests that already hold an older epoch's engine keep
        searching it unperturbed (MVCC by immutability).

        Record identity guards the slow build: if the dataset is
        re-registered (or reloaded) while a lazy build is in flight,
        the stale build's result is discarded and resolution restarts —
        storing it would silently shadow the replacement under the
        already-bumped cache version.
        """
        while True:
            with self._registry_lock:
                record = self._datasets.get(name)
                if record is None:
                    raise UnknownDatasetError(name)
                engine = record.serving
                if engine is not None:
                    return engine
            with record.build_lock:
                # Double-checked: a concurrent builder may have
                # finished (factory cleared), or a re-registration may
                # have replaced the record — both restart resolution.
                with self._registry_lock:
                    factory = record.factory
                    if factory is None or self._datasets.get(name) is not record:
                        continue
                start = time.perf_counter()
                # The digest of the file actually loaded (the file may
                # be rewritten later — reload_snapshot compares against
                # what this service *serves*, not what is on disk now,
                # nor what was there when the reload registered it).  A
                # concurrent swap between the two reads at worst records
                # a stale digest, which degrades to an unnecessary
                # reload.
                digest = _file_digest(record.source)
                engine = factory()
                elapsed = time.perf_counter() - start
                with self._registry_lock:
                    if self._datasets.get(name) is not record:
                        continue  # replaced mid-build: discard stale engine
                    record.engine, record.factory = engine, None
                    record.build_seconds, record.digest = elapsed, digest
                return engine

    def warmup(self, names: Optional[Sequence[str]] = None) -> dict[str, float]:
        """Build/load the given datasets (default: all registered) now.

        Returns ``{name: build_seconds}`` — snapshot-backed entries come
        in orders of magnitude under ``from_database`` ones, which is the
        point of snapshotting.
        """
        targets = list(names) if names is not None else self.datasets()
        timings = {}
        for name in targets:
            self.engine(name)
            with self._registry_lock:
                timings[name] = self._datasets[name].build_seconds or 0.0
        return timings

    # ------------------------------------------------------------------
    # live mutations
    # ------------------------------------------------------------------
    def apply(self, dataset: str, mutations: Sequence) -> "MutationResult":
        """Apply a mutation batch to ``dataset`` and commit a new epoch.

        ``mutations`` holds :mod:`repro.live.mutations` objects or
        their wire dicts (what ``POST /mutate`` ships).  A dataset not
        yet registered mutable is upgraded in place on first apply: its
        built engine is wrapped in a
        :class:`~repro.live.MutableDataset` and every later query runs
        against the dataset's current epoch.

        Correctness contract: the commit bumps the dataset version the
        result cache is keyed by, so a result computed against the old
        epoch can never be served afterwards; in-flight searches keep
        the epoch they started on and complete unperturbed.  The old
        version's entries are also purged eagerly — pure capacity
        hygiene, the version key already made them unreachable.
        """
        live = self._mutable_dataset(dataset)
        outcome = live.mutate(mutations)
        version = self.dataset_version(dataset)
        purged = self.cache.purge(
            lambda key: key[0] == dataset and key[-1] != version
        )
        self.registry.counter("repro_mutations_applied_total").inc(
            dataset=dataset
        )
        self.event_log.emit(
            "mutation_commit",
            f"committed {outcome.applied} mutation(s) to {dataset!r} "
            f"(version {version}, {purged} cached result(s) shredded)",
            severity="info",
            dataset=dataset,
            source="service",
            version=version,
            applied=outcome.applied,
            cache_purged=purged,
        )
        from repro.live.mutations import MutationResult

        return MutationResult(
            dataset=dataset,
            version=version,
            applied=outcome.applied,
            new_nodes=outcome.new_nodes,
            compacted=outcome.epoch.compacted,
            cache_purged=purged,
        )

    def _mutable_dataset(self, name: str) -> "MutableDataset":
        """The live dataset for ``name``, upgrading a frozen engine on
        first use (double-checked under the registry lock)."""
        from repro.live.dataset import MutableDataset

        while True:
            self.engine(name)  # may build lazily; raises UnknownDataset
            with self._registry_lock:
                record = self._datasets[name]
                if record.live is not None:
                    return record.live
                if record.engine is None:
                    # Re-registered (lazily) between the build and this
                    # lock: wrapping the engine just resolved would
                    # silently discard the replacement.  Resolve again.
                    continue
                dataset = MutableDataset.from_engine(record.engine)
                if record.log is not None:
                    # A WAL attached while the dataset was still frozen
                    # starts journaling at the first commit that can
                    # exist — this upgrade.
                    dataset.attach_journal(_DatasetJournal(record))
                record.live, record.engine = dataset, None
                # Snapshot provenance survives the upgrade: at version
                # 0 the served content still equals the file, so a
                # reload no-op stays possible — important because a
                # *failed* (rolled-back) batch also lands here.  The
                # digest check goes dead the moment a commit lands
                # (_current_snapshot_digest keys off dataset.version).
                return dataset

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
        token: Optional[CancellationToken] = None,
    ) -> QueryResponse:
        """Execute one query synchronously.

        Accepts either a prepared :class:`QueryRequest` or the
        ``(dataset, query, ...)`` shorthand — not both: keyword
        overrides alongside a request object would be silently shadowed
        by the request's own fields, so they are rejected.  With a
        ``timeout`` the request runs on the executor so the deadline is
        enforced.  ``token`` is an optional caller-owned
        :class:`CancellationToken` (composes with the deadline token
        the service arms itself).
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
        if request.timeout is None:
            # Nothing to watch the clock for: run on the caller's thread
            # (no executor hop — a cache hit costs microseconds).
            return self._execute(request, None, self._arm_token(request, token))
        return self.search_many([request], token=token)[0]

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def metrics(self, *, include_samples: bool = False) -> dict:
        """Latency percentiles, cache and error counters as a plain
        dict: :func:`~repro.service.metrics.metrics_view` of the
        registry export, plus the export itself under ``"registry"``.

        ``include_samples=True`` adds each algorithm's latency window
        under ``latency_samples``.
        """
        exported = self.registry.export(include_samples=True)
        view = metrics_view(exported, include_samples=include_samples)
        view["registry"] = strip_samples(exported)
        return view

    def health(self) -> dict:
        """Liveness summary — what ``GET /healthz`` serves: one process
        is up if it answers, so the content is the registered datasets
        and their versions."""
        return {
            "status": "ok",
            "datasets": self.datasets(),
            "versions": self.dataset_versions(),
        }

    def close(self, *, wait: bool = True) -> None:
        """Shut the executor down (idempotent); engines stay usable.

        ``wait=False`` returns immediately, leaving any in-flight
        (e.g. deadline-abandoned) searches to finish on their worker
        threads in the background — the choice for callers whose own
        deadline matters more than a clean join.
        """
        with self._executor_lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=wait)
                self._executor = None
        for log in self._logs().values():
            log.close()

    def _logs(self) -> dict[str, MutationLog]:
        """Attached logs by dataset (a copy: see :meth:`wal_seqs`)."""
        with self._registry_lock:
            return {
                name: record.log
                for name, record in self._datasets.items()
                if record.log is not None
            }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _arm_token(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> Optional[CancellationToken]:
        """The token a request's search will tick, or None.

        A fresh token per request — deadline from ``request.timeout``
        (anchored now, i.e. at submission), ``check_every`` from the
        effective params, the caller's token as parent — so deadline
        expiry, explicit :meth:`cancel` and a caller-side cancel all
        stop the same search.  A request with no cancellation source at
        all (no deadline, no caller token, no ``request_id``) runs
        token-free, which also keeps duck-typed engines without a
        ``token`` kwarg working.
        """
        if (
            request.timeout is None
            and token is None
            and request.request_id is None
        ):
            return None
        if request.params is not None:
            interval = request.params.cancel_check_interval
        else:
            # Peek only at already-built engines: arming must not pay
            # (or serialize on) a lazy build — that happens on the
            # worker thread in _execute.
            with self._registry_lock:
                record = self._datasets.get(request.dataset)
                engine = record.serving if record is not None else None
            interval = (
                engine.params.cancel_check_interval
                if engine is not None
                else SearchParams().cancel_check_interval
            )
        deadline = (
            time.monotonic() + request.timeout
            if request.timeout is not None
            else None
        )
        return CancellationToken(
            deadline=deadline, check_every=interval, parent=token
        )

    def _submit(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> tuple[Future, _Once, Optional[CancellationToken]]:
        """Queue ``request`` on the executor; the handle is the future,
        the exactly-once metrics claim and the armed token."""
        record = _Once()
        armed = self._arm_token(request, token)
        # Register for cancel() here, at submission — not when _execute
        # starts — so a request still *queued* behind a busy executor is
        # already cancellable (its pre-fired token then stops the search
        # at the first pop).  The cluster tier's cancel message gives
        # queued requests the same treatment.
        registered = self._register_active(request, armed)
        try:
            with self._executor_lock:
                if self._closed:
                    raise RuntimeError("QueryService is closed")
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self._max_workers,
                        thread_name_prefix="repro-query",
                    )
                future = self._executor.submit(
                    self._execute, request, record, armed, time.time()
                )
                return future, record, armed
        except BaseException:
            if registered:
                self._untrack(request.request_id, armed.cancel)
            raise

    def _register_active(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> bool:
        if token is None or request.request_id is None:
            return False
        self._track(request.request_id, token.cancel)
        return True

    def _await(
        self,
        request: QueryRequest,
        handle: tuple[Future, _Once, Optional[CancellationToken]],
        deadline: Optional[float],
    ) -> QueryResponse:
        future, record, token = handle
        if deadline is None:
            return future.result()
        remaining = deadline - time.monotonic()
        try:
            return future.result(timeout=max(remaining, 0.0))
        except FutureTimeoutError:
            pass
        # Tell the search to stop (a request with a deadline was armed
        # with a token of its own, never the caller's, which a batch may
        # share): its deadline normally fired already; an explicit
        # cancel also covers a search armed late, e.g. behind a slow
        # engine build.  For partial-results requests, give the search
        # a grace period to hand back what it has — a few milliseconds
        # when checks run — then fall through to the plain deadline
        # response.
        assert token is not None
        token.cancel("deadline")
        if request.allow_partial:
            try:
                return future.result(timeout=self._cancel_grace)
            except FutureTimeoutError:  # pragma: no cover - stuck search
                pass
        # The logical request is recorded exactly once; whoever wins
        # the claim — this deadline watcher or the still-running
        # worker — does the recording.
        return self._deadline_response(
            request,
            "search stopping at its next cooperative check",
            trace_id=request.trace_id,
            record=record.claim(),
        )

    def _execute(
        self,
        request: QueryRequest,
        record: Optional[_Once] = None,
        token: Optional[CancellationToken] = None,
        submitted_at: Optional[float] = None,
    ) -> QueryResponse:
        """Run one request, never raising — any failure (library error,
        broken factory, engine bug) becomes a structured error response,
        the contract :meth:`search_many` promises.  ``record``, when
        given, is the exactly-once metrics claim shared with the
        deadline watcher: if the watcher already recorded this request
        as a deadline miss, this worker stays silent (its result still
        refreshes the cache).  ``token`` is the armed cancellation
        token the search will tick."""
        # Re-registering here is an idempotent overwrite for executor
        # submissions (already registered at _submit time) and the
        # actual registration for the inline no-deadline path.
        registered = self._register_active(request, token)
        try:
            return self._execute_inner(request, record, token, submitted_at)
        finally:
            if registered:
                self._untrack(request.request_id, token.cancel)

    def _execute_inner(
        self,
        request: QueryRequest,
        record: Optional[_Once],
        token: Optional[CancellationToken],
        submitted_at: Optional[float] = None,
    ) -> QueryResponse:
        """Trace wrapper around :meth:`_run_request`: mints the trace id
        when the request carries none, opens the ``worker`` root span,
        synthesizes ``queue_wait`` from the executor hand-off gap, and
        stamps ``request_id`` / ``trace_id`` / ``spans`` onto whatever
        response comes back (every path, success or error)."""
        tracer = self.tracer
        if tracer is None:
            response = self._run_request(request, record, token, None)
            response.request_id = request.request_id
            response.trace_id = request.trace_id
            self._settle(request, response)
            return response
        trace_id = request.trace_id or new_trace_id()
        root = tracer.start_span(
            "worker", trace_id=trace_id, parent_id=request.parent_span_id
        )
        if submitted_at is not None:
            root.child("queue_wait").end(
                duration=max(0.0, root.started_at - submitted_at)
            )
        try:
            response = self._run_request(request, record, token, root)
        except BaseException:
            root.end(status="error")
            raise
        root.set_attributes(
            {
                "dataset": request.dataset,
                "algorithm": request.algorithm,
                "cached": response.cached,
            }
        )
        if request.request_id is not None:
            root.set_attribute("request_id", request.request_id)
        if response.error_type is not None:
            root.set_attribute("error_type", response.error_type)
        root.end(status="ok" if response.ok else "error")
        response.request_id = request.request_id
        response.trace_id = trace_id
        response.spans = tracer.spans_for(trace_id)
        self._settle(request, response)
        return response

    @staticmethod
    def _call_engine(engine, request, run_params, token):
        # ``explain`` is passed only when asked for, so stub engines in
        # tests that don't accept the keyword keep working.
        kwargs = {"algorithm": request.algorithm, "params": run_params}
        if request.explain:
            kwargs["explain"] = True
        if token is not None:
            kwargs["token"] = token
        return engine.search(request.query, **kwargs)

    def _run_request(
        self,
        request: QueryRequest,
        record: Optional[_Once],
        token: Optional[CancellationToken],
        root,
    ) -> QueryResponse:
        start = time.perf_counter()
        try:
            # Version before engine: if a commit lands between the two
            # reads, a result computed on the *new* epoch gets cached
            # under the old (already unreachable) key — wasted space,
            # never a stale answer.  The opposite order could cache an
            # old epoch's answers under the new version.
            version = self.dataset_version(request.dataset)
            engine = self.engine(request.dataset)
            run_params = request.params if request.params is not None else engine.params
            if request.k is not None:
                run_params = run_params.with_(max_results=request.k)
            key = canonical_cache_key(
                request.dataset,
                request.query,
                request.algorithm,
                run_params,
                version=version,
            )
        except Exception as exc:
            return self._error_response(
                request, exc, start, record=record is None or record.claim()
            )

        if root is not None:
            root.set_attribute("dataset_version", version)
            wal = self._datasets[request.dataset].log
            if wal is not None:
                root.set_attribute("wal_seq", wal.last_seq)

        # An explain request must actually run the engine — a cached
        # result has no report to attach — so it skips the cache *read*
        # but still refreshes the cache (stripped) on the way out.
        if request.use_cache and not request.explain:
            cached = self.cache.get(key, _MISS)
            if cached is not _MISS:
                elapsed = time.perf_counter() - start
                if record is None or record.claim():
                    self._metrics.record_request(
                        request.algorithm, elapsed, cached=True
                    )
                if root is not None:
                    root.set_attribute("cache", "hit")
                return QueryResponse(
                    request=request, result=cached, cached=True, elapsed=elapsed
                )
        if root is not None:
            root.set_attribute(
                "cache",
                "miss" if request.use_cache and not request.explain else "bypass",
            )

        search = engine.search
        run_token = (
            token
            if token is not None
            and _accepts_token(getattr(search, "__func__", search))
            else None
        )
        engine_span = root.child("engine") if root is not None else None
        try:
            if engine_span is not None:
                with use_span(engine_span):
                    result = self._call_engine(
                        engine, request, run_params, run_token
                    )
                engine_span.end()
            else:
                result = self._call_engine(engine, request, run_params, run_token)
        except Exception as exc:
            if engine_span is not None:
                engine_span.end(status="error")
            return self._error_response(
                request, exc, start, record=record is None or record.claim()
            )
        if not result.complete:
            return self._cancelled_response(request, result, start, record, token)
        self.cache.put(
            key,
            replace(result, explain=None) if result.explain is not None else result,
        )
        elapsed = time.perf_counter() - start
        if record is None or record.claim():
            self._metrics.record_request(
                request.algorithm, elapsed, cached=False if request.use_cache else None
            )
        return QueryResponse(request=request, result=result, elapsed=elapsed)

    def _cancelled_response(
        self,
        request: QueryRequest,
        result: SearchResult,
        start: float,
        record: Optional[_Once],
        token: Optional[CancellationToken],
    ) -> QueryResponse:
        """The structured response for a cooperatively stopped search.

        Never cached: a ``complete=False`` result is an artifact of one
        request's deadline, not the query's answer.  The partial result
        rides along only when the request opted in via
        ``allow_partial``.
        """
        elapsed = time.perf_counter() - start
        now = time.monotonic()
        reason = result.cancel_reason or "cancelled"
        deadline = token.deadline if token is not None else None
        if reason == "deadline":
            error_type = DeadlineExceededError.__name__
            error = (
                f"deadline of {request.timeout}s exceeded; search stopped "
                f"cooperatively with {len(result.answers)} answers released"
            )
            exception: Exception = DeadlineExceededError(error)
            overrun = max(0.0, now - deadline) if deadline is not None else 0.0
            reclaimed = 0.0
        else:
            error_type = SearchCancelledError.__name__
            error = (
                f"search cancelled with {len(result.answers)} answers released"
            )
            exception = SearchCancelledError(reason)
            overrun = 0.0
            # The measurable win: the thread frees this far ahead of the
            # deadline budget it was allowed to burn.
            reclaimed = max(0.0, deadline - now) if deadline is not None else 0.0
        self._metrics.record_cancellation(
            reason,
            reclaimed_seconds=reclaimed,
            overrun_seconds=overrun,
        )
        self._note_cancellation(now, reason, request.dataset)
        if record is None or record.claim():
            self._metrics.record_error(request.algorithm, error_type)
        return QueryResponse(
            request=request,
            result=result if request.allow_partial else None,
            error=error,
            error_type=error_type,
            elapsed=elapsed,
            exception=exception,
        )

    def _note_cancellation(
        self, now: float, reason: str, dataset: Optional[str]
    ) -> None:
        """Feed the cancellation-storm detector; emit at most one
        ``cancellation_storm`` event per stormy window.  A burst of
        cancellations has one shared cause (a too-tight deadline after
        a deploy, a stuck shard) and deserves one operational event."""
        with self._cancel_storm_lock:
            window = self.CANCEL_STORM_WINDOW
            times = self._cancel_times
            times.append(now)
            while times and times[0] < now - window:
                times.popleft()
            count = len(times)
            if count < self.CANCEL_STORM_THRESHOLD or now < self._cancel_storm_until:
                return
            self._cancel_storm_until = now + window
        try:
            self.event_log.emit(
                "cancellation_storm",
                f"{count} cancellations in the last {window:g}s "
                f"(latest: {reason})",
                severity="warning",
                dataset=dataset,
                source="service",
                count=count,
                window=window,
                reason=reason,
            )
        except Exception:  # pragma: no cover - observability never breaks serving
            pass
