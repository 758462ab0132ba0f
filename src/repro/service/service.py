"""``QueryService``: the serving core on threads, in one process.

:class:`~repro.service.core.ServiceCore` holds what every tier serves
the same way — the request front (``search_many``, deadlines anchored
at submission, malformed items answered in their slots), the result
cache, ``cancel``, the response builders, the telemetry state and the
introspection verbs.
This module is the substrate under it that runs searches *here*, the
layer the ROADMAP's production north star needs above
:class:`~repro.core.engine.KeywordSearchEngine`:

* **Engine registry** — one record per dataset name (what is served,
  its base version and snapshot provenance, which change together: a
  re-registration installs a new record in one step and detaches the
  dataset's log from the core's map; a snapshot's record starts at the
  file's ``dataset_version``).  A record holds a loaded engine: an
  engine built by the caller (:meth:`QueryService.register_engine`), a
  live dataset (:meth:`register_mutable`) or a disk snapshot loaded
  before the record is installed (:meth:`register_snapshot`,
  :meth:`reload`), so restarts skip graph/prestige/index builds and a
  file that does not load raises where it was named, never at a search.
* **Cache state** — the core's result cache keys a request at its
  registration's ``(generation, version)`` and its engine's params
  (``_cache_state``), and every answer carries the version it was
  computed at, read from one epoch together with the engine that ran it.
* **Execution** — the core's two hooks: ``_submit`` queues a request
  on a ``ThreadPoolExecutor`` and ``_await`` watches its deadline; a
  ``search`` without a deadline skips both, and a miss runs on the
  caller's thread (``_search_one``).  Responses never raise: errors
  (unknown dataset, absent keyword, deadline exceeded) come back as
  structured :class:`QueryResponse` objects, the contract an HTTP
  front-end can map onto status codes directly.
* **Metrics** — every request writes the core's
  :class:`~repro.telemetry.metrics.MetricsRegistry` and nothing else.
* **Live mutations** — :meth:`apply` commits a
  :mod:`repro.live` mutation batch against a dataset (upgrading it to
  a :class:`~repro.live.MutableDataset` on first touch): new requests
  see the new epoch, in-flight searches finish on theirs, and the
  result cache is keyed by :meth:`dataset_version` so a commit makes
  stale entries unreachable atomically.
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
import threading
import time
import weakref
from collections import deque
from pathlib import Path
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.answer import SearchResult
from repro.core.cancellation import CancellationToken
from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import (
    DeadlineExceededError,
    SearchCancelledError,
    UnknownDatasetError,
    WalError,
)
from repro.service.core import (
    GENERATIONS,
    QueryRequest,
    QueryResponse,
    ServiceCore,
    coerce_request,
    normalize_search_args,
    request_fingerprint,
)
from repro.service.snapshot_header import file_info
from repro.telemetry.accounting import WorkloadAnalytics
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

@dataclass(eq=False)
class _Dataset:
    """One registration of a dataset name: what is served (``engine``,
    or ``live`` after the upgrade to a
    :class:`~repro.live.MutableDataset`), the version lineage (``base``:
    the ``dataset_version`` of the snapshot file loaded, else 0), the
    snapshot provenance (``source`` path, ``digest`` of the file loaded)
    and the ``generation`` result-cache keys carry.

    These change *together*: a replacement is a new record
    (:meth:`QueryService._install`), never an edit of this one.
    Provenance therefore goes on every path that is not itself a
    snapshot registration: a later :meth:`~QueryService.reload`
    against the old file cannot see a matching digest and incorrectly
    no-op while the service serves something else.  Fields change only
    under the registry lock, ``source`` never.
    """

    engine: Optional[KeywordSearchEngine] = None
    live: Optional["MutableDataset"] = None
    base: int = 0
    generation: int = field(default_factory=GENERATIONS.__next__)
    source: Optional[str] = None
    digest: Optional[str] = None
    #: Seconds the snapshot load took (0 for an engine built elsewhere).
    build_seconds: float = 0.0

    @property
    def version(self) -> int:
        """``base`` plus the live dataset's commits: the position in
        the content's lineage, which a log's sequence numbers share."""
        live = self.live
        return self.base + live.version if live is not None else self.base

    def serving(self) -> tuple[KeywordSearchEngine, int]:
        """The engine a request runs on now (the live dataset's current
        epoch, else the registered engine) and the version it answers
        at, read from one epoch: a commit cannot pair them wrong."""
        if self.live is None:
            return self.engine, self.base
        epoch = self.live.epoch
        return epoch.engine, self.base + epoch.version


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
    owns engines and an executor, and runs every search in this process.

    Usable as a context manager; :meth:`close` shuts the executor down.

    Every request with a cancellation source is armed with a
    :class:`CancellationToken`, so deadlines and explicit :meth:`cancel`
    calls actually stop the search and free its thread; a
    deadline-missed *partial-results* request waits at most
    :attr:`CANCEL_GRACE` for the cancelled search to hand back what it
    has.  An engine is anything whose ``search(query, *, algorithm,
    params, explain, token)`` returns a
    :class:`~repro.core.answer.SearchResult`.

    ``tracing``, ``slow_query_threshold`` (None disables the slow-query
    log), ``slo_objectives`` (empty disables SLOs and the core's ticker;
    the objectives here are fleet-wide — dataset-scoped ones belong to
    the cluster tier, whose supervisor counters carry a dataset label) and
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
        max_workers: int = 8,
        tracing: bool = True,
        slow_query_threshold: Optional[float] = 1.0,
        slo_objectives: Optional[Sequence[SloObjective]] = None,
        accounting: bool = True,
        storage_mode: Optional[str] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        super().__init__(
            cache_capacity=cache_capacity,
            tracing=tracing,
            slow_query_threshold=slow_query_threshold,
            slo_objectives=slo_objectives,
            accounting=accounting,
        )
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
        self._register_telemetry_collectors()

    def _register_telemetry_collectors(self) -> None:
        """Declare the dataset/live/storage metric families and the
        export-time collector that reads their live state."""
        registry = self.registry
        dataset_version = registry.gauge(
            "repro_dataset_version",
            "Live-mutation epoch per dataset",
            labels=("dataset",),
            merge="max",
        )
        dataset_build_seconds = registry.gauge(
            "repro_dataset_build_seconds",
            "Seconds the dataset's last engine build took (slowest replica)",
            labels=("dataset",),
            merge="max",
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

        # Held weakly, as the core's cache collector is.
        owner = weakref.ref(self)

        def collect() -> None:
            self = owner()
            if self is None:
                return
            with self._registry_lock:
                rows = [
                    (name, r.version, r.build_seconds, r.engine)
                    for name, r in self._datasets.items()
                ]
            self._wal_telemetry.collect(self._logs())
            for name, version, seconds, engine in rows:
                dataset_version.set(version, dataset=name)
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

        Re-registering an existing name replaces its engine and purges
        its cached results — the old engine's answers must not outlive
        it.
        """
        self._install(name, _Dataset(engine=engine))

    def register_mutable(self, name: str, dataset: "MutableDataset") -> None:
        """Register a live :class:`~repro.live.MutableDataset`.

        Queries run against the dataset's *current epoch* engine;
        :meth:`apply` commits mutations and advances the version the
        result cache is keyed by; :meth:`attach_wal` makes the commits
        durable.
        """
        self._install(name, _Dataset(live=dataset))

    def _install(
        self, name: str, record: _Dataset, log: Optional[MutationLog] = None
    ) -> None:
        """Make ``record`` the registration of ``name`` — the one step
        every ``register_*`` and :meth:`reload` ends in.

        Under the dataset's mutation lock, so no commit interleaves: the
        old record — engine and provenance with it — stops being served,
        and the dataset's log is detached and closed unless ``log`` is
        the one the new record continues (its lineage belongs to the
        replaced content: left attached, every later commit would wedge
        on an out-of-order append).  The old record's cached results
        (keyed by its generation) are purged and the shred recorded as
        an operational event (:meth:`_shred`): an operator should see
        that the fleet just lost its warm cache for the dataset.
        """
        with self._mutation_lock(name):
            with self._registry_lock:
                old = self._datasets.get(name)
                self._datasets[name] = record
            self._set_log(name, log)
        if old is not None:
            self._shred(name)

    def register_snapshot(self, name: str, path) -> None:
        """Load a disk snapshot and serve it; loading replaces
        ``from_database``.

        The load runs before anything is registered, in the storage tier
        the constructor's ``storage_mode`` picks.  A file that does not
        load raises its :class:`~repro.errors.SnapshotError` here and
        registers nothing.
        """
        self._install(name, self._load(path, file_info(str(path))))

    def _load(self, path, info: dict) -> _Dataset:
        """A registration of the snapshot at ``path``, loaded now, at
        the version and digest of ``info``: its header, read just before
        the load."""
        from repro.service.snapshot import load_engine

        start = time.perf_counter()
        engine = load_engine(path, storage_mode=self._storage_mode)
        return _Dataset(
            engine=engine,
            base=int(info.get("dataset_version") or 0),
            # Remembered so reload can later compare content digests
            # and no-op when this worker already holds the epoch.
            source=str(path),
            digest=info.get("content_digest"),
            build_seconds=time.perf_counter() - start,
        )

    def _swap_snapshot(
        self, name: str, path: str, info: dict, force: bool
    ) -> tuple[bool, dict[str, bool]]:
        """:meth:`reload`'s hook: load ``path`` and install it unless
        this service serves its digest at its version.  A load that
        raises leaves the served record and its log as they were.  The
        log at the served file's default path moves with it to
        ``<path>.wal``: a restart that registers the reloaded file and
        attaches its log replays every commit acknowledged after the
        reload."""
        digest = info.get("content_digest")
        if not (
            force
            or digest is None
            or self._current_snapshot_digest(name) != digest
            or self.dataset_version(name) != int(info.get("dataset_version") or 0)
        ):
            return False, {}
        record = self._load(path, info)
        log = self._log(name)
        with self._registry_lock:
            old = self._datasets.get(name)
        if log is not None and old.source is not None and (
            log.path == default_wal_path(old.source) != default_wal_path(path)
        ):
            # The old log is emptied and names the new file, so a
            # restart on the replaced one is refused.
            log.reset(old.base, snapshot=digest)
            log = log.moved(default_wal_path(path))
        self._install(name, record, log)
        return True, {}

    def _current_snapshot_digest(self, name: str) -> Optional[str]:
        """Digest of the snapshot this service serves for ``name``, or
        None when unknown (never registered from a file, mutated since,
        or the file predates digests)."""
        with self._registry_lock:
            record = self._datasets.get(name)
            if record is None or (record.live is not None and record.live.version):
                # A commit landed: the served state diverged from any
                # file.  (A version-0 mutable — upgraded but never
                # successfully mutated — still equals its snapshot.)
                return None
            return record.digest

    def attach_wal(
        self,
        name: str,
        path=None,
        *,
        writable: bool = True,
        strict: bool = True,
    ) -> dict:
        """Open dataset ``name``'s durable mutation log: replay what the
        served snapshot is missing, then journal every later commit.

        This is the crash-recovery entry point, called right after
        registering (or reloading) the dataset: the records past the
        snapshot's ``dataset_version`` are applied in sequence, landing
        the dataset on exactly the log's last durable epoch; a log that
        ends behind that version restarts at it
        (:meth:`~repro.service.core.ServiceCore._continue_lineage`).
        ``path`` defaults to the registered snapshot's sibling
        ``<snapshot>.wal`` (:func:`repro.wal.default_wal_path`).

        A writable log takes :class:`~repro.wal.MutationLog`'s default
        ``"batched"`` durability: each append is flushed (commits
        survive a process ``kill -9``) and every few are fsynced.
        ``writable=False`` replays an existing log without
        taking ownership of it — what a cluster replica does, since
        only the supervisor appends.  ``strict=False`` lets replay stop at a
        record that fails to apply or is refused (warning) instead of
        raising.

        Raises :class:`~repro.errors.WalError` when exact recovery is
        impossible: a replay gap (log truncated past the snapshot), a
        log that continues another file (it recorded another content
        digest at the snapshot's version), or commits since the
        registration that the attached log does not hold.  Re-attaching
        the log that journalled them is fine.  Returns
        ``{"dataset", "path", "replayed", "wal_seq", "version"}``.
        """
        # Under the dataset's mutation lock: no commit, reload or
        # re-registration interleaves with the replay and the attach.
        with self._mutation_lock(name):
            with self._registry_lock:
                record = self._record(name)
            if path is None:
                if record.source is None:
                    raise ValueError(
                        f"dataset {name!r} was not registered from a snapshot; "
                        f"pass an explicit WAL path"
                    )
                path = default_wal_path(record.source)
            base, version = record.base, record.version
            attached = self._log(name)
            if writable:
                log = MutationLog(path, start_seq=base)
            else:
                log = MutationLog(path, readonly=True)
            try:
                if version != base and not (
                    attached is not None
                    and attached.path == log.path
                    and attached.last_seq == log.last_seq == version
                ):
                    raise WalError(
                        f"{name!r} has {version - base} commit(s) since it "
                        f"was registered that no log holds: attach the log "
                        f"right after registering, or save_snapshot() and "
                        f"register the new file"
                    )
                if writable:
                    self._continue_lineage(name, log, base, record.digest)
                else:
                    self._check_lineage(name, log, base, record.digest)
                replayed = 0
                if log.last_seq > version:
                    replayed = self._mutable_dataset(name).replay_records(
                        log.records(start_after=version),
                        expected=version + 1,
                        strict=strict,
                    )
                    if replayed:
                        self._shred(name)
                    if strict and log.last_seq > self.dataset_version(name):
                        raise WalError(
                            f"replay gap for {name!r}: the log ends at seq "
                            f"{log.last_seq} but its retained records only "
                            f"reach version {self.dataset_version(name)} "
                            f"(older segments were truncated past this "
                            f"snapshot; recover from a newer one)"
                        )
                if not writable:
                    log.close()
            except BaseException:
                if self._log(name) is log:
                    self._set_log(name, None)
                log.close()
                raise
            version = self.dataset_version(name)
        self._wal_telemetry.note_recovery(name, log, replayed)
        return {
            "dataset": name,
            "path": str(path),
            "replayed": replayed,
            "wal_seq": log.last_seq,
            "version": version,
        }

    def save_snapshot(self, name: str, path):
        """Write dataset ``name``'s served state to ``path``; returns the
        path written.  The snapshot records the dataset's current
        version.  A mutable dataset is compacted first — snapshots hold
        flat arrays, and compaction changes no answer (or version).
        With a WAL attached **and** ``path`` being the dataset's
        registered snapshot source, segments the new snapshot makes
        redundant (every record at or below its ``dataset_version``) are
        deleted afterwards — the log only ever needs to reach back to
        the newest snapshot.  Saving to any *other* path (a backup, a
        new provision file) leaves the log alone: crash recovery still
        registers the original source and must be able to replay up
        from it."""
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
            source = self._datasets[name].source
            log = self._log(name)
        if (
            log is not None
            and source is not None
            and Path(source).resolve() == written.resolve()
        ):
            log.truncate(version, file_info(written).get("content_digest"))
        return written

    def datasets(self) -> list[str]:
        """Registered dataset names, sorted."""
        with self._registry_lock:
            return sorted(self._datasets)

    def dataset_version(self, name: str) -> int:
        """The dataset's current version: a snapshot file's
        ``dataset_version`` (0 for anything else) plus the commits
        since it was registered."""
        with self._registry_lock:
            record = self._datasets.get(name)
            return record.version if record else 0

    def _cache_state(self, name: str) -> tuple[SearchParams, tuple[int, int]]:
        """The serving engine's params and ``(generation, version)`` of
        ``name``'s registration.  A commit advances the version, so
        stale answers become unreachable the instant the new state is
        visible; versions repeat across registrations (each of file F
        starts at F's), generations never do."""
        with self._registry_lock:
            record = self._record(name)
            return record.serving()[0].params, (record.generation, record.version)

    def _record(self, name: str) -> _Dataset:
        """``name``'s registration, read under the registry lock the
        caller holds; raises ``UnknownDatasetError``."""
        record = self._datasets.get(name)
        if record is None:
            raise UnknownDatasetError(name)
        return record

    def engine(self, name: str) -> KeywordSearchEngine:
        """The engine serving ``name``.

        A mutable dataset answers with its *current epoch's* engine —
        requests that already hold an older epoch's engine keep
        searching it unperturbed (MVCC by immutability).
        """
        with self._registry_lock:
            return self._record(name).serving()[0]

    def _replica_states(
        self, names: Optional[Sequence[str]], *, timeout: float, strict: bool
    ) -> dict[str, dict[str, object]]:
        """One replica, ``"local"`` as in :meth:`_gather`, read from the
        registry: a registration is a loaded engine, so there is no load
        error to report and nothing to wait for."""
        with self._registry_lock:
            records = [
                (name, self._record(name))
                for name in (sorted(self._datasets) if names is None else names)
            ]
            return {
                "local": {
                    name: {"version": r.version, "build_seconds": r.build_seconds}
                    for name, r in records
                }
            }

    # ------------------------------------------------------------------
    # live mutations
    # ------------------------------------------------------------------
    def apply(self, dataset: str, mutations: Sequence) -> MutationResult:
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
        hygiene, the version key already made them unreachable.  With a
        log attached the dataset stages the batch into its scratch, then
        hands its resolved form to the log before the epoch installs.
        """
        with self._mutation_lock(dataset):
            live = self._mutable_dataset(dataset)
            log = self._log(dataset)
            # Pinned to the next effective version: a log out of step
            # with it fails the commit instead of recording it.
            seq = self.dataset_version(dataset) + 1
            journal = log and functools.partial(log.append, seq=seq)
            outcome = live.mutate(mutations, journal=journal)
            current = self._cache_state(dataset)[1]
            wal_seq = log.last_seq if log is not None else None
        version = current[1]
        purged = self._shred(dataset, keep=current)
        self._note_commit(dataset, version, outcome.applied, wal_seq)
        from repro.live.mutations import MutationResult

        return MutationResult(
            dataset=dataset,
            version=version,
            applied=outcome.applied,
            new_nodes=outcome.new_nodes,
            compacted=outcome.epoch.compacted,
            cache_purged=purged,
            wal_seq=wal_seq,
        )

    def _mutable_dataset(self, name: str) -> "MutableDataset":
        """The live dataset for ``name``, upgrading a frozen engine on
        first use (under the registry lock)."""
        from repro.live.dataset import MutableDataset

        with self._registry_lock:
            record = self._record(name)
            if record.live is None:
                record.live = MutableDataset.from_engine(record.engine)
                record.engine = None
                # Snapshot provenance survives the upgrade: at version
                # 0 the served content still equals the file, so a
                # reload no-op stays possible — important because a
                # *failed* (dropped) batch also lands here.  The
                # digest check goes dead the moment a commit lands
                # (_current_snapshot_digest keys off dataset.version).
            return record.live

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _search_one(
        self, request: QueryRequest, token: Optional[CancellationToken]
    ) -> QueryResponse:
        """A request without a deadline has nothing to watch the clock
        for: it is looked up in the cache here and a miss runs on the
        caller's thread (no executor hop — a cache hit costs
        microseconds)."""
        if request.timeout is not None:
            return super()._search_one(request, token)
        key = self._cache_key(request)
        response = self._hit(request, key)
        if response is None:
            response = self._execute(request, None, self._arm_token(request, token))
        return self._finish(request, key, response)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Shut the executor down (idempotent); every later search
        raises ``RuntimeError``, a cache hit too, while the engines
        themselves stay usable.

        ``wait=False`` returns immediately, leaving any in-flight
        (e.g. deadline-abandoned) searches to finish on their worker
        threads in the background — the choice for callers whose own
        deadline matters more than a clean join.
        """
        self._stop_slo()
        with self._executor_lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=wait)
                self._executor = None
        self._close_logs()

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
        token-free.
        """
        if (
            request.timeout is None
            and token is None
            and request.request_id is None
        ):
            return None
        params = request.params
        if params is None:
            with self._registry_lock:
                record = self._datasets.get(request.dataset)
                # An unknown dataset's request fails before it searches.
                params = record.serving()[0].params if record else SearchParams()
        deadline = (
            time.monotonic() + request.timeout
            if request.timeout is not None
            else None
        )
        return CancellationToken(
            deadline=deadline,
            check_every=params.cancel_check_interval,
            parent=token,
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
        # cancel also covers a search that has not ticked its token yet.
        # For partial-results requests, give the search a grace period
        # to hand back what it has — a few milliseconds when checks run
        # — then fall through to the plain deadline response.
        assert token is not None
        token.cancel("deadline")
        if request.allow_partial:
            try:
                return future.result(timeout=self.CANCEL_GRACE)
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
        engine bug) becomes a structured error response,
        the contract :meth:`search_many` promises.  ``record``, when
        given, is the exactly-once metrics claim shared with the
        deadline watcher: if the watcher already recorded this request
        as a deadline miss, this worker stays silent.  ``token`` is the
        armed cancellation token the search will tick."""
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
            {"dataset": request.dataset, "algorithm": request.algorithm}
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

    def _run_request(
        self,
        request: QueryRequest,
        record: Optional[_Once],
        token: Optional[CancellationToken],
        root,
    ) -> QueryResponse:
        start = time.perf_counter()
        try:
            with self._registry_lock:
                engine, version = self._record(request.dataset).serving()
            run_params = request.params if request.params is not None else engine.params
            if request.k is not None:
                run_params = run_params.with_(max_results=request.k)
        except Exception as exc:
            return self._error_response(
                request, exc, start, record=record is None or record.claim()
            )

        if root is not None:
            root.set_attribute("dataset_version", version)
            wal = self._log(request.dataset)
            if wal is not None:
                root.set_attribute("wal_seq", wal.last_seq)

        engine_span = root.child("engine") if root is not None else None
        try:
            with use_span(engine_span):
                result = engine.search(
                    request.query,
                    algorithm=request.algorithm,
                    params=run_params,
                    explain=request.explain,
                    token=token,
                )
        except Exception as exc:
            if engine_span is not None:
                engine_span.end(status="error")
            return self._error_response(
                request, exc, start, record=record is None or record.claim()
            )
        if engine_span is not None:
            engine_span.end()
        if not result.complete:
            return self._cancelled_response(request, result, start, record, token)
        elapsed = time.perf_counter() - start
        if record is None or record.claim():
            self._metrics.record_request(
                request.algorithm, elapsed, cached=False if request.use_cache else None
            )
        response = QueryResponse(request=request, result=result, elapsed=elapsed)
        response.dataset_version = version
        return response

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
