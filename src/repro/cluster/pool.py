"""Worker-pool supervisor: spawn, watch, restart, drain.

The pool owns N worker processes (:mod:`repro.cluster.worker`), each
with a private request queue and a private response pipe.  Two
supervisor threads run alongside the caller:

* the **reader** multiplexes every worker's response pipe
  (``multiprocessing.connection.wait``) and completes the matching
  in-flight :class:`~concurrent.futures.Future`;
* the **monitor** polls worker liveness every ``health_interval``
  seconds.

Responses use per-worker pipes, not one shared queue, for crash
containment: a ``multiprocessing.Queue`` writer killed mid-put can die
holding the queue's shared write lock and wedge every other worker's
responses; a killed worker can only break its own pipe, whose buffered
responses stay readable up to EOF and which is discarded on restart.

Crash policy (the part that must never hang): when a worker dies, every
in-flight request routed to it completes with a *structured error
response* (``error_type="WorkerCrashedError"``) after a short grace
period that lets already-produced responses drain from its pipe, and —
unless the pool is closing — a replacement process is spawned on fresh
channels so subsequent requests are served.  Control futures (ping /
metrics / warmup) fail with the exception itself instead, since their
callers have exception semantics.

``close()`` sends each worker the stop sentinel, joins with a deadline,
kills stragglers, and fails anything still in flight with
``PoolClosedError`` — a closed pool leaves no waiter blocked.

Cancellation control channel: each worker also gets a small
shared-memory **cancel ring** (a ``multiprocessing.Array`` of job ids).
:meth:`WorkerPool.cancel` writes the doomed job id into its worker's
ring; the worker probes the ring from inside the search's cooperative
cancellation token (and once before starting each job, which covers
requests cancelled while still queued).  Shared memory rather than a
queue message because the request queue is FIFO: a cancel message would
arrive *behind* the very request it is meant to stop, and the worker
reads the queue only between jobs anyway.  Ring slots are overwritten
oldest-first; job ids are never reused, so a stale id in a slot is
harmless.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ClusterError, PoolClosedError, WorkerCrashedError
from repro.service.wire import error_response_dict

__all__ = ["WorkerPool", "control_error"]


def control_error(payload) -> Optional[Exception]:
    """The exception a control payload carries, if it is one.

    A worker whose handler raised (e.g. ``SnapshotError`` warming from
    a corrupt file) replies ``{"error": ..., "error_type": ...}``
    instead of its normal payload.  Rebuild the library exception when
    the type names one, else wrap in :class:`ClusterError` — callers of
    ping/metrics/warmup have exception semantics, and a timings dict
    must never silently be an error dict.
    """
    if (
        not isinstance(payload, dict)
        or payload.get("error") is None
        or "result" in payload  # request responses carry errors inline
    ):
        return None
    import repro.errors as _errors

    exc_cls = getattr(_errors, payload.get("error_type") or "", None)
    if isinstance(exc_cls, type) and issubclass(exc_cls, Exception):
        try:
            return exc_cls(payload["error"])
        except Exception:  # pragma: no cover - exotic constructor
            pass
    return ClusterError(f"[{payload.get('error_type')}] {payload['error']}")


def _worker_entry(*args) -> None:
    """Process target.  The worker module — and the engine, snapshot
    reader and numpy behind it — is imported in the child, never in the
    supervisor that spawns it."""
    from repro.cluster.worker import worker_main

    worker_main(*args)


@dataclass
class _Job:
    """One in-flight message awaiting its response."""

    worker_id: int
    kind: str
    future: Future
    request: Optional[dict] = None


def _crash_response(request: Optional[dict], message: str) -> dict:
    """The response-shaped dict a crashed worker's request resolves to."""
    return error_response_dict(request, message, WorkerCrashedError.__name__)


class WorkerPool:
    """Supervised process pool keyed by integer worker ids.

    Parameters
    ----------
    specs:
        ``{worker_id: {dataset_name: snapshot_path}}`` — each worker's
        shard, as produced by
        :meth:`~repro.cluster.router.ShardRouter.assignments` joined
        with the snapshot paths.  Paths are stringified before they
        cross the boundary.
    settings:
        Plain-dict ``QueryService`` knobs forwarded to every worker
        (``cache_capacity``, ``cache_ttl``).
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"spawn"``:
        workers rebuild their world from snapshot files anyway, and
        forking a supervisor that runs reader/monitor threads is the
        classic fork-with-threads trap.
    health_interval:
        Seconds between monitor liveness sweeps.
    restart:
        Whether a dead worker is replaced (tests disable this to
        observe pure failure behaviour).
    event_sink:
        Optional ``callable(kind, **info)`` invoked on worker
        lifecycle transitions (``worker_crash`` with
        ``worker_id/pid/exitcode/in_flight``, ``worker_restart`` with
        ``worker_id/restarts``).  Exceptions it raises are swallowed —
        observability must never break crash handling.
    """

    #: Grace period after noticing a dead worker, letting responses it
    #: produced before dying drain from its pipe.
    CRASH_DRAIN_SECONDS = 0.25

    #: How long a submission waits for a crashed worker's replacement
    #: before giving up with :class:`WorkerCrashedError`.
    RESPAWN_WAIT_SECONDS = 5.0

    #: Slots in each worker's shared-memory cancel ring.  Bounds how
    #: many *concurrently pending* cancellations a worker can track;
    #: overwriting the oldest is safe (ids are unique, a lost cancel
    #: degrades to the request running to completion, never to a wrong
    #: answer).
    CANCEL_SLOTS = 32

    def __init__(
        self,
        specs: Mapping[int, Mapping[str, str]],
        *,
        settings: Optional[dict] = None,
        start_method: Optional[str] = "spawn",
        health_interval: float = 0.5,
        restart: bool = True,
        event_sink=None,
    ) -> None:
        if not specs:
            raise ValueError("at least one worker spec is required")
        self._specs = {
            int(worker_id): {name: str(path) for name, path in spec.items()}
            for worker_id, spec in specs.items()
        }
        self._settings = dict(settings or {})
        self._ctx = multiprocessing.get_context(start_method)
        self._health_interval = health_interval
        self._restart = restart
        self._event_sink = event_sink

        self._lock = threading.RLock()
        self._job_ids = itertools.count(1)
        self._inflight: dict[int, _Job] = {}
        self._processes: dict[int, Optional[multiprocessing.process.BaseProcess]] = {}
        self._queues: dict[int, object] = {}
        self._conns: dict[int, object] = {}
        self._cancel_cells: dict[int, object] = {}
        self._cancel_slot: dict[int, int] = {w: 0 for w in self._specs}
        self._restarts: dict[int, int] = {w: 0 for w in self._specs}
        self._started = False
        self._closed = False
        self._stop_event = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn every worker and the supervisor threads (idempotent)."""
        with self._lock:
            if self._closed:
                raise PoolClosedError("cannot start a closed WorkerPool")
            if self._started:
                return self
            self._started = True
            for worker_id in sorted(self._specs):
                self._spawn(worker_id)
        self._reader = threading.Thread(
            target=self._read_responses, name="repro-pool-reader", daemon=True
        )
        self._reader.start()
        self._monitor = threading.Thread(
            target=self._watch_health, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        """Create the process + channel pair for ``worker_id`` (lock held)."""
        request_queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        # Fresh ring per generation: cancels aimed at a dead worker's
        # jobs die with it (those jobs were failed over already).
        cancel_cells = self._ctx.Array("q", self.CANCEL_SLOTS)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(
                worker_id,
                self._specs[worker_id],
                self._settings,
                request_queue,
                send_conn,
                cancel_cells,
            ),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        # The child owns its copy now; keeping ours open would mask the
        # pipe's EOF when the child dies.
        send_conn.close()
        self._queues[worker_id] = request_queue
        self._conns[worker_id] = recv_conn
        self._cancel_cells[worker_id] = cancel_cells
        self._cancel_slot[worker_id] = 0
        self._processes[worker_id] = process

    def close(self, timeout: float = 10.0) -> None:
        """Drain and stop every worker; never leaves a waiter hanging."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            processes = dict(self._processes)
            queues = dict(self._queues)
            conns = dict(self._conns)
        for request_queue in queues.values():
            try:
                request_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        deadline = time.monotonic() + timeout
        for process in processes.values():
            if process is None:
                continue
            process.join(timeout=max(deadline - time.monotonic(), 0.0))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        self._stop_event.set()
        for thread in (self._reader, self._monitor):
            if thread is not None:
                thread.join(timeout=2.0)
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for job in leftovers:
            self._fail_job(job, "worker pool closed with the request in flight")
        for conn in conns.values():
            conn.close()
        for request_queue in queues.values():
            request_queue.close()
            request_queue.cancel_join_thread()
        # The sink is a bound method of the pool's owner: dropped here,
        # owner and pool die by refcount instead of as a cycle.
        self._event_sink = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, worker_id: int, kind: str, *payload) -> Future:
        """Ship ``(kind, job_id, *payload)`` to ``worker_id``.

        Returns a future resolving to the worker's payload dict.  If the
        target worker is found dead here, crash handling (fail its
        in-flight work, restart) runs first so this submission lands on
        the replacement.  A worker with no live replacement — respawn
        still pending past ``RESPAWN_WAIT_SECONDS``, or ``restart``
        disabled — raises :class:`WorkerCrashedError` rather than
        queueing work nobody will ever read.
        """
        with self._lock:
            if self._closed:
                raise PoolClosedError("WorkerPool is closed")
            if not self._started:
                self.start()
            if worker_id not in self._specs:
                raise KeyError(f"unknown worker id {worker_id!r}")
        future: Future = Future()
        job_id = next(self._job_ids)
        # Exposed for cancellation: callers hand the id back to
        # :meth:`cancel` (the sharded service keys its request_id
        # registry on it).
        future.job_id = job_id  # type: ignore[attr-defined]
        future.worker_id = worker_id  # type: ignore[attr-defined]
        job = _Job(
            worker_id=worker_id,
            kind=kind,
            future=future,
            request=payload[0] if kind == "request" and payload else None,
        )
        deadline = time.monotonic() + self.RESPAWN_WAIT_SECONDS
        while True:
            with self._lock:
                if self._closed:
                    raise PoolClosedError("WorkerPool is closed")
                process = self._processes.get(worker_id)
            if process is None or not process.is_alive():
                if process is not None:
                    self._handle_crash(worker_id, process)
                    continue
                # Slot is None: a crash handler is mid-respawn (wait
                # for it) or restarts are disabled (fail now).
                if not self._restart:
                    raise WorkerCrashedError(
                        f"worker {worker_id} is down and restart is disabled"
                    )
                if time.monotonic() >= deadline:
                    raise WorkerCrashedError(
                        f"worker {worker_id} has no live replacement after "
                        f"{self.RESPAWN_WAIT_SECONDS}s"
                    )
                time.sleep(0.02)
                continue
            with self._lock:
                if self._closed:
                    raise PoolClosedError("WorkerPool is closed")
                # The generation guard closing the register/crash race:
                # if the worker died after the liveness check above, a
                # crash handler may already have collected its doomed
                # jobs and swapped in a fresh queue — registering now
                # and writing to the *old* queue would strand this job
                # forever.  Registering under the same lock that
                # verifies the process is still the observed one means
                # any later crash handling sees (and fails) this job.
                if self._processes.get(worker_id) is not process:
                    continue
                self._inflight[job_id] = job
                request_queue = self._queues[worker_id]
            break
        try:
            request_queue.put((kind, job_id, *payload))
        except (OSError, ValueError) as exc:  # pragma: no cover - queue gone
            with self._lock:
                self._inflight.pop(job_id, None)
            raise PoolClosedError(f"worker {worker_id} queue is closed") from exc
        return future

    def request(self, worker_id: int, request_dict: dict) -> Future:
        """Submit one request-shaped dict; resolves to a response dict.

        The returned future carries ``job_id`` / ``worker_id``
        attributes — the handle :meth:`cancel` takes.
        """
        return self.submit(worker_id, "request", request_dict)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: int) -> bool:
        """Ask the worker holding ``job_id`` to stop it cooperatively.

        Writes the id into the worker's shared-memory cancel ring; the
        worker notices inside the search's token checks (or before
        starting the job, if it was still queued) and responds with a
        structured cancelled/partial response through the normal pipe —
        the waiter is *not* failed here.  Returns True if the job was
        found in flight; False means it already completed (or never
        existed), which is not an error: cancellation is inherently
        racy and idempotent.
        """
        with self._lock:
            if self._closed:
                return False
            job = self._inflight.get(job_id)
            if job is None or job.kind != "request":
                return False
            cells = self._cancel_cells.get(job.worker_id)
            if cells is None:  # pragma: no cover - worker mid-respawn
                return False
            slot = self._cancel_slot[job.worker_id]
            self._cancel_slot[job.worker_id] = (slot + 1) % self.CANCEL_SLOTS
        cells[slot] = job_id
        return True

    # ------------------------------------------------------------------
    # health / observability
    # ------------------------------------------------------------------
    def ping(self, worker_id: int, timeout: float = 5.0) -> bool:
        """True iff ``worker_id`` answers a ping within ``timeout``."""
        try:
            payload = self.submit(worker_id, "ping").result(timeout=timeout)
        except Exception:
            return False
        return bool(payload.get("pong"))

    def warmup(self, timeout: float = 300.0) -> dict[int, dict]:
        """Ask every worker to build its engines now; returns per-worker
        ``{dataset: build_seconds}`` timing dicts."""
        futures = {
            worker_id: self.submit(worker_id, "warmup", None)
            for worker_id in sorted(self._specs)
        }
        timings = {}
        deadline = time.monotonic() + timeout
        for worker_id, future in futures.items():
            payload = future.result(
                timeout=max(deadline - time.monotonic(), 0.0)
            )
            error = control_error(payload)
            if error is not None:
                raise error
            timings[worker_id] = payload
        return timings

    def alive(self) -> dict[int, bool]:
        with self._lock:
            return {
                worker_id: process is not None and process.is_alive()
                for worker_id, process in self._processes.items()
            }

    def restarts(self) -> dict[int, int]:
        with self._lock:
            return dict(self._restarts)

    def pids(self) -> dict[int, Optional[int]]:
        with self._lock:
            return {
                worker_id: (process.pid if process is not None else None)
                for worker_id, process in self._processes.items()
            }

    def worker_ids(self) -> list[int]:
        return sorted(self._specs)

    def process(self, worker_id: int):
        """The live process object for ``worker_id`` (tests kill it to
        exercise crash recovery)."""
        with self._lock:
            return self._processes.get(worker_id)

    # ------------------------------------------------------------------
    # supervisor threads
    # ------------------------------------------------------------------
    def _read_responses(self) -> None:
        while not self._stop_event.is_set():
            with self._lock:
                watched = {conn: worker_id for worker_id, conn in self._conns.items()}
            if not watched:  # pragma: no cover - all workers down
                time.sleep(0.05)
                continue
            try:
                ready = multiprocessing.connection.wait(
                    list(watched), timeout=0.2
                )
            except OSError:  # pragma: no cover - conn torn down mid-wait
                continue
            for conn in ready:
                try:
                    while conn.poll():
                        _, job_id, payload = conn.recv()
                        self._complete(job_id, payload)
                except (EOFError, OSError):
                    # Worker died: its pipe is drained to EOF.  Stop
                    # watching this channel; the monitor (or a submit)
                    # fails the in-flight jobs and restarts.
                    with self._lock:
                        if self._conns.get(watched[conn]) is conn:
                            del self._conns[watched[conn]]

    def _complete(self, job_id: int, payload: dict) -> None:
        with self._lock:
            job = self._inflight.pop(job_id, None)
        # A missing job is a late response for work already failed over
        # (its worker was declared dead); the future is done, drop it.
        if job is not None and not job.future.done():
            job.future.set_result(payload)

    def _watch_health(self) -> None:
        while not self._stop_event.wait(self._health_interval):
            with self._lock:
                if self._closed:
                    return
                snapshot = dict(self._processes)
            for worker_id, process in snapshot.items():
                if process is not None and not process.is_alive():
                    self._handle_crash(worker_id, process)

    def _handle_crash(self, worker_id: int, dead_process) -> None:
        """Fail over one dead worker: structured errors for its
        in-flight jobs, then a replacement process (unless closing)."""
        with self._lock:
            if self._closed:
                return
            # Another path (monitor vs. submit) may have handled this
            # generation already; the process identity is the guard.
            if self._processes.get(worker_id) is not dead_process:
                return
            self._processes[worker_id] = None
            exitcode = dead_process.exitcode
            doomed_ids = [
                job_id
                for job_id, job in self._inflight.items()
                if job.worker_id == worker_id
            ]
        self._emit_event(
            "worker_crash",
            worker_id=worker_id,
            pid=dead_process.pid,
            exitcode=exitcode,
            in_flight=len(doomed_ids),
        )
        # Give responses the worker produced before dying a moment to
        # drain from its pipe — the reader completes those futures and
        # removes them from the in-flight table, shrinking the failures.
        if doomed_ids:
            time.sleep(self.CRASH_DRAIN_SECONDS)
        message = (
            f"worker {worker_id} crashed (exit code {exitcode}) "
            f"with the request in flight"
        )
        with self._lock:
            doomed = [
                self._inflight.pop(job_id)
                for job_id in doomed_ids
                if job_id in self._inflight
            ]
            stale_conn = self._conns.pop(worker_id, None)
        for job in doomed:
            self._fail_job(job, message)
        if stale_conn is not None:
            stale_conn.close()
        with self._lock:
            if self._closed or not self._restart:
                return
            if self._processes.get(worker_id) is None:
                self._restarts[worker_id] += 1
                restarts = self._restarts[worker_id]
                self._spawn(worker_id)
            else:  # pragma: no cover - lost the respawn race benignly
                return
        self._emit_event(
            "worker_restart", worker_id=worker_id, restarts=restarts
        )

    def _emit_event(self, kind: str, **info) -> None:
        """Hand a lifecycle event to the owner's sink, if any.  Sink
        failures are swallowed: observability must never break crash
        handling."""
        if self._event_sink is None:
            return
        try:
            self._event_sink(kind, **info)
        except Exception:  # pragma: no cover - defensive
            pass

    def _fail_job(self, job: _Job, message: str) -> None:
        if job.future.done():  # pragma: no cover - lost the race benignly
            return
        closed = "closed" in message
        if job.kind == "request":
            # The error type must name the real cause: a crashed worker
            # means "retry it, the pool restarted the shard", a closed
            # pool means there is nothing left to retry against.
            error_type = (
                PoolClosedError.__name__ if closed else WorkerCrashedError.__name__
            )
            job.future.set_result(
                error_response_dict(
                    job.request if isinstance(job.request, dict) else None,
                    message,
                    error_type,
                )
            )
        elif closed:
            job.future.set_exception(PoolClosedError(message))
        else:
            job.future.set_exception(WorkerCrashedError(message))
