"""Worker-pool supervisor: spawn, watch, restart, drain.

The pool owns N worker processes (:mod:`repro.cluster.worker`) — plain
``subprocess`` children of this interpreter — and reaches each over
**one duplex channel**: a ``multiprocessing.connection`` socket pair
whose far end the child inherits as a file descriptor.  Everything goes
down it — the worker's id, shard and settings as its first message,
then requests, control messages, ``("cancel", job_id)`` and
``("stop",)``, each written under the channel's send lock — and every
response comes up it.  Two supervisor threads run alongside the caller:

* the **reader** multiplexes every worker's channel
  (``multiprocessing.connection.wait``) and completes the matching
  in-flight :class:`~concurrent.futures.Future`;
* the **monitor** polls worker liveness every
  :attr:`WorkerPool.HEALTH_INTERVAL` seconds.

A channel per worker, not one shared queue, for crash containment:
workers share no lock one of them could die holding, so a killed worker
can only break its own channel, whose buffered responses stay readable
up to EOF and which is discarded on restart.

Crash policy (the part that must never hang): when a worker dies, every
in-flight request routed to it completes with a *structured error
response* (``error_type="WorkerCrashedError"``) after a short grace
period that lets already-produced responses drain from its channel, and
— unless the pool is closing — a replacement process is always spawned
on a fresh channel so subsequent requests are served.  Control futures
(state / metrics / mutate) fail with the exception itself instead, since
their callers have exception semantics.

``close()`` sends each worker the stop sentinel, waits with a deadline,
kills stragglers, and fails anything still in flight with
``PoolClosedError`` — a closed pool leaves no waiter blocked.  A worker
whose supervisor vanished without saying so reads EOF and stops too.

Cancellation rides the same channel: :meth:`WorkerPool.cancel` writes
``("cancel", job_id)``, which the worker's reader thread takes off the
wire *while a search runs* — so it overtakes the worker's FIFO of
pending work — and the search's cooperative token (or the check before
a queued request starts) finds the id.  A job's id is known only from
the future ``submit`` returns, after the request was written, so a
cancel always reaches the wire behind the request it names.
"""

from __future__ import annotations

import itertools
import multiprocessing.connection
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field
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
    state/metrics/mutate have exception semantics, and a state dict
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


#: What a worker process runs.  The worker module — and the engine,
#: snapshot reader and live datasets behind it — is imported in the
#: child, never in the supervisor that spawns it.
_WORKER_COMMAND = (
    "from multiprocessing.connection import Connection; "
    "from repro.cluster.worker import worker_main; "
    "worker_main(Connection({fd}))"
)


def _worker_env() -> dict[str, str]:
    """This environment with the directory ``repro`` was imported from
    first on ``PYTHONPATH``: the child imports the same checkout even
    when only this process's ``sys.path`` (pytest's ``pythonpath``, a
    script's ``sys.path.insert``) knows where it is."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": root + os.pathsep + inherited if inherited else root,
    }


@dataclass
class _Job:
    """One in-flight message awaiting its response."""

    worker_id: int
    kind: str
    future: Future
    request: Optional[dict] = None


@dataclass
class _Channel:
    """The supervisor's end of one worker's duplex connection."""

    conn: multiprocessing.connection.Connection
    #: Serializes writers: submitters, ``cancel`` and ``close`` share
    #: the wire.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Set by the reader at EOF: nothing more will come up this channel.
    drained: bool = False

    def send(self, message: tuple) -> None:
        """Write one message.  A write to a worker that just died is
        dropped: crash handling answers for whatever it was about."""
        with self.lock:
            try:
                self.conn.send(message)
            except OSError:
                pass


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
        (``wals``, ``tracing``, ``accounting``, ``storage_mode``).
    event_sink:
        Optional ``callable(kind, **info)`` invoked on worker
        lifecycle transitions (``worker_crash`` with
        ``worker_id/pid/exitcode/in_flight``, ``worker_restart`` with
        ``worker_id/restarts``).  Exceptions it raises are swallowed —
        observability must never break crash handling.
    """

    #: Seconds between the monitor's liveness sweeps: how late a crash
    #: of an idle worker is noticed (a submission to it notices at once).
    HEALTH_INTERVAL = 0.5

    #: Grace period after noticing a dead worker, letting responses it
    #: produced before dying drain from its channel.
    CRASH_DRAIN_SECONDS = 0.25

    #: How long a submission waits for a crashed worker's replacement
    #: before giving up with :class:`WorkerCrashedError`.
    RESPAWN_WAIT_SECONDS = 5.0

    def __init__(
        self,
        specs: Mapping[int, Mapping[str, str]],
        *,
        settings: Optional[dict] = None,
        event_sink=None,
    ) -> None:
        if not specs:
            raise ValueError("at least one worker spec is required")
        self._specs = {
            int(worker_id): {name: str(path) for name, path in spec.items()}
            for worker_id, spec in specs.items()
        }
        self._settings = dict(settings or {})
        self._event_sink = event_sink

        self._lock = threading.RLock()
        self._job_ids = itertools.count(1)
        self._inflight: dict[int, _Job] = {}
        self._processes: dict[int, Optional[subprocess.Popen]] = {}
        self._channels: dict[int, _Channel] = {}
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
        """Create the process + channel for ``worker_id`` (lock held)."""
        ours, theirs = multiprocessing.connection.Pipe()
        try:
            process = subprocess.Popen(
                [sys.executable, "-c", _WORKER_COMMAND.format(fd=theirs.fileno())],
                pass_fds=[theirs.fileno()],
                stdin=subprocess.DEVNULL,
                env=_worker_env(),
            )
        finally:
            # The child owns its copy now; keeping ours open would mask
            # the channel's EOF when the child dies.
            theirs.close()
        ours.send((worker_id, self._specs[worker_id], self._settings))
        self._channels[worker_id] = _Channel(ours)
        self._processes[worker_id] = process

    def set_snapshot(self, dataset: str, path: str) -> None:
        """Point every spec serving ``dataset`` at ``path``: a worker
        spawned from now on (a restart-on-crash replacement) loads it."""
        with self._lock:
            for spec in self._specs.values():
                if dataset in spec:
                    spec[dataset] = str(path)

    def close(self, timeout: float = 10.0) -> None:
        """Drain and stop every worker; never leaves a waiter hanging."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            processes = dict(self._processes)
            channels = dict(self._channels)
        for channel in channels.values():
            channel.send(("stop",))
        deadline = time.monotonic() + timeout
        for process in processes.values():
            if process is None:
                continue
            try:
                process.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._stop_event.set()
        for thread in (self._reader, self._monitor):
            if thread is not None:
                thread.join(timeout=2.0)
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for job in leftovers:
            self._fail_job(job, "worker pool closed with the request in flight")
        for channel in channels.values():
            channel.conn.close()
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
        the replacement.  A worker whose respawn is still pending past
        ``RESPAWN_WAIT_SECONDS`` raises :class:`WorkerCrashedError`
        rather than queueing work nobody may ever read.
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
            if process is None or process.poll() is not None:
                if process is not None:
                    self._handle_crash(worker_id, process)
                    continue
                # Slot is None: a crash handler is mid-respawn.
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
                # jobs and swapped in a fresh channel — registering now
                # and writing to the *old* one would strand this job
                # forever.  Registering under the same lock that
                # verifies the process is still the observed one means
                # any later crash handling sees (and fails) this job.
                if self._processes.get(worker_id) is not process:
                    continue
                self._inflight[job_id] = job
                channel = self._channels[worker_id]
            break
        channel.send((kind, job_id, *payload))
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

        Writes ``("cancel", job_id)`` down the worker's channel; the
        worker notices inside the search's token checks (or before
        starting the job, if it was still queued) and responds with a
        structured cancelled/partial response the normal way — the
        waiter is *not* failed here.  Returns True if the job was found
        in flight; False means it already completed (or never existed),
        which is not an error: cancellation is inherently racy and
        idempotent.
        """
        with self._lock:
            if self._closed:
                return False
            job = self._inflight.get(job_id)
            if job is None or job.kind != "request":
                return False
            # Crash handling retires a channel together with the jobs
            # that were in flight on it.
            channel = self._channels[job.worker_id]
        channel.send(("cancel", job_id))
        return True

    # ------------------------------------------------------------------
    # health / observability
    # ------------------------------------------------------------------
    def alive(self) -> dict[int, bool]:
        with self._lock:
            return {
                worker_id: process is not None and process.poll() is None
                for worker_id, process in self._processes.items()
            }

    def in_flight(self) -> Counter[int]:
        """Jobs sent to each worker and not yet answered: what routing
        balances on."""
        with self._lock:
            return Counter(job.worker_id for job in self._inflight.values())

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
        """The live ``subprocess.Popen`` for ``worker_id`` (tests kill
        it to exercise crash recovery)."""
        with self._lock:
            return self._processes.get(worker_id)

    # ------------------------------------------------------------------
    # supervisor threads
    # ------------------------------------------------------------------
    def _read_responses(self) -> None:
        while not self._stop_event.is_set():
            with self._lock:
                watched = {
                    channel.conn: channel
                    for channel in self._channels.values()
                    if not channel.drained
                }
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
                    # Worker died: its channel is drained to EOF.  Stop
                    # watching it; the monitor (or a submit) fails the
                    # in-flight jobs and restarts.
                    watched[conn].drained = True

    def _complete(self, job_id: int, payload: dict) -> None:
        with self._lock:
            job = self._inflight.pop(job_id, None)
        # A missing job is a late response for work already failed over
        # (its worker was declared dead); the future is done, drop it.
        if job is not None and not job.future.done():
            job.future.set_result(payload)

    def _watch_health(self) -> None:
        while not self._stop_event.wait(self.HEALTH_INTERVAL):
            with self._lock:
                if self._closed:
                    return
                snapshot = dict(self._processes)
            for worker_id, process in snapshot.items():
                if process is not None and process.poll() is not None:
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
            exitcode = dead_process.returncode
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
        # drain from its channel — the reader completes those futures and
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
            stale = self._channels.pop(worker_id)
        for job in doomed:
            self._fail_job(job, message)
        with stale.lock:  # not under a writer's feet
            stale.conn.close()
        with self._lock:
            if self._closed:
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
