"""Shard worker: one process, one snapshot-warmed ``QueryService``.

``worker_main`` is what the supervisor's ``subprocess`` child runs.  Its
whole world is **one duplex channel** (a ``multiprocessing.connection``
socket pair; :mod:`repro.cluster.pool`):

* down it come ``(worker_id, snapshots, settings)`` first, then ``(kind,
  job_id, ...)`` tuples of primitives — request-shaped dicts, mutation
  and reload dicts, floats — never live objects;
* up it go ``(worker_id, job_id, payload)`` responses with a dict
  payload.

The kinds are ``request``, ``state``, ``mutate``, ``reload``,
``metrics``, ``events``, ``queries``, the test hook ``sleep``, and
``cancel`` / ``stop``, which the channel's reader takes
(``tests/cluster/test_message_table.py`` checks the table both ways).

A reader thread drains the channel into an in-process FIFO the serving
loop takes its work from, so the wire is read *while a search runs*:
``("cancel", job_id)`` puts the id where the search's cancellation token
probes for it — overtaking everything queued ahead of it — and EOF (the
supervisor is gone, however it went) becomes the ``stop`` sentinel at
once: a supervisor crash strands no worker process.

The channel is per worker rather than one queue shared by the fleet
deliberately: workers share no lock one of them could die holding.  A
killed worker can only break its own channel, whose buffered responses
stay readable up to the EOF and which the supervisor discards on
restart — crash containment, not just crash detection.

Engines are loaded from snapshot *paths* at startup, through
:meth:`QueryService.register_snapshot` — ``from_database`` never runs
inside a worker, and nothing un-picklable crosses the process boundary
in either direction.  A snapshot that does not load does not stop the
worker (a replacement would fail the same way, and the pool would
crash-loop): its error answers ``state`` and every request for that
dataset until a ``reload`` loads a file.

The private service runs no result cache (:class:`_Replica`): the
supervisor's sits in front of routing.  Every reply carries the version
its answer was computed at (``dataset_version``), and the supervisor
caches an answer only at the version it tracks.

The loop never lets a per-message failure kill the process: any
exception while handling a message becomes a structured error payload
for that job and the loop continues.  The worker exits on the ``stop``
sentinel or a torn-down channel.

Deadlines *are* enforced here (cooperatively): the supervisor ships
``timeout`` with the request, the worker's private ``QueryService``
arms a :class:`~repro.core.cancellation.CancellationToken` from it, and
an expired search stops at its next check and returns a structured
``DeadlineExceededError`` response — with the answers released so far
when the request set ``allow_partial``.  Every request runs on the
loop thread under that token; the one clock watcher is the
supervisor's (a request stuck in the queue behind a long search has no
worker-side token yet).

Live updates arrive as ``mutate`` messages (a dataset name plus wire
mutation dicts): the private service applies and commits them, so the
dataset's version advances and subsequent searches see the new epoch —
all without restarting the process.  ``reload`` re-registers a dataset
from a snapshot file, no-opping when the worker already serves the
file's content digest at its version.  ``state`` reports each dataset's
version and load seconds, or its load error — the one pull behind the
supervisor's ``warmup``, ``dataset_versions`` and ``health``.

Durability: when ``settings["wals"]`` maps datasets to mutation-log
directories (:mod:`repro.wal`, written by the supervisor *before* each
broadcast), the worker **replays the log at startup** — including the
startup after a restart-on-crash — so a ``kill -9``'d replica comes
back at exactly the last durable epoch instead of silently serving its
snapshot.  Workers open the log read-only (only the supervisor
appends), and a ``mutate`` message carrying the record's ``seq`` is
acknowledged idempotently when the startup replay already covered it —
the guard against double-applying a batch that raced a restart.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.core.cancellation import CancellationToken
from repro.errors import SearchCancelledError
from repro.service.service import QueryService
from repro.service.wire import (
    error_response_dict,
    request_from_dict,
    response_to_dict,
)

__all__ = ["worker_main"]


class _Inbox:
    """The worker's end of the channel, read by a thread of its own.

    Every message lands in a FIFO for the serving loop; a ``cancel``
    also puts its job id in :attr:`cancelled` the moment it is read —
    where a search already running (or the check before a queued
    request starts) finds it.  The supervisor can only write a cancel
    after the request it names, so by the time the loop meets the
    cancel in the FIFO that request has been answered and the id is
    dropped: nothing accumulates, whenever the cancel arrived.
    """

    def __init__(self, conn) -> None:
        self.cancelled: set[int] = set()
        self._messages: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(
            target=self._drain, args=(conn,), name="repro-worker-reader", daemon=True
        ).start()

    def _drain(self, conn) -> None:
        try:
            while True:
                message = conn.recv()
                if message[0] == "cancel":
                    self.cancelled.add(message[1])
                self._messages.put(message)
                if message[0] == "stop":
                    return
        except (EOFError, OSError):
            # The supervisor is gone: nobody is left to serve.
            self._messages.put(("stop",))

    def get(self) -> tuple:
        """Block for the next message the loop has to handle."""
        while True:
            message = self._messages.get()
            if message[0] != "cancel":
                return message
            self.cancelled.discard(message[1])


class _Replica(QueryService):
    """A worker's private service: it runs no result cache, since the
    supervisor's sits in front of routing — a request that reaches a
    worker missed it, and a repeat may be routed elsewhere."""

    RESULT_CACHE = False

    def _search_one(self, request, token):
        """Every request, one with a deadline too, runs on the loop
        thread under the token :meth:`_arm_token` builds (the deadline
        plus the channel's cancel), and no executor is built: the
        supervisor's ``_await`` is the one clock watcher, and handing
        off to a thread would free nothing — the loop is this process's
        only execution thread."""
        return self._execute(request, None, self._arm_token(request, token))


def _handle_request(
    service: QueryService, payload: dict, job_id: int, cancelled: set, unloaded: dict
) -> dict:
    """Execute one request dict, returning a response dict (never raises)."""
    try:
        request = request_from_dict(payload)
    except Exception as exc:
        return error_response_dict(payload, str(exc), type(exc).__name__)
    error = unloaded.get(request.dataset)
    if error is not None:
        return error_response_dict(payload, str(error), type(error).__name__)
    if job_id in cancelled:
        # Cancelled while still queued: answer without searching.
        return error_response_dict(
            payload,
            "request cancelled before execution",
            SearchCancelledError.__name__,
        )
    # Consumed as the *parent* of the token the service arms, whose full
    # checks probe parents ungated — so only the membership probe
    # matters here; the service's own token carries the per-request
    # check interval.  QueryService.search never raises for a
    # well-formed request: engine failures come back as structured error
    # responses already, and the service composes its own deadline token
    # on top of this one.
    token = CancellationToken(external_check=lambda: job_id in cancelled)
    response = service.search(request, token=token)
    if service.tracer is not None:
        # The spans leave with the reply and the supervisor keeps the
        # tree: nothing here reads a finished trace again.
        service.tracer.clear()
    return response_to_dict(response)


def _error_payload(exc: BaseException) -> dict:
    """The control-message reply the supervisor re-raises as ``exc``'s type."""
    return {"error": str(exc), "error_type": type(exc).__name__}


def _handle_message(
    service: QueryService,
    kind: str,
    message: tuple,
    cancelled: set,
    unloaded: dict,
) -> dict:
    """Dispatch one non-stop message to its handler (may raise).
    ``unloaded`` maps each dataset whose snapshot failed to load to the
    load's error."""
    if kind == "request":
        return _handle_request(service, message[2], message[1], cancelled, unloaded)
    if kind == "state":
        # Every dataset this replica holds: its version and load
        # seconds, or the error its load raised.  Reading the registry
        # waits on nothing.
        loaded = service._replica_states(None, timeout=0.0, strict=True)["local"]
        failed = {name: _error_payload(exc) for name, exc in unloaded.items()}
        return {"datasets": {**loaded, **failed}}
    if kind == "metrics":
        # The registry export alone, latency windows included: the
        # supervisor merges exports and builds the one view from them.
        return service.registry.export(include_samples=True)
    if kind == "mutate":
        # Live-update propagation: the supervisor broadcasts one batch
        # to every replica of the dataset's shard; the private
        # QueryService applies and commits it (upgrading the dataset to
        # mutable on first touch), bumping the version its answers carry
        # back — no process restart, no stale answers.
        payload = message[2]
        name = payload["dataset"]
        seq = payload.get("seq")
        if seq is not None and service.dataset_version(name) >= seq:
            # This replica's startup WAL replay already covered the
            # record (a broadcast raced a restart): acknowledge with
            # nothing applied rather than double-applying the batch.
            # Replica versions and WAL sequences share one lineage
            # (ServiceCore._continue_lineage).
            from repro.live.mutations import MutationResult

            return MutationResult(name, service.dataset_version(name), 0).to_dict()
        return service.apply(name, payload["mutations"]).to_dict()
    if kind == "reload":
        # Snapshot hot-reload: re-register from a (usually re-written)
        # snapshot file; a digest match means this worker already holds
        # the epoch and the reload no-ops.
        payload = message[2]
        result = service.reload(
            payload["dataset"], payload["path"], force=payload.get("force", False)
        )
        unloaded.pop(payload["dataset"], None)
        return result
    if kind == "events":
        # Incremental event-log pull: the supervisor tracks a cursor
        # per worker and re-sequences what comes back into its own
        # stream.  ``last_seq`` going backwards tells it this process
        # restarted with a fresh log.
        payload = message[2] if len(message) > 2 and message[2] else {}
        return service.events(since=int(payload.get("since") or 0))
    if kind == "queries":
        # This process's part of the fleet-merged workload sketch
        # (mergeable summaries, like the metrics registry), or None with
        # accounting off.
        return {"queries": service._local_part()}
    if kind == "sleep":
        # Debug/test hook: hold this worker busy for a while, the cheap
        # stand-in for a long search when exercising crash recovery and
        # drain behaviour.
        time.sleep(message[2])
        return {"slept": message[2]}
    raise ValueError(f"unknown message kind {kind!r}")


def worker_main(conn) -> None:
    """Run the worker loop until stopped (process entrypoint).

    ``conn`` is this worker's end of the channel described in the module
    docstring.  Its first message is ``(worker_id, snapshots,
    settings)``:

    worker_id:
        This worker's id, echoed on every response.
    snapshots:
        ``{dataset_name: snapshot_path_string}`` for this shard.
    settings:
        Plain dict of what the supervisor varies per fleet: ``tracing``,
        ``accounting``, ``storage_mode`` and ``wals`` (``{dataset: log
        path}`` to replay at startup).
    """
    worker_id, snapshots, settings = conn.recv()
    inbox = _Inbox(conn)
    service = _Replica(
        tracing=settings.get("tracing", True),
        accounting=settings.get("accounting", True),
        # Storage tier for snapshot loads (ram/mapped; None defers
        # to the environment).  Set fleet-wide by the supervisor: every
        # worker — including restart-on-crash replacements, which reuse
        # this settings dict — maps the same snapshot files, so the OS
        # page cache holds one physical copy per shard.
        storage_mode=settings.get("storage_mode"),
        # Workers never evaluate SLOs — the supervisor owns the fleet
        # view; an engine per replica would just burn samples.
        slo_objectives=(),
        # Nor do they log slow queries: the supervisor records them
        # from settled responses, and no message reads a worker's log.
        slow_query_threshold=None,
    )
    # Same for explain reports, harvested supervisor-side; the workload
    # sketch the same ``accounting`` switch turns on *is* pulled.
    service.explain_store = None
    unloaded: dict[str, Exception] = {}
    for name, path in snapshots.items():
        try:
            service.register_snapshot(name, path)
        except Exception as exc:
            unloaded[name] = exc
    for name, wal_path in (settings.get("wals") or {}).items():
        if name not in snapshots:
            continue
        # Crash recovery: replay the supervisor-written WAL (read-only;
        # non-strict — a replica that cannot replay to the tip keeps
        # serving what it recovered, visible in health as wal_behind,
        # instead of crash-looping the whole shard).
        try:
            if name in unloaded:
                raise unloaded[name]
            service.attach_wal(name, wal_path, writable=False, strict=False)
        except Exception as exc:
            service.event_log.emit(
                "wal_replay_failed",
                f"WAL replay for {name!r} failed ({type(exc).__name__}: "
                f"{exc}); serving the snapshot state",
                severity="error",
                dataset=name,
                source="wal",
                error_type=type(exc).__name__,
            )

    try:
        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "stop":
                break
            job_id = message[1]
            try:
                payload = _handle_message(
                    service, kind, message, inbox.cancelled, unloaded
                )
            except Exception as exc:
                payload = _error_payload(exc)
            try:
                conn.send((worker_id, job_id, payload))
            except OSError:
                break  # supervisor is gone; nothing left to serve
    finally:
        service.close(wait=False)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(
        "repro.cluster.worker is a process entrypoint; start workers "
        "through repro.cluster.WorkerPool"
    )
