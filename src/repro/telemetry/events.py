"""Structured operational event log.

A bounded, thread-safe ring of *operational* events — worker crashes,
WAL corruption repairs, snapshot reloads, SLO breaches — the durable
"what happened" record that metrics (cumulative counters) and traces
(per-request) cannot answer on their own.

Every event is a JSON-safe dict with a **monotonically increasing
sequence number** assigned under the log's lock, so consumers can poll
``events(since=seq)`` and never miss or re-read an entry that is still
in the ring.  Worker processes keep their own local :class:`EventLog`;
the supervisor pulls their deltas over the existing pipe wire format
and :meth:`EventLog.ingest`-s them into its authoritative log, where
they are re-sequenced into the single fleet-wide ordering (the
original worker-side sequence survives as ``remote_seq``).

Severity levels mirror logging practice: ``debug`` < ``info`` <
``warning`` < ``error`` < ``critical``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = ["EventLog", "SEVERITIES"]

#: Recognised severities, mildest first.  ``emit`` rejects others so a
#: typo cannot silently create an un-filterable severity class.
SEVERITIES = ("debug", "info", "warning", "error", "critical")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class EventLog:
    """Thread-safe ring of structured operational events.

    ``capacity`` bounds memory: the ring keeps the most recent events
    and silently drops the oldest.  ``emitted`` (total ever emitted)
    and ``dropped`` (total aged out of the ring) stay exact so a
    consumer can detect that it missed history.
    """

    def __init__(self, capacity: int = 512, *, clock: Callable[[], float] = time.time):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0

    # ------------------------------------------------------------------
    # Producing events

    def emit(
        self,
        kind: str,
        message: str,
        *,
        severity: str = "info",
        dataset: str | None = None,
        trace_id: str | None = None,
        source: str | None = None,
        **extra: Any,
    ) -> dict[str, Any]:
        """Append one event and return it (with its assigned ``seq``).

        ``kind`` is a stable machine-matchable name (``worker_crash``,
        ``wal_replay``, ``slo_breach``…); ``message`` is the human
        sentence.  ``extra`` keyword arguments land under the event's
        ``"extra"`` key and must be JSON-safe — they ride the worker
        pipe unchanged.
        """
        if severity not in _SEVERITY_RANK:
            raise ValueError(
                f"unknown severity {severity!r}; expected one of {SEVERITIES}"
            )
        event: dict[str, Any] = {
            "ts": self._clock(),
            "kind": kind,
            "severity": severity,
            "message": message,
            "dataset": dataset,
            "trace_id": trace_id,
            "source": source,
            "extra": dict(extra),
        }
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._ring.append(event)
        return event

    def ingest(
        self, event: dict[str, Any], *, source: str | None = None
    ) -> dict[str, Any]:
        """Re-sequence a foreign event (e.g. pulled from a worker) into
        this log.

        The event's own timestamp, kind, severity, and payload are
        preserved; its original sequence number is kept as
        ``remote_seq`` and a fresh local ``seq`` is assigned so the
        authoritative log stays strictly monotone.  ``source``
        overrides the event's source when given (how the supervisor
        stamps ``worker-3`` on pulled events).
        """
        copied = dict(event)
        copied["remote_seq"] = copied.pop("seq", None)
        if source is not None:
            copied["source"] = source
        with self._lock:
            self._seq += 1
            copied["seq"] = self._seq
            self._ring.append(copied)
        return copied

    # ------------------------------------------------------------------
    # Consuming events

    def events(
        self,
        since: int = 0,
        *,
        limit: int | None = None,
        min_severity: str | None = None,
    ) -> list[dict[str, Any]]:
        """Events with ``seq > since``, oldest first.

        ``limit`` caps the result (keeping the *newest* entries);
        ``min_severity`` drops events milder than the given level.
        Returned dicts are copies — mutating them cannot corrupt the
        ring.
        """
        floor = -1
        if min_severity is not None:
            if min_severity not in _SEVERITY_RANK:
                raise ValueError(
                    f"unknown severity {min_severity!r}; "
                    f"expected one of {SEVERITIES}"
                )
            floor = _SEVERITY_RANK[min_severity]
        with self._lock:
            selected = [
                dict(event)
                for event in self._ring
                if event["seq"] > since
                and _SEVERITY_RANK[event["severity"]] >= floor
            ]
        if limit is not None and len(selected) > limit:
            selected = selected[-limit:]
        return selected

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq
