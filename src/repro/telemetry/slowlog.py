"""Slow-query log: a bounded ring of requests that crossed a threshold.

Each entry captures everything needed to debug the query after the
fact without re-running it: the request summary, the elapsed seconds,
and the full span tree as it stood when the response was produced.
Recording is O(1) and lock-cheap; the log is read rarely (``GET
/debug/slow``) and written rarely (only queries over the threshold).

``threshold=None`` disables recording entirely; ``threshold=0.0``
records every query (useful in tests and when flight-recording a
workload).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Optional

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    def __init__(
        self, threshold: Optional[float] = 1.0, capacity: int = 128
    ) -> None:
        if threshold is not None and threshold < 0:
            raise ValueError(f"threshold must be >= 0 or None, got {threshold}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold = threshold
        self.capacity = capacity
        self._entries: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(
        self,
        *,
        elapsed: float,
        trace_id: Optional[str] = None,
        request: Optional[dict] = None,
        error_type: Optional[str] = None,
        span_tree: Optional[dict] = None,
        extra: Optional[dict[str, Any]] = None,
    ) -> bool:
        """Record the query if it is slow enough; return whether it was."""
        if self.threshold is None or elapsed < self.threshold:
            return False
        entry = {
            "recorded_at": time.time(),
            "elapsed": elapsed,
            "trace_id": trace_id,
            "request": request,
            "error_type": error_type,
            "span_tree": span_tree,
        }
        if extra:
            entry.update(extra)
        with self._lock:
            self._entries.append(entry)
        return True

    def entries(self) -> list[dict]:
        """Newest first."""
        with self._lock:
            return [dict(entry) for entry in reversed(self._entries)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
