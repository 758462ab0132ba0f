"""Structured tracing: spans, tracers, and a cross-process trace store.

One query produces one *trace*: a tree of :class:`Span` records named
after the stage they time (``http`` → ``route`` → ``queue_wait`` →
``worker`` → ``engine`` → ``resolve`` / ``expand[...]`` / ``emit``).
The design constraints, in order:

* **Cross-process comparability.**  Spans start on the wall clock
  (``time.time()``) so spans minted in the supervisor and spans minted
  in a worker land on one timeline, but *durations* are measured with
  ``time.perf_counter()`` so they stay monotonic and sub-millisecond
  accurate.  Clock skew between processes on one host is far below the
  millisecond queue waits the timeline is read for.
* **JSON-safe at rest.**  A finished span is a plain dict of
  primitives — it rides the existing wire format across the
  supervisor/worker pipe unchanged, and ``json.dumps`` always succeeds
  on it.
* **No signature churn.**  The active span travels in a
  :class:`~contextvars.ContextVar`, so the engine and the three search
  loops pick it up without threading a parameter through every call
  site; code that never starts a span pays one context-var read.

Nothing here imports anything outside the stdlib.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = [
    "Span",
    "Tracer",
    "TraceStore",
    "build_span_tree",
    "render_span_tree",
    "current_span",
    "use_span",
    "new_trace_id",
    "new_span_id",
]


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


_ACTIVE_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_active_span", default=None
)


def current_span() -> Optional["Span"]:
    """The span active in this thread/task context, or ``None``."""
    return _ACTIVE_SPAN.get()


@contextmanager
def use_span(span: Optional["Span"]) -> Iterator[Optional["Span"]]:
    """Make ``span`` the ambient span for the duration of the block.

    Does *not* end the span on exit — lifetime stays with whoever
    created it.  Passing ``None`` masks any outer span, which is how
    tracing-off paths guarantee they inherit nothing.
    """
    token = _ACTIVE_SPAN.set(span)
    try:
        yield span
    finally:
        _ACTIVE_SPAN.reset(token)


class Span:
    """One timed stage of a trace.

    Mutable while open (attributes accumulate), frozen to a dict by
    :meth:`end`.  ``end`` is idempotent: the first call wins, later
    calls are no-ops — so error paths can end defensively.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started_at",
        "duration",
        "status",
        "attributes",
        "_t0",
        "_sink",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        sink: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_id = parent_id
        self.started_at = time.time()
        self.duration: Optional[float] = None
        self.status = "ok"
        self.attributes: dict[str, Any] = {}
        self._t0 = time.perf_counter()
        self._sink = sink

    @property
    def ended(self) -> bool:
        return self.duration is not None

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, mapping: dict) -> None:
        self.attributes.update(mapping)

    def child(self, name: str) -> "Span":
        """A new open span under this one, sharing the trace and sink."""
        return Span(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            sink=self._sink,
        )

    def end(
        self,
        *,
        status: Optional[str] = None,
        duration: Optional[float] = None,
    ) -> "Span":
        """Close the span and deliver it to the sink (first call only).

        ``duration`` overrides the measured elapsed time — used for
        synthesized spans (e.g. ``queue_wait``) whose extent is computed
        from other spans rather than observed.
        """
        if self.duration is not None:
            return self
        if status is not None:
            self.status = status
        self.duration = (
            time.perf_counter() - self._t0 if duration is None else duration
        )
        if self._sink is not None:
            self._sink(self.to_dict())
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.started_at,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1000:.2f}ms" if self.ended else "open"
        return f"Span({self.name!r}, trace={self.trace_id[:8]}, {state})"


class TraceStore:
    """Bounded, thread-safe retention of finished spans, keyed by trace.

    Holds the ``capacity`` most recently touched traces; older traces
    evict whole (a trace with half its spans is worse than no trace).
    Re-adding a span id already present in a trace is a no-op, so
    ingesting the same worker response twice cannot duplicate a tree.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        self._lock = threading.Lock()

    def add(self, span: dict) -> None:
        trace_id = span.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
                while len(self._traces) > self._capacity:
                    self._traces.popitem(last=False)
            else:
                self._traces.move_to_end(trace_id)
            span_id = span.get("span_id")
            if any(existing.get("span_id") == span_id for existing in spans):
                return
            spans.append(dict(span))

    def ingest(self, spans: Optional[Iterable[dict]]) -> None:
        """Add externally produced span dicts (e.g. shipped by a worker)."""
        for span in spans or ():
            if isinstance(span, dict):
                self.add(span)

    def get(self, trace_id: str) -> Optional[list[dict]]:
        with self._lock:
            spans = self._traces.get(trace_id)
            return [dict(span) for span in spans] if spans is not None else None

    def tree(self, trace_id: str) -> Optional[dict]:
        spans = self.get(trace_id)
        return build_span_tree(spans) if spans else None

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        """Forget every trace."""
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class Tracer:
    """Mints spans and retains the finished ones in a :class:`TraceStore`."""

    def __init__(self, capacity: int = 256) -> None:
        self.store = TraceStore(capacity)

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> Span:
        return Span(
            name,
            trace_id=trace_id if trace_id is not None else new_trace_id(),
            parent_id=parent_id,
            sink=self.store.add,
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> Iterator[Span]:
        """Open a span, make it ambient, end it on exit (error-aware)."""
        span = self.start_span(name, trace_id=trace_id, parent_id=parent_id)
        token = _ACTIVE_SPAN.set(span)
        try:
            yield span
        except BaseException:
            span.end(status="error")
            raise
        else:
            span.end()
        finally:
            _ACTIVE_SPAN.reset(token)

    def ingest(self, spans: Optional[Iterable[dict]]) -> None:
        self.store.ingest(spans)

    def spans_for(self, trace_id: str) -> Optional[list[dict]]:
        return self.store.get(trace_id)

    def trace(self, trace_id: str) -> Optional[dict]:
        return self.store.tree(trace_id)

    def trace_ids(self) -> list[str]:
        return self.store.trace_ids()

    def clear(self) -> None:
        """Forget every retained trace (the spans already handed out
        stay with their holders)."""
        self.store.clear()


def build_span_tree(spans: Iterable[dict]) -> dict:
    """Nest flat span dicts into ``{"trace_id", "span_count", "roots"}``.

    A span whose parent is absent from the set becomes a root — partial
    traces (a worker died, a store evicted) still render as forests
    instead of vanishing.  Children sort by wall-clock start.
    """
    nodes: dict[str, dict] = {}
    ordered: list[dict] = []
    for span in spans:
        node = dict(span)
        node["children"] = []
        span_id = node.get("span_id")
        if isinstance(span_id, str) and span_id not in nodes:
            nodes[span_id] = node
            ordered.append(node)
    roots: list[dict] = []
    for node in ordered:
        parent = nodes.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in ordered:
        node["children"].sort(key=lambda child: child.get("start") or 0.0)
    roots.sort(key=lambda node: node.get("start") or 0.0)
    trace_id = ordered[0].get("trace_id") if ordered else None
    return {"trace_id": trace_id, "span_count": len(ordered), "roots": roots}


def _summarize(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return f"<{len(value)} items>"
    if isinstance(value, dict):
        return f"<{len(value)} keys>"
    return str(value)


def render_span_tree(tree: dict) -> str:
    """An indented, human-readable rendering of :func:`build_span_tree`."""
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        duration = node.get("duration")
        timing = f"{duration * 1000:.3f} ms" if duration is not None else "open"
        flag = "" if node.get("status", "ok") == "ok" else f" [{node['status']}]"
        attributes = node.get("attributes") or {}
        suffix = "".join(
            f" {key}={_summarize(attributes[key])}" for key in sorted(attributes)
        )
        lines.append(f"{'  ' * depth}{node.get('name')}  {timing}{flag}{suffix}")
        for child in node.get("children", ()):
            walk(child, depth + 1)

    for root in tree.get("roots", ()):
        walk(root, 0)
    return "\n".join(lines)
