"""Central metrics registry: counters, gauges, bucketed histograms.

The one store of serving numbers.  Every layer of the stack registers
families here — request counters and latency, the service cache,
cluster pool health, live-mutation dataset versions, WAL append/fsync
counters — and everything an operator reads is a view of its export:

* ``QueryService.metrics()`` / ``ShardedQueryService.metrics()`` build
  their JSON document from :meth:`MetricsRegistry.export` with
  :func:`repro.service.metrics.metrics_view` and embed the export itself
  under a ``"registry"`` key; :func:`merge_registries` combines the
  exports of many replicas into one fleet export first;
* the HTTP front-end renders the same export as Prometheus text
  exposition (``/metrics?format=prometheus``) via
  :func:`render_prometheus`.

Histogram buckets merge across replicas by plain addition — the trade
the whole Prometheus ecosystem makes — but a percentile read off
buckets is only as fine as the ladder, so a histogram declared with a
``window`` also keeps its most recent observations and ships them on
``export(include_samples=True)`` (merged windows concatenate); scrapes
and SLO ticks export without them and never copy a sample.

Two ways to feed a family:

* *event-driven*: call ``inc`` / ``observe`` / ``set`` at the point the
  thing happens (request counters, latency histograms);
* *collector-driven*: register a callback with :meth:`add_collector`
  that reads live state (cache sizes, WAL sequence numbers) and sets
  gauges/counters; collectors run at export time, so scrapes always see
  current values without per-event bookkeeping.

Stdlib only; thread-safe behind one registry-wide lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_registries",
    "render_prometheus",
    "strip_samples",
]

#: Default histogram buckets (seconds), Prometheus-style log-ish ladder.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_Number = Union[int, float]


def _bucket_label(bound: float) -> str:
    return format(bound, "g")


class _Family:
    """Shared machinery: label validation and keyed sample storage."""

    kind = "untyped"
    #: Cross-replica combine; only gauges declare (and export) one.
    merge: Optional[str] = None

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.RLock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self._lock = lock
        self._samples: dict = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labels):
            raise ValueError(
                f"{self.name}: expected labels {sorted(self.labels)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def _label_dict(self, key: tuple) -> dict:
        return dict(zip(self.labels, key))

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()

    def _export_sample(self, state, include_samples: bool) -> dict:
        """One label set's exported fields (histograms override)."""
        return {"value": state}

    def export(self, include_samples: bool = False) -> dict:
        with self._lock:
            samples = [
                {
                    "labels": self._label_dict(key),
                    **self._export_sample(state, include_samples),
                }
                for key, state in sorted(self._samples.items())
            ]
        family = {"type": self.kind, "help": self.help, "labels": list(self.labels)}
        if self.merge is not None:
            family["merge"] = self.merge
        family["samples"] = samples
        return family


class Counter(_Family):
    """A monotonically increasing total; merges across replicas by sum."""

    kind = "counter"

    def inc(self, amount: _Number = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up, got {amount}")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def set_total(self, value: _Number, **labels: str) -> None:
        """Overwrite the running total — for collector-driven counters
        whose true source of increments lives elsewhere (WAL stats)."""
        key = self._key(labels)
        with self._lock:
            self._samples[key] = value

    def value(self, **labels: str) -> _Number:
        with self._lock:
            return self._samples.get(self._key(labels), 0)


class Gauge(_Family):
    """A value that can go both ways.  ``merge`` picks the cross-replica
    combine: ``"sum"`` (sizes, queue depths) or ``"max"`` (versions,
    sequence numbers — where replicas report the same logical quantity).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.RLock,
        merge: str = "sum",
    ) -> None:
        if merge not in ("sum", "max"):
            raise ValueError(f"{name}: merge must be 'sum' or 'max', got {merge!r}")
        super().__init__(name, help_text, labels, lock)
        self.merge = merge

    def set(self, value: _Number, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = value

    def inc(self, amount: _Number = 1, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def dec(self, amount: _Number = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def replace(self, values: Mapping[tuple, _Number]) -> None:
        """Swap in a whole sample set, keyed by label-value tuples in
        ``labels`` order — for collector-driven gauges whose label sets
        can go away (a detached WAL must stop reporting a position)."""
        samples = {
            tuple(str(part) for part in key): value for key, value in values.items()
        }
        with self._lock:
            self._samples = samples

    def value(self, **labels: str) -> _Number:
        with self._lock:
            return self._samples.get(self._key(labels), 0)


class Histogram(_Family):
    """Bucketed distribution.  Exported bucket counts are *cumulative*
    (Prometheus ``le`` semantics), which keeps the merge a plain
    per-bucket sum.

    ``window`` > 0 also keeps the most recent ``window`` observations
    per label set (bounded: a long-lived service must not grow with
    query count, and recent samples are what percentile alerts care
    about), exported only on ``export(include_samples=True)``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = 0,
    ) -> None:
        super().__init__(name, help_text, labels, lock)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"{name}: at least one bucket bound required")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: duplicate bucket bounds")
        if window < 0:
            raise ValueError(f"{name}: window must be >= 0, got {window!r}")
        self.buckets = bounds
        self.window = window

    def observe(self, value: _Number, **labels: str) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = self._samples[key] = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                    # maxlen=0 (no window) makes every append a no-op.
                    "recent": deque(maxlen=self.window),
                }
            state["counts"][index] += 1
            state["sum"] += value
            state["count"] += 1
            state["recent"].append(value)

    def _export_sample(self, state: dict, include_samples: bool) -> dict:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, state["counts"]):
            running += count
            cumulative[_bucket_label(bound)] = running
        cumulative["+Inf"] = state["count"]
        sample = {"buckets": cumulative, "sum": state["sum"], "count": state["count"]}
        if include_samples and self.window:
            sample["window"] = list(state["recent"])
        return sample


class MetricsRegistry:
    """Owns metric families and export-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []

    def _get_or_create(self, cls, name: str, factory) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}"
                    )
                return family
            family = self._families[name] = factory()
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(  # type: ignore[return-value]
            Counter, name, lambda: Counter(name, help_text, labels, self._lock)
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        merge: str = "sum",
    ) -> Gauge:
        return self._get_or_create(  # type: ignore[return-value]
            Gauge, name, lambda: Gauge(name, help_text, labels, self._lock, merge)
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = 0,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram,
            name,
            lambda: Histogram(name, help_text, labels, self._lock, buckets, window),
        )

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callback run at every export, before families are
        read — the hook that turns live state into gauge values."""
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()

    def export(self, *, include_samples: bool = False) -> dict:
        """Run collectors, then snapshot every family as JSON-safe
        data; ``include_samples=True`` adds each windowed histogram's
        recent observations (``"window"`` per sample)."""
        self.collect()
        with self._lock:
            families = dict(self._families)
        return {
            name: families[name].export(include_samples) for name in sorted(families)
        }

    def reset(self) -> None:
        """Zero every family's samples (families stay registered)."""
        with self._lock:
            for family in self._families.values():
                family.clear()


# ----------------------------------------------------------------------
# cross-replica merge
# ----------------------------------------------------------------------
def _merge_value(kind: str, merge: str, left: _Number, right: _Number) -> _Number:
    if kind == "gauge" and merge == "max":
        return max(left, right)
    return left + right


def merge_registries(parts: Iterable[Optional[dict]]) -> dict:
    """Combine :meth:`MetricsRegistry.export` dicts from many replicas.

    Counters and histograms add; gauges follow their declared ``merge``
    mode.  A family or label set present in only some replicas merges
    from the replicas that have it — heterogeneous fleets (a worker
    mid-restart, a replica without a dataset) must not KeyError.

    Histogram windows concatenate (a percentile of percentiles is not
    a percentile); a part that observed values but shipped no window
    leaves the merged sample without one — exact percentiles are then
    impossible, and the merge says so rather than guess.
    """
    merged: dict[str, dict] = {}
    for part in parts:
        if not isinstance(part, dict):
            continue
        for name, family in part.items():
            if not isinstance(family, dict):
                continue
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    key: value
                    for key, value in family.items()
                    if key != "samples"
                }
                target["samples"] = {}
            kind = family.get("type", "untyped")
            merge_mode = family.get("merge", "sum")
            for sample in family.get("samples", ()):
                labels = sample.get("labels", {})
                key = tuple(sorted(labels.items()))
                existing = target["samples"].get(key)
                if kind == "histogram":
                    if existing is None:
                        existing = target["samples"][key] = {
                            "labels": dict(labels),
                            "buckets": {},
                            "sum": 0.0,
                            "count": 0,
                        }
                    if "window" in sample and (
                        "window" in existing or not existing["count"]
                    ):
                        existing.setdefault("window", []).extend(sample["window"])
                    elif sample.get("count", 0):
                        existing.pop("window", None)
                    buckets = existing["buckets"]
                    for bound, count in sample.get("buckets", {}).items():
                        buckets[bound] = buckets.get(bound, 0) + count
                    existing["sum"] += sample.get("sum", 0.0)
                    existing["count"] += sample.get("count", 0)
                else:
                    value = sample.get("value", 0)
                    if existing is None:
                        target["samples"][key] = {
                            "labels": dict(labels),
                            "value": value,
                        }
                    else:
                        existing["value"] = _merge_value(
                            kind, merge_mode, existing["value"], value
                        )
    result: dict[str, dict] = {}
    for name in sorted(merged):
        family = merged[name]
        samples = [family["samples"][key] for key in sorted(family["samples"])]
        for sample in samples:
            if "buckets" in sample:
                sample["buckets"] = _sort_buckets(sample["buckets"])
        result[name] = {**{k: v for k, v in family.items() if k != "samples"},
                        "samples": samples}
    return result


def _sort_buckets(buckets: dict) -> dict:
    def bound_key(label: str) -> float:
        return float("inf") if label == "+Inf" else float(label)

    return {label: buckets[label] for label in sorted(buckets, key=bound_key)}


def strip_samples(families: dict) -> dict:
    """An ``export(include_samples=True)`` (or a merge of several)
    without its histogram windows — the form ``/metrics`` embeds."""
    return {
        name: {
            **family,
            "samples": [
                {key: value for key, value in sample.items() if key != "window"}
                for sample in family["samples"]
            ],
        }
        for name, family in families.items()
    }


# ----------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ----------------------------------------------------------------------
def _sanitize_name(name: str) -> str:
    cleaned = [
        ch if ch.isalnum() or ch in ("_", ":") else "_" for ch in name
    ]
    if cleaned and cleaned[0].isdigit():
        cleaned.insert(0, "_")
    return "".join(cleaned)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_number(value: _Number) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_string(labels: dict, extra: Optional[dict] = None) -> str:
    items = list(labels.items()) + list((extra or {}).items())
    if not items:
        return ""
    body = ",".join(
        f'{_sanitize_name(str(key))}="{_escape_label(str(value))}"'
        for key, value in items
    )
    return "{" + body + "}"


def render_prometheus(families: Optional[dict]) -> str:
    """Render a registry export (or merge) as Prometheus text exposition."""
    lines: list[str] = []
    for name in sorted(families or {}):
        family = (families or {})[name]
        metric = _sanitize_name(name)
        kind = family.get("type", "untyped")
        help_text = family.get("help", "")
        if help_text:
            lines.append(f"# HELP {metric} {_escape_help(help_text)}")
        lines.append(f"# TYPE {metric} {kind}")
        for sample in family.get("samples", ()):
            labels = sample.get("labels", {})
            if kind == "histogram":
                for bound, count in sample.get("buckets", {}).items():
                    lines.append(
                        f"{metric}_bucket"
                        f"{_label_string(labels, {'le': bound})} "
                        f"{_format_number(count)}"
                    )
                lines.append(
                    f"{metric}_sum{_label_string(labels)} "
                    f"{_format_number(sample.get('sum', 0.0))}"
                )
                lines.append(
                    f"{metric}_count{_label_string(labels)} "
                    f"{_format_number(sample.get('count', 0))}"
                )
            else:
                lines.append(
                    f"{metric}{_label_string(labels)} "
                    f"{_format_number(sample.get('value', 0))}"
                )
    return "\n".join(lines) + "\n"
