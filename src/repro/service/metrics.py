"""Request-path recording and the JSON view of the metrics registry.

The registry (:class:`~repro.telemetry.metrics.MetricsRegistry`) is the
only store of serving numbers; this module is its two ends.
:class:`ServiceMetrics` declares the request-path families and is what
the serving code calls per request — a few family writes, nothing
else.  :func:`metrics_view` is a pure function from a registry export
(one service's, or a fleet's merged one) to the plain dict ``metrics()``
/ ``GET /metrics`` have always served; docs/OBSERVABILITY.md tables
which family backs which key.
"""

from __future__ import annotations

from math import floor
from typing import Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "ServiceMetrics",
    "family_total",
    "family_values",
    "metrics_view",
    "percentile",
]

#: Percentiles exported per algorithm.
EXPORTED_PERCENTILES = (50.0, 90.0, 99.0)


def percentile(samples: list[float], q: float) -> Optional[float]:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``samples``,
    ``None`` on an empty list.  Pure Python (the fleet supervisor
    renders ``metrics()`` without numpy) and bit-identical to
    ``numpy.percentile``: its virtual index and its ``_lerp``, which
    interpolates from the right neighbour once ``t >= 0.5``."""
    if not samples:
        return None
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    virtual = (len(ordered) - 1) * (q / 100)
    below = floor(virtual)
    if below >= len(ordered) - 1:
        return float(ordered[-1])
    a, b, t = ordered[below], ordered[below + 1], virtual - below
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


class ServiceMetrics:
    """The request-path families of one service's registry."""

    def __init__(self, registry: MetricsRegistry, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self._requests = registry.counter(
            "repro_requests_total",
            "Requests handled (including errors)",
            labels=("algorithm",),
        )
        self._errors = registry.counter(
            "repro_errors_total",
            "Requests that ended in a structured error",
            labels=("type",),
        )
        self._cancellations = registry.counter(
            "repro_cancellations_total",
            "Cooperatively stopped searches",
            labels=("reason",),
        )
        self._reclaimed = registry.counter(
            "repro_cancel_reclaimed_seconds_total",
            "Deadline budget handed back by cooperative cancellation",
        )
        self._overrun = registry.counter(
            "repro_cancel_overrun_seconds_total",
            "Time searches ran past their deadline before stopping",
        )
        self._hits = registry.counter("repro_cache_hits_total", "Result cache hits")
        self._misses = registry.counter(
            "repro_cache_misses_total", "Result cache misses"
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Uncached request latency",
            labels=("algorithm",),
            window=window,
        )

    def record_request(
        self, algorithm: str, seconds: float, *, cached: Optional[bool]
    ) -> None:
        """Record one completed request.

        ``cached`` is True for a hit, False for a miss, None when the
        request bypassed the cache (``use_cache=False``) — bypasses are
        not cache lookups, so they leave the hit rate alone.  Cached
        responses skip the latency family: mixing ~microsecond cache
        reads into the search distribution would make every percentile
        meaningless.
        """
        self._requests.inc(algorithm=algorithm)
        if cached is True:
            self._hits.inc()
            return
        if cached is False:
            self._misses.inc()
        self._latency.observe(float(seconds), algorithm=algorithm)

    def record_error(self, algorithm: str, error_type: str) -> None:
        self._requests.inc(algorithm=algorithm)
        self._errors.inc(type=error_type)

    def record_cancellation(
        self,
        reason: str,
        *,
        reclaimed_seconds: float = 0.0,
        overrun_seconds: float = 0.0,
    ) -> None:
        """Record one cooperatively cancelled search.

        Fleet-wide counters, deliberately not broken down per
        algorithm: a cancellation is a property of the request's
        deadline, and the per-algorithm request/error tables already
        carry the structured ``DeadlineExceededError`` /
        ``SearchCancelledError`` entries.

        ``reason`` is the token's: ``"deadline"`` (counted as
        ``deadline_exceeded``) or ``"cancelled"`` (an explicit cancel —
        client disconnect, ``DELETE /search/<id>``, batch drain).

        ``reclaimed_seconds`` is the *measurable* capacity win: how far
        ahead of the request's deadline budget the worker was freed
        (explicit cancels reclaim ``deadline - return``; a
        deadline-fired cancel reclaims the unknowable remainder of the
        search, which shows up in throughput, not here).
        ``overrun_seconds`` is how long past its deadline the search
        kept running before the cooperative check fired — bounded by
        the check interval, and the number to alert on if a
        non-cooperative section ever grows.
        """
        self._cancellations.inc(
            reason="deadline_exceeded" if reason == "deadline" else "cancelled"
        )
        self._reclaimed.inc(max(0.0, reclaimed_seconds))
        self._overrun.inc(max(0.0, overrun_seconds))


# ----------------------------------------------------------------------
# the JSON view
# ----------------------------------------------------------------------
def _samples(export: dict, family: str) -> list:
    return (export.get(family) or {}).get("samples", ())


def family_total(export: dict, family: str):
    """Sum of ``family``'s samples in a registry export (0 if absent)."""
    return sum(sample["value"] for sample in _samples(export, family))


def family_values(export: dict, family: str, label: str) -> dict:
    """``{label value: sample value}`` of a one-label family, sorted."""
    return dict(
        sorted(
            (sample["labels"][label], sample["value"])
            for sample in _samples(export, family)
        )
    )


def _algorithm_entry(requests: int, sample: dict, include_samples: bool) -> dict:
    """One ``algorithms`` row.  Count, mean and percentiles describe the
    recent-latency *window*, not the histogram's lifetime totals; a
    sample exported without its window is a ``KeyError``."""
    # No sample at all: the algorithm only ever errored.
    window = sample["window"] if sample else []
    count = len(window)
    mean = sum(window) / count if count else None
    entry = {"requests": requests, "latency_count": count, "latency_mean": mean}
    ordered = sorted(window)  # once: each percentile's own sort is then O(n)
    for q in EXPORTED_PERCENTILES:
        entry[f"latency_p{q:g}"] = percentile(ordered, q)
    if include_samples:
        entry["latency_samples"] = window
    return entry


def metrics_view(export: dict, *, include_samples: bool = False) -> dict:
    """The ``metrics()`` document of a registry export.

    ``export`` is ``MetricsRegistry.export(include_samples=True)`` of
    one service or the merge of several; a section whose families are
    absent (a supervisor has no cache, builds no datasets) is left out.
    ``include_samples=True`` adds each algorithm's latency window under
    ``latency_samples``.  ``cache_hits`` / ``cache_misses`` count
    *requests* by how they were answered, ``cache.hits`` /
    ``cache.misses`` count *lookups* on the cache object — two
    measurements (``explain``, errors and cancellations split them).
    """
    requests = family_values(export, "repro_requests_total", "algorithm")
    errors = family_values(export, "repro_errors_total", "type")
    cancellations = family_values(export, "repro_cancellations_total", "reason")
    hits = family_total(export, "repro_cache_hits_total")
    misses = family_total(export, "repro_cache_misses_total")
    latency = {
        sample["labels"]["algorithm"]: sample
        for sample in _samples(export, "repro_request_latency_seconds")
    }
    view = {
        "requests_total": sum(requests.values()),
        "errors_total": sum(errors.values()),
        "errors": errors,
        "cancellations": {
            "cancelled": cancellations.get("cancelled", 0),
            "deadline_exceeded": cancellations.get("deadline_exceeded", 0),
            "reclaimed_seconds": float(
                family_total(export, "repro_cancel_reclaimed_seconds_total")
            ),
            "overrun_seconds": float(
                family_total(export, "repro_cancel_overrun_seconds_total")
            ),
        },
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "algorithms": {
            algorithm: _algorithm_entry(
                count, latency.get(algorithm, {}), include_samples
            )
            for algorithm, count in requests.items()
        },
    }
    if "repro_cache_capacity" in export:
        lookup_hits = family_total(export, "repro_cache_lookup_hits_total")
        lookup_misses = family_total(export, "repro_cache_lookup_misses_total")
        lookups = lookup_hits + lookup_misses
        view["cache"] = {
            "size": family_total(export, "repro_cache_entries"),
            "capacity": family_total(export, "repro_cache_capacity"),
            "hits": lookup_hits,
            "misses": lookup_misses,
            "hit_rate": lookup_hits / lookups if lookups else 0.0,
            "evictions": family_total(export, "repro_cache_evictions_total"),
        }
    if "repro_dataset_version" in export:
        versions = family_values(export, "repro_dataset_version", "dataset")
        view["datasets"] = {
            "registered": list(versions),
            "build_seconds": family_values(
                export, "repro_dataset_build_seconds", "dataset"
            ),
            "versions": versions,
        }
        wal_seq = family_values(export, "repro_wal_last_seq", "dataset")
        if wal_seq:
            view["datasets"]["wal_seq"] = wal_seq
    return view
