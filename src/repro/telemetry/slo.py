"""SLO objectives and multi-window burn-rate alerting.

Declarative service-level objectives — p99-style latency bounds, error
rate, availability — evaluated over **sliding windows of the metrics
registry the service already keeps**.  No second measurement pipeline:
the engine periodically snapshots cumulative counter/histogram exports
and computes window deltas, so the numbers an alert fires on are the
same numbers ``/metrics`` serves.

Alerting follows SRE multi-window burn-rate practice: an objective's
**burn rate** is how fast it is consuming its error budget (``bad
fraction / budget``; burn 1.0 = exactly on budget).  An alert fires
only when *both* a fast window (catches sudden breakage quickly) and a
slow window (refuses to page on a blip) exceed the burn threshold, and
clears as soon as the fast window recovers.  Transitions emit
``slo_breach`` / ``slo_clear`` events and every evaluation refreshes
``repro_slo_*`` gauge families for Prometheus.

Availability is liveness-based when the source exports the cluster
worker gauges (fraction of workers alive, time-averaged over the
window) and falls back to the fraction of requests failed by
*unavailability* error types (worker crash, pool closed) on the thread
tier, which has no worker fleet.

The math is exposed as pure helpers (:func:`histogram_bad_fraction`,
:func:`burn_rate`) so property tests can pin the key invariant:
cumulative histogram buckets merge by addition, so the burn rate over
merged replica exports equals the burn rate over the union of the
underlying samples.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .events import EventLog
from .metrics import MetricsRegistry

__all__ = [
    "SloEngine",
    "SloObjective",
    "burn_rate",
    "default_objectives",
    "histogram_bad_fraction",
]

#: Error types that count against *availability* (the service was up
#: but structurally unable to answer), as opposed to request-shaped
#: errors like an unknown keyword.
UNAVAILABLE_ERROR_TYPES = ("WorkerCrashedError", "PoolClosedError")


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective.

    ``kind`` selects the signal:

    * ``"latency"`` — fraction of requests slower than ``threshold``
      seconds must stay within ``budget`` (e.g. threshold 1.0, budget
      0.01 ⇒ "99% of requests under a second").
    * ``"error_rate"`` — fraction of requests that errored must stay
      within ``budget``.
    * ``"availability"`` — unavailable fraction (dead workers, crashed
      requests) must stay within ``budget``.

    ``dataset`` scopes the objective (``"*"`` = fleet-wide; samples
    without a dataset label only match ``"*"``).  ``fast_window`` /
    ``slow_window`` are the two alerting windows in seconds;
    ``burn_threshold`` is the burn rate both must exceed to fire.
    """

    name: str
    kind: str  # "latency" | "error_rate" | "availability"
    dataset: str = "*"
    threshold: float = 1.0  # latency only: the per-request bound, seconds
    budget: float = 0.01  # allowed bad fraction (1 - target)
    fast_window: float = 60.0
    slow_window: float = 300.0
    burn_threshold: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "error_rate", "availability"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError("windows must satisfy 0 < fast <= slow")


def default_objectives() -> tuple[SloObjective, ...]:
    """The stock fleet-wide objectives both service tiers start with."""
    return (
        SloObjective(name="availability", kind="availability", budget=0.01),
        SloObjective(name="error-rate", kind="error_rate", budget=0.05),
        SloObjective(
            name="latency-p99", kind="latency", threshold=1.0, budget=0.01
        ),
    )


# ----------------------------------------------------------------------
# Pure window math — kept free of engine state so tests can pin it.


def burn_rate(bad: float, total: float, budget: float) -> float:
    """How fast the error budget burns: ``(bad/total) / budget``.

    1.0 means exactly on budget; 0 when the window saw no traffic.
    """
    if total <= 0:
        return 0.0
    return (bad / total) / budget


def histogram_bad_fraction(
    buckets: Mapping[str, float], count: float, threshold: float
) -> float:
    """Fraction of observations above ``threshold`` seconds.

    ``buckets`` are cumulative Prometheus-style ``{le_label: count}``
    pairs as exported by :class:`~repro.telemetry.metrics.Histogram`.
    The largest bucket bound ≤ ``threshold`` stands in for the
    threshold, which over-counts badness (conservative) when the
    threshold falls between bounds — align SLO thresholds to bucket
    bounds for exact numbers.
    """
    if count <= 0:
        return 0.0
    best_bound = None
    good = 0.0
    for label, value in buckets.items():
        if label == "+Inf":
            continue
        bound = float(label)
        if bound <= threshold and (best_bound is None or bound > best_bound):
            best_bound = bound
            good = value
    return max(0.0, (count - good) / count)


# ----------------------------------------------------------------------


class SloEngine:
    """Evaluates objectives over sliding windows of a metrics export.

    ``source`` is a zero-argument callable returning a families export
    (``MetricsRegistry.export()`` shape).  ``registry`` (optional)
    receives the ``repro_slo_*`` gauge families; ``event_log``
    (optional) receives breach/clear events.  Family names are
    parameters so the engine serves both tiers: the cluster points it
    at its supervisor-side fleet counters, the thread tier at its
    per-algorithm service counters.
    """

    def __init__(
        self,
        objectives: Iterable[SloObjective],
        *,
        source: Callable[[], Mapping[str, Any]],
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
        request_family: str = "repro_fleet_requests_total",
        error_family: str = "repro_fleet_failures_total",
        latency_family: str = "repro_fleet_request_latency_seconds",
        workers_family: str = "repro_cluster_workers",
        workers_alive_family: str = "repro_cluster_workers_alive",
        unavailable_types: Iterable[str] = UNAVAILABLE_ERROR_TYPES,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.objectives = tuple(objectives)
        self._source = source
        self._event_log = event_log
        self._families = {
            "requests": request_family,
            "errors": error_family,
            "latency": latency_family,
            "workers": workers_family,
            "alive": workers_alive_family,
        }
        self._unavailable = frozenset(unavailable_types)
        self._clock = clock
        self._lock = threading.Lock()
        self._snapshots: deque[dict[str, Any]] = deque()
        self._firing: dict[str, bool] = {o.name: False for o in self.objectives}
        self._since: dict[str, float | None] = {o.name: None for o in self.objectives}
        horizon = max((o.slow_window for o in self.objectives), default=300.0)
        self._retention = horizon * 2.0 + 60.0
        self._burn_gauge = None
        self._firing_gauge = None
        self._alerts_total = None
        if registry is not None and self.objectives:
            self._burn_gauge = registry.gauge(
                "repro_slo_burn_rate",
                "Error-budget burn rate per objective and window "
                "(1.0 = exactly on budget)",
                labels=("objective", "window"),
                merge="max",
            )
            self._firing_gauge = registry.gauge(
                "repro_slo_alert_firing",
                "1 while the objective's multi-window burn alert is firing",
                labels=("objective",),
                merge="max",
            )
            self._alerts_total = registry.counter(
                "repro_slo_alerts_total",
                "Burn-rate alerts fired per objective",
                labels=("objective",),
            )

    # ------------------------------------------------------------------
    # Snapshot extraction

    def _extract(self, families: Mapping[str, Any]) -> dict[str, Any]:
        """Boil a families export down to the numbers the windows need."""

        def samples(name: str) -> list[dict[str, Any]]:
            family = families.get(name) or {}
            return list(family.get("samples") or [])

        def gauge_value(name: str) -> float | None:
            rows = samples(name)
            if not rows:
                return None
            return float(sum(row.get("value") or 0.0 for row in rows))

        snapshot: dict[str, Any] = {
            "ts": self._clock(),
            "requests": [
                (row.get("labels") or {}, float(row.get("value") or 0.0))
                for row in samples(self._families["requests"])
            ],
            "errors": [
                (row.get("labels") or {}, float(row.get("value") or 0.0))
                for row in samples(self._families["errors"])
            ],
            "latency": [
                (
                    row.get("labels") or {},
                    dict(row.get("buckets") or {}),
                    float(row.get("count") or 0.0),
                )
                for row in samples(self._families["latency"])
            ],
        }
        workers = gauge_value(self._families["workers"])
        alive = gauge_value(self._families["alive"])
        snapshot["alive_fraction"] = (
            None if not workers else max(0.0, min(1.0, (alive or 0.0) / workers))
        )
        return snapshot

    @staticmethod
    def _matches(labels: Mapping[str, Any], dataset: str) -> bool:
        if dataset == "*":
            return True
        return labels.get("dataset") == dataset

    def _window_reference(self, now: float, window: float) -> dict[str, Any]:
        """Newest snapshot at least ``window`` old (or the oldest kept)."""
        reference = self._snapshots[0]
        for snapshot in self._snapshots:
            if snapshot["ts"] <= now - window:
                reference = snapshot
            else:
                break
        return reference

    def _counter_delta(
        self,
        newest: Mapping[str, Any],
        oldest: Mapping[str, Any],
        key: str,
        dataset: str,
        type_filter: frozenset[str] | None = None,
    ) -> float:
        def total(snapshot: Mapping[str, Any]) -> float:
            value = 0.0
            for labels, count in snapshot[key]:
                if not self._matches(labels, dataset):
                    continue
                if type_filter is not None and labels.get("type") not in type_filter:
                    continue
                value += count
            return value

        return max(0.0, total(newest) - total(oldest))

    def _latency_delta(
        self,
        newest: Mapping[str, Any],
        oldest: Mapping[str, Any],
        dataset: str,
        threshold: float,
    ) -> tuple[float, float]:
        """(bad, total) request-count deltas for the latency objective."""

        def totals(snapshot: Mapping[str, Any]) -> tuple[float, float]:
            bad = 0.0
            count = 0.0
            for labels, buckets, sample_count in snapshot["latency"]:
                if not self._matches(labels, dataset):
                    continue
                bad += histogram_bad_fraction(buckets, sample_count, threshold) * (
                    sample_count
                )
                count += sample_count
            return bad, count

        bad_new, count_new = totals(newest)
        bad_old, count_old = totals(oldest)
        return max(0.0, bad_new - bad_old), max(0.0, count_new - count_old)

    def _window_stats(
        self, objective: SloObjective, now: float, window: float
    ) -> dict[str, Any]:
        newest = self._snapshots[-1]
        oldest = self._window_reference(now, window)
        if objective.kind == "availability":
            fractions = [
                snapshot["alive_fraction"]
                for snapshot in self._snapshots
                if snapshot["ts"] > now - window
                and snapshot["alive_fraction"] is not None
            ]
            if fractions:
                bad_fraction = 1.0 - (sum(fractions) / len(fractions))
                total = float(len(fractions))
                bad = bad_fraction * total
            else:
                # Thread tier: no worker fleet — unavailability is the
                # fraction of requests failed by crash-class errors.
                total = self._counter_delta(newest, oldest, "requests", "*")
                bad = self._counter_delta(
                    newest, oldest, "errors", objective.dataset, self._unavailable
                )
                bad_fraction = bad / total if total else 0.0
        elif objective.kind == "error_rate":
            total = self._counter_delta(
                newest, oldest, "requests", objective.dataset
            )
            bad = self._counter_delta(newest, oldest, "errors", objective.dataset)
            bad_fraction = bad / total if total else 0.0
        else:  # latency
            bad, total = self._latency_delta(
                newest, oldest, objective.dataset, objective.threshold
            )
            bad_fraction = bad / total if total else 0.0
        return {
            "window": window,
            "bad": bad,
            "total": total,
            "bad_fraction": bad_fraction,
            "burn_rate": burn_rate(bad, total, objective.budget),
        }

    # ------------------------------------------------------------------
    # Evaluation

    def evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """Take a fresh snapshot, slide the windows, update alert state.

        Returns one status dict per objective; also refreshes the
        ``repro_slo_*`` gauges and emits breach/clear events on firing
        transitions.  Safe to call from both the background ticker and
        request handlers.
        """
        export = self._source()
        with self._lock:
            snapshot = self._extract(export)
            if now is not None:
                snapshot["ts"] = now
            tick = snapshot["ts"]
            self._snapshots.append(snapshot)
            while (
                len(self._snapshots) > 2
                and self._snapshots[0]["ts"] < tick - self._retention
            ):
                self._snapshots.popleft()

            statuses: list[dict[str, Any]] = []
            for objective in self.objectives:
                fast = self._window_stats(objective, tick, objective.fast_window)
                slow = self._window_stats(objective, tick, objective.slow_window)
                was_firing = self._firing[objective.name]
                if was_firing:
                    firing = fast["burn_rate"] >= objective.burn_threshold
                else:
                    firing = (
                        fast["burn_rate"] >= objective.burn_threshold
                        and slow["burn_rate"] >= objective.burn_threshold
                    )
                if firing and not was_firing:
                    self._since[objective.name] = tick
                    self._on_fire(objective, fast, slow)
                elif was_firing and not firing:
                    self._since[objective.name] = None
                    self._on_clear(objective, fast)
                self._firing[objective.name] = firing
                status = {
                    "objective": objective.name,
                    "kind": objective.kind,
                    "dataset": objective.dataset,
                    "budget": objective.budget,
                    "burn_threshold": objective.burn_threshold,
                    "windows": {"fast": fast, "slow": slow},
                    "firing": firing,
                    "firing_since": self._since[objective.name],
                }
                if objective.kind == "latency":
                    status["threshold"] = objective.threshold
                statuses.append(status)
                if self._burn_gauge is not None:
                    self._burn_gauge.set(
                        fast["burn_rate"], objective=objective.name, window="fast"
                    )
                    self._burn_gauge.set(
                        slow["burn_rate"], objective=objective.name, window="slow"
                    )
                if self._firing_gauge is not None:
                    self._firing_gauge.set(
                        1.0 if firing else 0.0, objective=objective.name
                    )
            return [dict(status) for status in statuses]

    def _on_fire(
        self, objective: SloObjective, fast: Mapping[str, Any], slow: Mapping[str, Any]
    ) -> None:
        if self._alerts_total is not None:
            self._alerts_total.inc(objective=objective.name)
        if self._event_log is not None:
            self._event_log.emit(
                "slo_breach",
                f"SLO {objective.name!r} burning budget at "
                f"{fast['burn_rate']:.1f}x (fast) / {slow['burn_rate']:.1f}x "
                f"(slow); threshold {objective.burn_threshold:g}x",
                severity="error",
                dataset=None if objective.dataset == "*" else objective.dataset,
                source="slo",
                objective=objective.name,
                kind_=objective.kind,
                burn_fast=fast["burn_rate"],
                burn_slow=slow["burn_rate"],
                burn_threshold=objective.burn_threshold,
            )

    def _on_clear(self, objective: SloObjective, fast: Mapping[str, Any]) -> None:
        if self._event_log is not None:
            self._event_log.emit(
                "slo_clear",
                f"SLO {objective.name!r} alert cleared "
                f"(fast burn {fast['burn_rate']:.1f}x)",
                severity="info",
                dataset=None if objective.dataset == "*" else objective.dataset,
                source="slo",
                objective=objective.name,
                burn_fast=fast["burn_rate"],
            )
