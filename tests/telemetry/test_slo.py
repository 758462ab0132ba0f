"""SloEngine: window math, multi-window firing, gauges, events."""

import pytest

from repro.service import QueryService
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import (
    SloEngine,
    SloObjective,
    burn_rate,
    default_objectives,
    histogram_bad_fraction,
)

from tests.helpers import wait_until


class FakeSource:
    """A hand-rolled families export the engine snapshots from."""

    def __init__(self):
        self.requests = 0.0
        self.errors: dict[str, float] = {}
        self.workers = None
        self.alive = None

    def __call__(self):
        families = {
            "repro_fleet_requests_total": {
                "type": "counter",
                "samples": [{"labels": {"dataset": "toy"}, "value": self.requests}],
            },
            "repro_fleet_failures_total": {
                "type": "counter",
                "samples": [
                    {"labels": {"dataset": "toy", "type": kind}, "value": count}
                    for kind, count in self.errors.items()
                ],
            },
            "repro_fleet_request_latency_seconds": {
                "type": "histogram",
                "samples": [],
            },
        }
        if self.workers is not None:
            families["repro_cluster_workers"] = {
                "type": "gauge",
                "samples": [{"labels": {}, "value": self.workers}],
            }
            families["repro_cluster_workers_alive"] = {
                "type": "gauge",
                "samples": [{"labels": {}, "value": self.alive}],
            }
        return families


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_engine(objectives, source, **kwargs):
    clock = Clock()
    engine = SloEngine(objectives, source=source, clock=clock, **kwargs)
    return engine, clock


class TestPureMath:
    def test_burn_rate(self):
        assert burn_rate(1, 100, 0.01) == pytest.approx(1.0)
        assert burn_rate(6, 100, 0.01) == pytest.approx(6.0)
        assert burn_rate(0, 0, 0.01) == 0.0

    def test_histogram_bad_fraction_uses_bucket_at_threshold(self):
        buckets = {"0.1": 50.0, "1.0": 90.0, "+Inf": 100.0}
        assert histogram_bad_fraction(buckets, 100.0, 1.0) == pytest.approx(0.1)
        # Threshold between bounds: conservative (over-counts badness).
        assert histogram_bad_fraction(buckets, 100.0, 0.5) == pytest.approx(0.5)
        assert histogram_bad_fraction({}, 0.0, 1.0) == 0.0

    def test_objective_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SloObjective(name="x", kind="throughput")
        with pytest.raises(ValueError, match="budget"):
            SloObjective(name="x", kind="latency", budget=0.0)
        with pytest.raises(ValueError, match="windows"):
            SloObjective(
                name="x", kind="latency", fast_window=10, slow_window=5
            )

    def test_default_objectives_cover_the_three_kinds(self):
        kinds = {o.kind for o in default_objectives()}
        assert kinds == {"availability", "error_rate", "latency"}


class TestErrorRateFiring:
    def objective(self):
        return SloObjective(
            name="errors",
            kind="error_rate",
            budget=0.1,
            fast_window=10.0,
            slow_window=30.0,
            burn_threshold=2.0,
        )

    def test_fires_only_when_both_windows_burn(self):
        source = FakeSource()
        engine, clock = make_engine([self.objective()], source)
        # Healthy traffic for a while.
        for _ in range(6):
            clock.now += 5.0
            source.requests += 10
            (status,) = engine.evaluate()
            assert not status["firing"]
        # Sudden 100% error rate: burn = (1.0 / 0.1) = 10x in the fast
        # window; the slow window still contains the healthy traffic
        # but 10 errors / 70 requests / 0.1 = 1.43x < 2x... push more.
        clock.now += 5.0
        source.requests += 10
        source.errors["SearchError"] = 10.0
        (status,) = engine.evaluate()
        fast_burn = status["windows"]["fast"]["burn_rate"]
        assert fast_burn >= 2.0
        # Keep erroring until the slow window crosses too.
        while not status["firing"]:
            clock.now += 5.0
            source.requests += 10
            source.errors["SearchError"] += 10.0
            (status,) = engine.evaluate()
            assert clock.now < 300, "alert never fired"
        assert engine._firing["errors"] is True
        assert status["firing_since"] == clock.now

    def test_clears_when_fast_window_recovers(self):
        source = FakeSource()
        engine, clock = make_engine([self.objective()], source)
        engine.evaluate()  # baseline snapshot at t=0, no traffic
        clock.now = 1.0
        source.requests = 10
        source.errors["SearchError"] = 10.0
        (status,) = engine.evaluate()
        assert status["firing"]  # 100% errors in both windows
        # Healthy traffic slides the fast window clean.
        for _ in range(5):
            clock.now += 5.0
            source.requests += 100
            (status,) = engine.evaluate()
        assert not status["firing"]
        assert engine._firing["errors"] is False

    def test_breach_and_clear_events(self):
        events = EventLog(16)
        source = FakeSource()
        engine, clock = make_engine(
            [self.objective()], source, event_log=events
        )
        engine.evaluate()  # baseline snapshot at t=0
        clock.now = 1.0
        source.requests = 10
        source.errors["SearchError"] = 10.0
        engine.evaluate()
        for _ in range(5):
            clock.now += 5.0
            source.requests += 100
            engine.evaluate()
        kinds = [e["kind"] for e in events.events()]
        assert kinds == ["slo_breach", "slo_clear"]
        breach = events.events()[0]
        assert breach["severity"] == "error"
        assert breach["extra"]["objective"] == "errors"

    def test_gauges_exported(self):
        registry = MetricsRegistry()
        source = FakeSource()
        engine, clock = make_engine(
            [self.objective()], source, registry=registry
        )
        engine.evaluate()  # baseline snapshot at t=0
        clock.now = 1.0
        source.requests = 10
        source.errors["SearchError"] = 10.0
        engine.evaluate()
        export = registry.export()
        burn = export["repro_slo_burn_rate"]["samples"]
        assert {s["labels"]["window"] for s in burn} == {"fast", "slow"}
        firing = export["repro_slo_alert_firing"]["samples"]
        assert firing[0]["value"] == 1.0
        alerts = export["repro_slo_alerts_total"]["samples"]
        assert alerts[0]["value"] == 1.0


class TestAvailability:
    def test_liveness_based_when_worker_gauges_present(self):
        objective = SloObjective(
            name="avail",
            kind="availability",
            budget=0.05,
            fast_window=10.0,
            slow_window=20.0,
            burn_threshold=2.0,
        )
        source = FakeSource()
        source.workers, source.alive = 2, 2
        engine, clock = make_engine([objective], source)
        clock.now = 1.0
        (status,) = engine.evaluate()
        assert not status["firing"]
        # One of two workers dies: alive fraction 0.5, bad fraction 0.5,
        # burn 0.5/0.05 = 10x in both windows.
        source.alive = 1
        clock.now += 1.0
        (status,) = engine.evaluate()
        assert status["firing"]
        # Worker comes back; healthy snapshots slide the fast window.
        source.alive = 2
        for _ in range(30):
            clock.now += 1.0
            (status,) = engine.evaluate()
        assert not status["firing"]

    def test_error_type_fallback_without_worker_gauges(self):
        objective = SloObjective(
            name="avail",
            kind="availability",
            budget=0.1,
            fast_window=10.0,
            slow_window=20.0,
            burn_threshold=2.0,
        )
        source = FakeSource()  # no worker gauges -> fallback
        engine, clock = make_engine([objective], source)
        engine.evaluate()  # baseline snapshot at t=0
        clock.now = 1.0
        source.requests = 10
        source.errors["WorkerCrashedError"] = 5.0
        source.errors["KeywordNotFoundError"] = 5.0  # must NOT count
        (status,) = engine.evaluate()
        fast = status["windows"]["fast"]
        assert fast["bad"] == pytest.approx(5.0)
        assert fast["bad_fraction"] == pytest.approx(0.5)


class TestLatency:
    def test_latency_objective_over_histogram(self):
        objective = SloObjective(
            name="p99",
            kind="latency",
            threshold=1.0,
            budget=0.1,
            fast_window=10.0,
            slow_window=20.0,
            burn_threshold=2.0,
        )

        class LatencySource:
            def __init__(self):
                self.buckets = {"1.0": 0.0, "+Inf": 0.0}
                self.count = 0.0

            def observe(self, n_fast, n_slow):
                self.buckets["1.0"] += n_fast
                self.buckets["+Inf"] += n_fast + n_slow
                self.count += n_fast + n_slow

            def __call__(self):
                return {
                    "repro_fleet_request_latency_seconds": {
                        "type": "histogram",
                        "samples": [
                            {
                                "labels": {"dataset": "toy"},
                                "buckets": dict(self.buckets),
                                "count": self.count,
                            }
                        ],
                    }
                }

        source = LatencySource()
        engine, clock = make_engine([objective], source)
        engine.evaluate()  # baseline snapshot at t=0
        clock.now = 1.0
        source.observe(n_fast=99, n_slow=1)  # 1% slow: on budget
        (status,) = engine.evaluate()
        assert status["windows"]["fast"]["burn_rate"] == pytest.approx(0.1)
        assert not status["firing"]
        clock.now += 1.0
        source.observe(n_fast=0, n_slow=50)  # everything slow now
        (status,) = engine.evaluate()
        assert status["windows"]["fast"]["burn_rate"] > 2.0
        assert status["firing"]


def test_the_thread_tier_ticks_without_a_reader(monkeypatch, toy_engine):
    """Both tiers run the core's SLO ticker: failing searches on a
    ``QueryService`` breach an objective with no caller reading
    ``slo_status()``, and the gauges get samples."""
    monkeypatch.setattr(QueryService, "SLO_INTERVAL", 0.05)
    objective = SloObjective(
        name="errors", kind="error_rate", budget=0.01,
        fast_window=0.2, slow_window=0.4,
    )
    with QueryService(slo_objectives=[objective]) as service:
        service.register_engine("toy", toy_engine)
        # A baseline tick, taken by the ticker and no reader.
        assert wait_until(lambda: service.slo._snapshots)
        for _ in range(150):
            assert not service.search("toy", "zzzunknownword").ok

        def breached():
            return any(
                event["kind"] == "slo_breach" for event in service.events()["events"]
            )

        assert wait_until(breached)
        firing = service.registry.export()["repro_slo_alert_firing"]["samples"]
        assert firing and firing[0]["value"] == 1.0
