"""Request-path recording and its JSON view: percentile math, counters,
the shape ``metrics_view`` gives a registry export."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.metrics import ServiceMetrics, metrics_view, percentile
from repro.telemetry.metrics import MetricsRegistry, merge_registries


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50.0) is None

    def test_single_sample(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 100.0) == 7.0

    def test_interpolation_matches_numpy(self):
        np = pytest.importorskip("numpy")
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q))
            )

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    # Latency-like samples: a small pool makes duplicates likely, and
    # the pool spans magnitudes so (b - a) * t has bits to lose.
    _sample = st.one_of(
        st.sampled_from([0.0, 1e-9, 2.5e-4, 0.1, 0.30000000000000004, 7.0, 1e9]),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    )

    @given(
        samples=st.lists(_sample, min_size=1, max_size=200),
        q=st.one_of(
            st.sampled_from([0, 50, 90, 95, 99, 100]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_numpy(self, samples, q):
        """The pure-Python percentile is numpy's, to the last bit — the
        virtual index, and ``_lerp`` switching to the right neighbour
        at ``t >= 0.5`` — so ``metrics()`` did not move when the
        supervisor stopped importing numpy."""
        assert percentile(samples, q) == float(np.percentile(samples, q))


@pytest.fixture(params=["own export", "merge of one"])
def view(request):
    """``view(registry)``: the JSON document of a registry, read
    directly or through a one-part fleet merge — the same numbers
    either way."""

    def build(registry, **kwargs):
        exported = registry.export(include_samples=True)
        if request.param == "merge of one":
            exported = merge_registries([exported])
        return metrics_view(exported, **kwargs)

    return build


class TestServiceMetrics:
    def test_export_shape_is_json_serializable(self, view):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        metrics.record_request("bidirectional", 0.010, cached=False)
        metrics.record_request("bidirectional", 0.030, cached=False)
        metrics.record_request("bidirectional", 0.0001, cached=True)
        metrics.record_error("si-backward", "KeywordNotFoundError")
        exported = view(registry)
        json.dumps(exported)  # plain dict contract
        assert exported["requests_total"] == 4
        assert exported["errors_total"] == 1
        assert exported["errors"] == {"KeywordNotFoundError": 1}
        assert exported["cache_hits"] == 1 and exported["cache_misses"] == 2
        assert exported["cache_hit_rate"] == pytest.approx(1 / 3)
        bidi = exported["algorithms"]["bidirectional"]
        assert bidi["requests"] == 3
        # Cached responses stay out of the latency window.
        assert bidi["latency_count"] == 2
        assert bidi["latency_mean"] == pytest.approx(0.020)
        assert bidi["latency_p50"] == pytest.approx(0.020)
        assert bidi["latency_p99"] == pytest.approx(0.030, rel=0.02)
        assert "latency_samples" not in bidi
        assert view(registry, include_samples=True)["algorithms"]["bidirectional"][
            "latency_samples"
        ] == [0.010, 0.030]
        # A service that records requests but owns no cache and builds
        # no datasets (the fleet supervisor) has neither section.
        assert "cache" not in exported and "datasets" not in exported

    def test_cache_bypass_leaves_hit_rate_alone(self, view):
        registry = MetricsRegistry()
        ServiceMetrics(registry).record_request("bidirectional", 0.010, cached=None)
        exported = view(registry)
        assert exported["cache_hits"] == 0 and exported["cache_misses"] == 0
        assert exported["cache_hit_rate"] == 0.0
        # ... but the latency still counts: it was a real search.
        assert exported["algorithms"]["bidirectional"]["latency_count"] == 1

    def test_window_bounds_reservoir(self, view):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry, window=10)
        for i in range(100):
            metrics.record_request("bidirectional", float(i), cached=False)
        exported = view(registry)["algorithms"]["bidirectional"]
        assert exported["requests"] == 100
        # Count and mean describe the window, not the histogram's
        # lifetime totals (which saw all 100).
        assert exported["latency_count"] == 10
        assert exported["latency_mean"] == pytest.approx(94.5)
        # Only the most recent 10 samples (90..99) remain.
        assert exported["latency_p50"] == pytest.approx(94.5)
        (lifetime,) = registry.export()["repro_request_latency_seconds"]["samples"]
        assert lifetime["count"] == 100 and "window" not in lifetime

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            ServiceMetrics(MetricsRegistry(), window=0)

    def test_concurrent_recording(self, view):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)

        def worker() -> None:
            for _ in range(250):
                metrics.record_request("bidirectional", 0.001, cached=False)
                metrics.record_error("mi-backward", "ValueError")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        exported = view(registry)
        assert exported["requests_total"] == 8 * 250 * 2
        assert exported["errors"]["ValueError"] == 8 * 250
        assert exported["algorithms"]["bidirectional"]["latency_count"] == 2000
