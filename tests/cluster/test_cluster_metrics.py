"""The fleet view: ``metrics_view(merge_registries(parts))`` equals a
hand-merge of the parts."""

import numpy as np
import pytest

from repro.service.metrics import ServiceMetrics, metrics_view
from repro.telemetry.metrics import MetricsRegistry, merge_registries

EMPTY_VIEW = {
    "requests_total": 0,
    "errors_total": 0,
    "errors": {},
    "cancellations": {
        "cancelled": 0,
        "deadline_exceeded": 0,
        "reclaimed_seconds": 0,
        "overrun_seconds": 0,
    },
    "cache_hits": 0,
    "cache_misses": 0,
    "cache_hit_rate": 0.0,
    "algorithms": {},
}


def _fill_cache(registry, *, size, capacity, hits, misses, evictions=0):
    """What a worker's export-time collector reads off its ResultCache."""
    registry.gauge("repro_cache_entries").set(size)
    registry.gauge("repro_cache_capacity").set(capacity)
    registry.counter("repro_cache_lookup_hits_total").set_total(hits)
    registry.counter("repro_cache_lookup_misses_total").set_total(misses)
    registry.counter("repro_cache_evictions_total").set_total(evictions)


def _fill_datasets(registry, *, registered, build_seconds=None, wal_seq=None):
    """... and off its dataset registry (plus an attached WAL's tip)."""
    labels = ("dataset",)
    version = registry.gauge("repro_dataset_version", labels=labels, merge="max")
    seconds = registry.gauge("repro_dataset_build_seconds", labels=labels, merge="max")
    tip = registry.gauge("repro_wal_last_seq", labels=labels, merge="max")
    for name in registered:
        version.set(0, dataset=name)
    for name, value in (build_seconds or {}).items():
        seconds.set(value, dataset=name)
    for name, value in (wal_seq or {}).items():
        tip.set(value, dataset=name)


def _worker_part(latencies, *, hits, errors, cache, datasets):
    registry = MetricsRegistry()
    metrics = ServiceMetrics(registry)
    for seconds in latencies:
        metrics.record_request("bidirectional", seconds, cached=False)
    for _ in range(hits):
        metrics.record_request("bidirectional", 0.0, cached=True)
    for error_type in errors:
        metrics.record_error("bidirectional", error_type)
    _fill_cache(registry, **cache)
    _fill_datasets(registry, **datasets)
    return registry.export(include_samples=True)


def _datasets_part(**datasets):
    registry = MetricsRegistry()
    ServiceMetrics(registry)
    _fill_datasets(registry, **datasets)
    return registry.export(include_samples=True)


def test_merge_equals_hand_merge():
    lat_a = [0.010, 0.020, 0.030, 0.500]
    lat_b = [0.001, 0.002, 0.003]
    part_a = _worker_part(
        lat_a,
        hits=3,
        errors=["KeywordNotFoundError"],
        cache=dict(size=4, capacity=64, hits=3, misses=4, evictions=1),
        datasets=dict(registered=["alpha", "beta"], build_seconds={"alpha": 0.5}),
    )
    part_b = _worker_part(
        lat_b,
        hits=1,
        errors=["KeywordNotFoundError", "UnknownDatasetError"],
        cache=dict(size=2, capacity=64, hits=1, misses=3),
        datasets=dict(registered=["alpha"], build_seconds={"alpha": 0.9}),
    )
    view_a, view_b = metrics_view(part_a), metrics_view(part_b)
    merged = metrics_view(merge_registries([part_a, part_b]), include_samples=True)

    # Counters: plain sums.
    assert merged["requests_total"] == view_a["requests_total"] + view_b["requests_total"]
    assert merged["errors_total"] == 3
    assert merged["errors"] == {"KeywordNotFoundError": 2, "UnknownDatasetError": 1}

    # Hit rate: recomputed from summed numerators/denominators, not an
    # average of the per-worker rates.
    hits, misses = 3 + 1, len(lat_a) + len(lat_b)
    assert merged["cache_hits"] == hits
    assert merged["cache_misses"] == misses
    assert merged["cache_hit_rate"] == hits / (hits + misses)

    # Percentiles: exact over the concatenated samples.
    combined = lat_a + lat_b
    entry = merged["algorithms"]["bidirectional"]
    assert sorted(entry["latency_samples"]) == sorted(combined)
    assert entry["latency_count"] == len(combined)
    assert entry["latency_mean"] == sum(combined) / len(combined)
    for q in (50.0, 90.0, 99.0):
        assert entry[f"latency_p{q:g}"] == float(np.percentile(combined, q))
    # Sanity: the naive "average the p50s" answer differs, proving the
    # merge is over samples.
    naive = (view_a["algorithms"]["bidirectional"]["latency_p50"]
             + view_b["algorithms"]["bidirectional"]["latency_p50"]) / 2
    assert entry["latency_p50"] != naive

    # Cache section: summed counters, recomputed rate.
    assert merged["cache"] == {
        "size": 6, "capacity": 128, "hits": 4, "misses": 7,
        "hit_rate": 4 / (4 + 7), "evictions": 1,
    }

    # Datasets: union, slowest replica's build time.
    assert merged["datasets"] == {
        "registered": ["alpha", "beta"],
        "build_seconds": {"alpha": 0.9},
        "versions": {"alpha": 0, "beta": 0},
    }


def test_merge_without_samples_is_refused():
    registry = MetricsRegistry()
    ServiceMetrics(registry).record_request("bidirectional", 0.01, cached=False)
    no_samples = registry.export()
    with_samples = registry.export(include_samples=True)
    for parts in (
        [no_samples], [no_samples, with_samples], [with_samples, no_samples]
    ):
        # One part lacks its window, so the merge has none: every row
        # comes from a window, and there is no lifetime-total stand-in.
        with pytest.raises(KeyError, match="window"):
            metrics_view(merge_registries(parts))


def test_merge_tolerates_supervisor_only_parts():
    registry = MetricsRegistry()
    ServiceMetrics(registry).record_error("bidirectional", "DeadlineExceededError")
    merged = metrics_view(merge_registries([registry.export(include_samples=True)]))
    assert merged["requests_total"] == 1
    assert merged["errors"] == {"DeadlineExceededError": 1}
    assert merged["algorithms"]["bidirectional"]["latency_count"] == 0
    assert "cache" not in merged
    assert "datasets" not in merged
    assert metrics_view(merge_registries([])) == EMPTY_VIEW


def test_merge_heterogeneous_replicas_no_keyerror():
    # A worker mid-restart has recorded nothing and collected nothing;
    # a healthy replica exports everything.
    bare = MetricsRegistry()
    ServiceMetrics(bare)
    full = _worker_part(
        [0.01],
        hits=0,
        errors=[],
        cache=dict(size=1, capacity=8, hits=0, misses=1),
        datasets=dict(registered=["alpha"], wal_seq={"alpha": 3}),
    )
    merged = metrics_view(
        merge_registries([bare.export(include_samples=True), full, None, {}])
    )
    assert merged["requests_total"] == 1
    assert merged["algorithms"]["bidirectional"]["latency_p50"] == 0.01
    assert merged["cache"]["capacity"] == 8
    assert merged["datasets"]["wal_seq"] == {"alpha": 3}


def test_merge_wal_seq_is_max_per_dataset():
    merged = metrics_view(
        merge_registries(
            [
                _datasets_part(registered=["alpha"], wal_seq={"alpha": 4, "beta": 1}),
                _datasets_part(registered=["alpha"], wal_seq={"alpha": 2, "beta": 7}),
            ]
        )
    )
    # Replicas replay one shared log: the highest tip is the durable
    # truth, a lower number is a lagging replica, not a different log.
    assert merged["datasets"]["wal_seq"] == {"alpha": 4, "beta": 7}


def test_merge_wal_seq_absent_when_no_part_has_it():
    merged = metrics_view(merge_registries([_datasets_part(registered=[])]))
    assert merged["datasets"] == {
        "registered": [], "build_seconds": {}, "versions": {},
    }


def test_merge_registry_families_across_replicas():
    def part():
        registry = MetricsRegistry()
        ServiceMetrics(registry).record_request("bidirectional", 0.01, cached=False)
        return registry.export(include_samples=True)

    registry = merge_registries([part(), part()])
    samples = registry["repro_requests_total"]["samples"]
    assert sum(sample["value"] for sample in samples) == 2
    (latency,) = registry["repro_request_latency_seconds"]["samples"]
    assert latency["count"] == 2
    assert latency["window"] == [0.01, 0.01]
