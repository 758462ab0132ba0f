"""One core, two substrates: the shape of the class hierarchy.

Every shared serving verb is defined by exactly one class in each
tier's MRO (``ServiceCore``), the telemetry structures are built and
the accounting stores written at one site, a merge of one part is the
part (what lets the thread tier be the fleet's one-part case), and the
knobs that only ever had one value are gone — the constructors' argument
lists are spelled out here, so a new one is a decision, not a drift.
"""

import inspect

from pathlib import Path

import pytest

import repro.cluster
import repro.service
from repro.cluster import ShardedQueryService
from repro.cluster.pool import WorkerPool
from repro.service import QueryService, ServiceCore
from repro.telemetry.accounting import WorkloadAnalytics, merge_sketch_exports
from repro.telemetry.metrics import MetricsRegistry, merge_registries

SHARED_VERBS = [
    "search_many",
    "cancel",
    "trace",
    "slow_queries",
    "explain",
    "slo_status",
    "wal_seqs",
    "events",
    "query_stats",
    "_settle",
    "_malformed_response",
    "_error_response",
    "_deadline_response",
]
#: What each tier writes itself: its substrate, and the verbs whose
#: bodies differ (``search`` only in signature and the inline path).
PER_TIER = ["search", "metrics", "health", "close", "datasets", "warmup", "apply",
            "dataset_versions", "_submit", "_await"]


@pytest.mark.parametrize("tier", [QueryService, ShardedQueryService])
def test_shared_verbs_are_defined_once(tier):
    assert tier.__mro__[1] is ServiceCore
    for verb in SHARED_VERBS:
        owners = [cls.__name__ for cls in tier.__mro__ if verb in vars(cls)]
        assert owners == ["ServiceCore"], (verb, owners)
    for verb in PER_TIER:
        assert verb in vars(tier), verb


def _sources():
    for package in (repro.service, repro.cluster):
        for path in sorted(Path(package.__file__).parent.glob("*.py")):
            yield path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "call",
    [
        "slow_log.record(",
        "explain_store.put(",
        "Tracer(",
        "SlowQueryLog(",
        "ExplainStore(",
        "SloEngine(",
        "WalTelemetry(",
        "EventLog(",
        "MetricsRegistry(",
    ],
)
def test_one_site_builds_each_structure_and_writes_each_store(call):
    assert sum(source.count(call) for source in _sources()) == 1


def test_merging_one_part_is_the_part():
    sketch = WorkloadAnalytics()
    sketch.record("a|b|bidirectional", elapsed=0.25, costs={"pops_in": 7})
    sketch.record("a|b|bidirectional", elapsed=0.5, costs={"pops_in": 3})
    sketch.record("c|mi-backward", elapsed=1.0)
    export = sketch.export()
    assert merge_sketch_exports([export]) == export

    registry = MetricsRegistry()
    registry.counter("probe_total", "probe", labels=("kind",)).inc(kind="x")
    export = registry.export(include_samples=True)
    assert merge_registries([export]) == export


@pytest.mark.parametrize(
    "argument",
    [
        "trace_capacity",
        "slow_log_capacity",
        "profile_interval",
        "event_log_capacity",
        "explain_capacity",
        "metrics_window",
        "analytics_capacity",
        "cooperative_cancellation",
        "start_method",
    ],
)
def test_single_valued_retention_knobs_are_not_arguments(argument):
    with pytest.raises(TypeError, match=argument):
        QueryService(**{argument: 8})
    with pytest.raises(TypeError, match=argument):
        # Rejected at the call, before any worker is spawned.
        ShardedQueryService({}, num_workers=1, **{argument: 8})


@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_no_tier_takes_a_profiling_switch(tier):
    # No tier runs a sampling profiler, so neither has a switch for one.
    with pytest.raises(TypeError, match="profiling"):
        if tier == "thread":
            QueryService(profiling=True)
        else:
            ShardedQueryService({}, num_workers=1, profiling=True)


def test_constructor_arguments_are_these():
    def arguments(cls):
        return list(inspect.signature(cls).parameters)

    shared = ["cancel_grace", "tracing", "slow_query_threshold",
              "slo_objectives", "accounting", "storage_mode"]
    assert sorted(arguments(QueryService)) == sorted(
        ["cache_capacity", "cache_ttl", "max_workers", "clock"] + shared
    )  # 10
    assert sorted(arguments(ShardedQueryService)) == sorted(
        ["snapshots", "num_workers", "default_replicas", "replicas",
         "cache_capacity", "cache_ttl", "health_interval", "restart", "wal_dir",
         "wal_sync", "slo_interval"] + shared
    )  # 17
    assert arguments(WorkerPool) == [
        "specs", "settings", "health_interval", "restart", "event_sink"
    ]


def test_each_tier_keeps_the_retention_it_had():
    assert QueryService.TRACE_CAPACITY == 256
    with QueryService() as service:
        assert service.event_log.capacity == QueryService.EVENT_LOG_CAPACITY == 512
        assert service.slow_log.capacity == 128
        assert service.explain_store.capacity == 128
        assert service.query_stats()["capacity"] == 64
    assert ShardedQueryService.TRACE_CAPACITY == 512
    assert ShardedQueryService.EVENT_LOG_CAPACITY == 1024
