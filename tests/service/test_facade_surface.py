"""One core, two substrates: the shape of the class hierarchy.

Every shared serving verb is defined by exactly one class in each
tier's MRO (``ServiceCore``), the telemetry structures are built and
the accounting stores written at one site, a merge of one part is the
part (what lets the thread tier be the fleet's one-part case), and the
knobs that only ever had one value are gone — the constructors' argument
lists are spelled out here, so a new one is a decision, not a drift.
"""

import importlib
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
    "search",
    "search_many",
    "cancel",
    "trace",
    "slow_queries",
    "explain",
    "slo_status",
    "wal_seqs",
    "events",
    "query_stats",
    "reload",
    "metrics",
    "health",
    "dataset_versions",
    "warmup",
    "_settle",
    "_malformed_response",
    "_error_response",
    "_deadline_response",
]
#: What each tier writes itself: its substrate, and the verbs whose
#: bodies differ.
PER_TIER = ["close", "datasets", "apply", "_submit", "_await", "_swap_snapshot",
            "_replica_states"]
#: Every public verb but ``close`` (the thread tier's takes ``wait``).
PUBLIC_VERBS = ["search", "apply", "health", "dataset_versions", "datasets",
                "warmup", "reload", "metrics"]


@pytest.mark.parametrize("tier", [QueryService, ShardedQueryService])
def test_shared_verbs_are_defined_once(tier):
    assert tier.__mro__[1] is ServiceCore
    for verb in SHARED_VERBS:
        owners = [cls.__name__ for cls in tier.__mro__ if verb in vars(cls)]
        assert owners == ["ServiceCore"], (verb, owners)
    for verb in PER_TIER:
        assert verb in vars(tier), verb


@pytest.mark.parametrize("verb", PUBLIC_VERBS)
def test_both_tiers_take_the_same_arguments(verb):
    thread, fleet = (
        inspect.signature(getattr(tier, verb))
        for tier in (QueryService, ShardedQueryService)
    )
    assert thread == fleet, (verb, thread, fleet)


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

    shared = ["tracing", "slow_query_threshold", "slo_objectives",
              "accounting", "storage_mode"]
    assert sorted(arguments(QueryService)) == sorted(
        ["cache_capacity", "max_workers"] + shared
    )  # 7
    assert sorted(arguments(ShardedQueryService)) == sorted(
        ["snapshots", "num_workers", "default_replicas", "cache_capacity",
         "wal_dir"] + shared
    )  # 10
    assert arguments(WorkerPool) == ["specs", "settings", "event_sink"]  # 3


#: Arguments that only tests set, or nobody: each is a class constant
#: now, or gone with the behaviour it switched.
REMOVED_ARGUMENTS = [
    (QueryService, "clock"),
    (QueryService, "cancel_grace"),
    (QueryService.attach_wal, "sync"),
    (ShardedQueryService, "cancel_grace"),  # ServiceCore.CANCEL_GRACE
    (ShardedQueryService, "health_interval"),  # WorkerPool.HEALTH_INTERVAL
    (ShardedQueryService, "restart"),  # a crashed worker always restarts
    (ShardedQueryService, "wal_sync"),
    (ShardedQueryService, "slo_interval"),  # SLO_INTERVAL
    (ShardedQueryService.apply, "timeout"),  # APPLY_TIMEOUT
    (ShardedQueryService.health, "versions_timeout"),  # VERSIONS_TIMEOUT, one pull
    (ShardedQueryService.dataset_versions, "timeout"),  # the same VERSIONS_TIMEOUT
    (ShardedQueryService.close, "timeout"),
    (WorkerPool, "health_interval"),
    (WorkerPool, "restart"),
    (QueryService.register_snapshot, "params"),
    (QueryService.register_snapshot, "storage_mode"),  # the constructor's
    # Cache keys carry (generation, version): a stale entry is already
    # unreachable, and capacity bounds memory.
    (QueryService, "cache_ttl"),
    (ShardedQueryService, "cache_ttl"),
    (ShardedQueryService, "replicas"),  # default_replicas places them all
    (QueryService.register_snapshot, "pin_policy"),  # PIN_NODES / PIN_TERMS
]


@pytest.mark.parametrize(
    "callable_, argument",
    REMOVED_ARGUMENTS,
    ids=[f"{c.__qualname__}-{a}" for c, a in REMOVED_ARGUMENTS],
)
def test_removed_arguments_are_a_type_error(callable_, argument):
    # Bound without calling: no worker is spawned, no log opened.
    signature = inspect.signature(callable_)
    positional = [None] * sum(
        p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
        for p in signature.parameters.values()
    )
    with pytest.raises(TypeError, match=argument):
        signature.bind(*positional, **{argument: 1})


def test_registration_verbs_are_these():
    """A registration is a loaded engine: one the caller built, a live
    dataset, or a snapshot loaded by the call."""
    def arguments(verb):
        return list(inspect.signature(verb).parameters)

    verbs = sorted(name for name in vars(QueryService) if name.startswith("register"))
    assert verbs == ["register_engine", "register_mutable", "register_snapshot"]
    assert arguments(QueryService.register_engine) == ["self", "name", "engine"]
    assert arguments(QueryService.register_mutable) == ["self", "name", "dataset"]
    assert arguments(QueryService.register_snapshot) == ["self", "name", "path"]


#: Entry points only tests called: each has one surviving path.
DELETED_ENTRY_POINTS = [
    ("repro.cluster.pool", "WorkerPool", "request"),  # submit(w, "request", ...)
    ("repro.cluster.pool", "WorkerPool", "pids"),
    ("repro.cluster.router", "ShardRouter", "least_busy"),  # route(in_flight=)
    ("repro.wal.log", "MutationLog", "rotate"),
    ("repro.wal.log", "MutationLog", "sync"),
    ("repro.service.cache", "ResultCache", "purge_expired"),
    ("repro.service.cache", "ResultCache", "keys"),
    ("repro.service.cache", "ResultCache", "clear"),
    ("repro.storage", None, "PinPolicy"),
    ("repro.telemetry.trace", None, "TraceStore"),  # Tracer keeps its spans
    ("repro.telemetry.trace", "Tracer", "span"),
    ("repro.telemetry.trace", "Tracer", "trace_ids"),
    ("repro.telemetry.events", None, "merge_events"),
    ("repro.telemetry.events", "EventLog", "stats"),
    ("repro.telemetry.metrics", "Gauge", "dec"),
    ("repro.telemetry.metrics", "Gauge", "inc"),
    ("repro.telemetry.metrics", "Gauge", "value"),
    ("repro.telemetry.metrics", "Counter", "value"),
    ("repro.telemetry.metrics", "MetricsRegistry", "reset"),
    ("repro.telemetry.metrics", "_Family", "clear"),
    ("repro.telemetry.accounting", "ExplainStore", "ids"),
    ("repro.telemetry.slowlog", "SlowQueryLog", "clear"),
    ("repro.telemetry.slo", "SloEngine", "status"),
    ("repro.telemetry.slo", "SloEngine", "firing"),
]


@pytest.mark.parametrize(
    "module, owner, name",
    DELETED_ENTRY_POINTS,
    ids=[f"{owner or module}.{name}" for module, owner, name in DELETED_ENTRY_POINTS],
)
def test_deleted_entry_points_are_gone(module, owner, name):
    namespace = importlib.import_module(module)
    if owner is not None:
        namespace = getattr(namespace, owner)
    assert not hasattr(namespace, name)


@pytest.mark.parametrize("verb", ["register_factory", "register_database"])
def test_lazy_registration_verbs_are_gone(verb):
    with pytest.raises(AttributeError, match=verb):
        getattr(QueryService, verb)


def test_the_constants_keep_the_old_defaults():
    assert ServiceCore.CANCEL_GRACE == 1.0
    assert WorkerPool.HEALTH_INTERVAL == 0.5
    assert ShardedQueryService.SLO_INTERVAL == 5.0
    assert ShardedQueryService.APPLY_TIMEOUT == 60.0
    # health and dataset_versions read one pull with one timeout
    assert ShardedQueryService.VERSIONS_TIMEOUT == 2.0
    assert not hasattr(ShardedQueryService, "HEALTH_VERSIONS_TIMEOUT")


def test_each_tier_keeps_the_retention_it_had():
    assert QueryService.TRACE_CAPACITY == 256
    with QueryService() as service:
        assert service.event_log.capacity == QueryService.EVENT_LOG_CAPACITY == 512
        assert service.slow_log.capacity == 128
        assert service.explain_store.capacity == 128
        assert service.query_stats()["capacity"] == 64
    assert ShardedQueryService.TRACE_CAPACITY == 512
    assert ShardedQueryService.EVENT_LOG_CAPACITY == 1024
