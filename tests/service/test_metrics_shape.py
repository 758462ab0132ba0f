"""The ``metrics()`` document, pinned key by key on both tiers.

One scripted request sequence — miss, hit, bypass, ``explain``, three
kinds of structured error, a deadline miss, an explicit cancel, a
journalled mutation — is driven through a ``QueryService`` and through a
2-worker ``ShardedQueryService``; the full key tree of ``metrics()`` and
every count in it that the script determines is asserted.  The test
reads nothing but ``metrics()`` and the responses, so it holds for any
store behind them.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster import ShardedQueryService
from repro.core.engine import parse_query
from repro.core.params import SearchParams
from repro.live.mutations import AddNode
from repro.service.service import QueryRequest, QueryService
from repro.service.snapshot import save_engine

#: Fast queries (~20 ms at this scale); the fleet picks one per worker.
CANDIDATES = (
    "paper stream",
    "database query",
    "stream mining",
    "james john",
    "database system",
    "query mining",
)
#: Runs for about a second uncancelled: long enough that a deadline or a
#: cancel lands mid-search, never after it.
SLOW = dict(
    query="database system james john michael",
    algorithm="mi-backward",
    use_cache=False,
    params=SearchParams(cancel_check_interval=1, max_results=1000),
)

TOP_KEYS = [
    "requests_total",
    "errors_total",
    "errors",
    "cancellations",
    "cache_hits",
    "cache_misses",
    "cache_hit_rate",
    "algorithms",
    "cache",
    "datasets",
    "registry",
]
ALGORITHM_KEYS = [
    "requests",
    "latency_count",
    "latency_mean",
    "latency_p50",
    "latency_p90",
    "latency_p99",
]
CACHE_KEYS = [
    "size",
    "capacity",
    "ttl",
    "hits",
    "misses",
    "hit_rate",
    "evictions",
    "expirations",
]
CANCELLATION_KEYS = [
    "cancelled",
    "deadline_exceeded",
    "reclaimed_seconds",
    "overrun_seconds",
]


@pytest.fixture(scope="module")
def dblp_snapshot(tmp_path_factory, dblp_small_engine):
    path = tmp_path_factory.mktemp("metrics-shape") / "dblp.snap"
    return save_engine(path, dblp_small_engine)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def _cancel_mid_search(service) -> None:
    """Start the slow search on a thread, cancel it by request id."""
    box = {}

    def run():
        box["response"] = service.search(
            QueryRequest("dblp", request_id="doomed", **SLOW)
        )

    thread = threading.Thread(target=run)
    thread.start()
    # Let the request reach its search loop first: a fleet request
    # cancelled while still queued is answered without ever touching
    # the worker's metrics.
    time.sleep(0.2)
    _wait_for(lambda: service.cancel("doomed"))
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    response = box["response"]
    assert response.error_type == "SearchCancelledError"
    assert "before execution" not in response.error


def _drive(service, queries, miss_deadline) -> dict[str, list[float]]:
    """Run the script; returns ``{algorithm: [elapsed, ...]}`` of every
    response that should sit in a latency window (successful, uncached)."""
    window: list[float] = []

    def ok(response, *, cached=False):
        response.raise_for_error()
        assert response.cached is cached
        if not cached:
            window.append(response.elapsed)

    for query in queries:
        ok(service.search("dblp", query))  # miss
        ok(service.search("dblp", query), cached=True)  # hit
        ok(service.search("dblp", query, use_cache=False))  # bypass
        # explain: skips the cache read, still counts as a request-level miss
        ok(service.search(QueryRequest("dblp", query, explain=True)))
    assert (
        service.search("dblp", "zzzqqq nonexistent").error_type
        == "KeywordNotFoundError"
    )
    assert service.search("nope", queries[0]).error_type == "UnknownDatasetError"
    (malformed,) = service.search_many([{"dataset": "dblp"}])
    assert malformed.error_type == "ValueError"
    miss_deadline()
    _cancel_mid_search(service)
    service.apply("dblp", [AddNode(label="metrics shape probe", text="shape probe")])
    ok(service.search("dblp", queries[0]))  # the commit shredded the cache
    return {"bidirectional": window, "mi-backward": [], "invalid-request": []}


#: What the script adds up to, identically on both tiers.
EXPECTED = {
    "requests_total": 14,
    "errors_total": 5,
    "errors": {
        "DeadlineExceededError": 1,
        "KeywordNotFoundError": 1,
        "SearchCancelledError": 1,
        "UnknownDatasetError": 1,
        "ValueError": 1,
    },
    # request-level: 2 hits; 2 misses + 2 explains + 1 post-commit miss
    "cache_hits": 2,
    "cache_misses": 5,
    "cache_hit_rate": 2 / 7,
    "requests": {"bidirectional": 11, "mi-backward": 2, "invalid-request": 1},
    # lookup-level: the explains never read the cache, the
    # keyword-not-found request did
    "cache": {
        "size": 1,
        "ttl": None,
        "hits": 2,
        "misses": 4,
        "hit_rate": 2 / 6,
        "evictions": 0,
        "expirations": 0,
    },
}


def _check(metrics, windows, *, cancellations, capacity, top_keys):
    assert list(metrics) == top_keys
    for key in ("requests_total", "errors_total", "errors", "cache_hits",
                "cache_misses"):
        assert metrics[key] == EXPECTED[key], key
    assert metrics["cache_hit_rate"] == pytest.approx(EXPECTED["cache_hit_rate"])

    assert list(metrics["cancellations"]) == CANCELLATION_KEYS
    assert {
        key: metrics["cancellations"][key] for key in ("cancelled", "deadline_exceeded")
    } == cancellations
    # The explicit cancel carried no deadline: nothing to hand back.
    assert metrics["cancellations"]["reclaimed_seconds"] == 0.0
    assert metrics["cancellations"]["overrun_seconds"] >= 0.0

    assert list(metrics["algorithms"]) == sorted(EXPECTED["requests"])
    for name, entry in metrics["algorithms"].items():
        assert list(entry) == ALGORITHM_KEYS, name
        assert entry["requests"] == EXPECTED["requests"][name]
        recorded = windows[name]
        assert entry["latency_count"] == len(recorded)
        if not recorded:
            assert entry["latency_mean"] is None
            assert entry["latency_p50"] is None
            assert entry["latency_p90"] is None
            assert entry["latency_p99"] is None
            continue
        assert entry["latency_mean"] == pytest.approx(np.mean(recorded), rel=1e-12)
        for q in (50, 90, 99):
            assert entry[f"latency_p{q}"] == float(np.percentile(recorded, q))
    assert len(windows["bidirectional"]) == 7

    assert list(metrics["cache"]) == CACHE_KEYS
    cache = dict(metrics["cache"])
    assert cache.pop("capacity") == capacity
    assert cache.pop("hit_rate") == pytest.approx(EXPECTED["cache"]["hit_rate"])
    assert cache == {
        key: value for key, value in EXPECTED["cache"].items() if key != "hit_rate"
    }

    datasets = metrics["datasets"]
    assert datasets["registered"] == ["dblp"]
    assert list(datasets["build_seconds"]) == ["dblp"]
    assert datasets["build_seconds"]["dblp"] >= 0.0
    assert datasets["versions"] == {"dblp": 1}
    assert datasets["wal_seq"] == {"dblp": 1}
    assert isinstance(metrics["registry"], dict) and metrics["registry"]


def test_query_service_metrics_shape(dblp_snapshot, tmp_path):
    with QueryService() as service:
        service.register_snapshot("dblp", dblp_snapshot)
        service.warmup()
        service.attach_wal("dblp", tmp_path / "dblp.wal")

        def miss_deadline():
            response = service.search(QueryRequest("dblp", timeout=0.05, **SLOW))
            assert response.error_type == "DeadlineExceededError"
            # The stopped search records its cancellation from its own
            # thread, moments after the watcher answered.
            _wait_for(
                lambda: service.metrics()["cancellations"]["deadline_exceeded"] == 1
            )

        windows = _drive(service, CANDIDATES[:2], miss_deadline)
        metrics = service.metrics()
    _check(
        metrics,
        windows,
        cancellations={"cancelled": 1, "deadline_exceeded": 1},
        capacity=1024,
        top_keys=TOP_KEYS,
    )
    assert list(metrics["datasets"]) == [
        "registered", "build_seconds", "versions", "version_drift",
        "wal_seq",
    ]
    assert metrics["datasets"]["version_drift"] == []


def test_sharded_service_metrics_shape(dblp_snapshot, tmp_path):
    with ShardedQueryService(
        {"dblp": dblp_snapshot},
        num_workers=2,
        default_replicas=2,
        wal_dir=tmp_path / "wal",
    ) as service:
        service.warmup()

        def worker_of(query, algorithm="bidirectional"):
            return service.router.route("dblp", (parse_query(query), algorithm))

        # One fast query per worker, so the merged view has two parts:
        # on an idle fleet every replica ties, and a tie goes to route().
        queries = [
            next(q for q in CANDIDATES if worker_of(q) == worker)
            for worker in (0, 1)
        ]

        def miss_deadline():
            # Deterministic on a fleet: with every replica busy, the
            # deadline expires while the request is still queued, so
            # the supervisor records the miss and the worker, finding
            # the job cancelled in its ring, never runs (or counts) it.
            sleepers = [service.pool.submit(w, "sleep", 0.5) for w in (0, 1)]
            response = service.search(QueryRequest("dblp", timeout=0.1, **SLOW))
            assert response.error_type == "DeadlineExceededError"
            for sleeper in sleepers:
                assert sleeper.result(timeout=10.0)["slept"] == 0.5

        windows = _drive(service, queries, miss_deadline)
        metrics = service.metrics()
    _check(
        metrics,
        windows,
        cancellations={"cancelled": 1, "deadline_exceeded": 0},
        capacity=1024,  # the supervisor's cache, the fleet's only one
        top_keys=TOP_KEYS + ["cluster"],
    )
    assert list(metrics["datasets"]) == [
        "registered", "build_seconds", "versions", "version_drift",
        "wal_seq",
    ]
    assert metrics["datasets"]["version_drift"] == []

    cluster = metrics["cluster"]
    assert list(cluster) == [
        "workers", "alive", "restarts", "assignments", "per_worker", "wal_seq",
    ]
    assert cluster["workers"] == 2 and cluster["alive"] == 2
    assert cluster["restarts"] == {"0": 0, "1": 0}
    assert cluster["assignments"] == {"0": ["dblp"], "1": ["dblp"]}
    assert cluster["wal_seq"] == {"dblp": 1}
    # Unknown dataset, malformed request, the queued deadline miss and
    # the two cache hits were answered by the supervisor; every other
    # request by a worker.
    per_worker = cluster["per_worker"]
    assert sorted(per_worker) == ["0", "1"]
    for entry in per_worker.values():
        assert list(entry) == ["requests_total", "errors_total"]
        assert entry["requests_total"] >= 3  # its query's miss/bypass/explain
    assert sum(entry["requests_total"] for entry in per_worker.values()) == 9
    assert sum(entry["errors_total"] for entry in per_worker.values()) == 2


@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_every_algorithm_row_comes_from_a_window(tier, dblp_snapshot):
    """No row stands in lifetime totals for a window: on both tiers each
    row's count, mean and percentiles are those of ``latency_samples``."""
    if tier == "thread":
        service = QueryService()
        service.register_snapshot("dblp", dblp_snapshot)
    else:
        service = ShardedQueryService({"dblp": dblp_snapshot}, num_workers=1)
    with service:
        for algorithm in ("bidirectional", "si-backward", "mi-backward"):
            service.search("dblp", CANDIDATES[0], algorithm=algorithm).raise_for_error()
        missing = service.search("dblp", "zzzqqq nonexistent")
        assert missing.error_type == "KeywordNotFoundError"
        rows = service.metrics(include_samples=True)["algorithms"]
    assert sorted(rows) == ["bidirectional", "mi-backward", "si-backward"]
    assert rows["bidirectional"]["requests"] == 2  # the error has no latency
    for name, row in rows.items():
        (elapsed,) = row["latency_samples"]
        assert row["latency_count"] == 1, name
        for key in ("latency_mean", "latency_p50", "latency_p90", "latency_p99"):
            assert row[key] == elapsed, (name, key)
