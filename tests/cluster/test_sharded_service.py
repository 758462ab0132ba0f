"""ShardedQueryService end-to-end: parity with the in-process engine,
structured errors, the supervisor's cache, metrics aggregation, warmup."""

import pytest

from repro.cluster import ShardedQueryService
from repro.core.params import SearchParams
from repro.errors import DeadlineExceededError, PoolClosedError, SnapshotError
from repro.service.service import QueryRequest


@pytest.mark.parametrize("algorithm", ["bidirectional", "si-backward", "mi-backward"])
def test_search_matches_local_engine(sharded, toy_engine_session, algorithm):
    # ``algorithm``, ``params`` and the cost counters ride the wire both ways.
    params = SearchParams(max_results=3)
    response = sharded.search(
        "alpha", "gray transaction", algorithm=algorithm, params=params
    )
    assert response.ok, response.error
    assert response.result.algorithm == algorithm
    local = toy_engine_session.search(
        "gray transaction", algorithm=algorithm, params=params
    )
    assert response.result.scores() == local.scores()
    assert response.result.signatures() == local.signatures()
    assert response.result.stats.cost_vector() == local.stats.cost_vector()
    assert response.request.dataset == "alpha"


def test_search_accepts_request_object_and_rejects_overrides(sharded):
    request = QueryRequest("alpha", "gray transaction", k=2)
    response = sharded.search(request)
    assert response.ok
    assert response.request is request  # identity, not a wire copy
    with pytest.raises(ValueError, match="not both"):
        sharded.search(request, k=5)
    with pytest.raises(ValueError, match="query is required"):
        sharded.search("alpha")


def test_repeat_query_hits_the_supervisor_cache(sharded):
    first = sharded.search("beta", "selinger access", k=3)
    assert first.ok
    # The same logical query (whatever its whitespace) is answered by
    # the supervisor's cache, in front of routing.
    second = sharded.search("beta", "selinger   access", k=3)
    assert second.ok
    assert second.cached is True
    assert second.result.scores() == first.result.scores()


def test_search_many_mixed_batch_in_order(sharded, toy_engine_session):
    batch = [
        ("alpha", "gray transaction"),
        QueryRequest("beta", "postgres stonebraker", algorithm="si-backward"),
        ("alpha", "gray transaction", "mi-backward"),
        ("missing-dataset", "x"),
        ("alpha", "zzz-no-such-keyword"),
        ("alpha", "gray", "bogus-algorithm"),  # malformed: bad algorithm
    ]
    responses = sharded.search_many(batch)
    assert len(responses) == len(batch)
    ok = [r.ok for r in responses]
    assert ok == [True, True, True, False, False, False]
    assert responses[3].error_type == "UnknownDatasetError"
    assert responses[4].error_type == "KeywordNotFoundError"
    assert responses[5].error_type == "ValueError"
    assert responses[5].request is None  # malformed before dispatch

    local = toy_engine_session.search("gray transaction")
    assert responses[0].result.scores() == local.scores()
    mi = toy_engine_session.search("gray transaction", algorithm="mi-backward")
    assert responses[2].result.scores() == mi.scores()


def test_deadline_miss_is_structured(sharded):
    # A sleep on one worker holds it busy; a routed request then misses
    # a tight supervisor-side deadline but must not raise or hang.
    # (use_cache=False: a hit never reaches the busy worker.)
    worker_id = sharded.router.route("alpha", (("gray",), "bidirectional"))
    sleep_future = sharded.pool.submit(worker_id, "sleep", 1.2)
    response = sharded.search("alpha", "gray", timeout=0.2, use_cache=False)
    assert not response.ok
    assert response.error_type == DeadlineExceededError.__name__
    with pytest.raises(DeadlineExceededError):
        response.raise_for_error()
    sleep_future.result(timeout=30)  # drain before the next test


def test_warmup_reports_every_dataset(sharded):
    timings = sharded.warmup()
    assert sorted(timings) == ["alpha", "beta"]
    assert all(seconds >= 0.0 for seconds in timings.values())
    only = sharded.warmup(["alpha"])
    assert sorted(only) == ["alpha"]


def test_datasets_and_health(sharded):
    assert sharded.datasets() == ["alpha", "beta"]
    health = sharded.health()
    assert health["workers"] == 2
    assert health["alive"] == 2
    assert health["datasets"] == ["alpha", "beta"]


def test_warmup_from_corrupt_snapshot_raises_snapshot_error(tmp_path):
    corrupt = tmp_path / "corrupt.snap"
    corrupt.write_bytes(b"this is not a snapshot")
    with ShardedQueryService(
        {"bad": corrupt}, num_workers=1
    ) as service:
        # The worker's SnapshotError crosses the boundary as an error
        # payload and is re-raised here with its original type — never
        # mistaken for a timings dict.
        with pytest.raises(SnapshotError, match="cannot read snapshot"):
            service.warmup()


def test_a_dataset_that_did_not_load_answers_its_load_error(toy_snapshot, tmp_path):
    """A worker never exits over a load — its replacement would fail
    the same way — so the load's error answers each search until a
    reload loads a file; the shard's other datasets serve throughout."""
    corrupt = tmp_path / "corrupt.snap"
    corrupt.write_bytes(b"this is not a snapshot")
    with ShardedQueryService(
        {"bad": corrupt, "good": toy_snapshot}, num_workers=1
    ) as service:
        response = service.search("bad", "gray transaction")
        assert response.error_type == "SnapshotError"
        assert "cannot read snapshot" in response.error
        assert service.search("good", "gray transaction").ok
        assert service.reload("bad", toy_snapshot)["reloaded"] is True
        assert service.search("bad", "gray transaction").ok
        assert set(service.warmup()) == {"bad", "good"}


def test_metrics_on_a_closed_fleet_raises(toy_snapshot):
    service = ShardedQueryService({"alpha": toy_snapshot}, num_workers=1)
    service.close()
    # Not a supervisor-only document that looks like an idle fleet:
    # every read that pulls from the workers raises.
    quiet = []
    for verb in ("metrics", "query_stats", "health", "dataset_versions", "events"):
        try:
            getattr(service, verb)()
        except PoolClosedError:
            continue
        quiet.append(verb)
    assert quiet == []


def test_metrics_merge_cluster_view(sharded):
    sharded.search("alpha", "gray transaction")
    sharded.search("beta", "postgres design")
    metrics = sharded.metrics()
    assert metrics["requests_total"] >= 2
    assert "bidirectional" in metrics["algorithms"]
    entry = metrics["algorithms"]["bidirectional"]
    assert "latency_samples" not in entry  # stripped by default
    assert entry["latency_p50"] is not None
    cluster = metrics["cluster"]
    assert cluster["workers"] == 2
    assert cluster["alive"] == 2
    assert set(cluster["assignments"]) == {"0", "1"}
    assert set(cluster["per_worker"]) <= {"0", "1"}
    # Registered datasets union across workers.
    assert metrics["datasets"]["registered"] == ["alpha", "beta"]

    with_samples = sharded.metrics(include_samples=True)
    samples = with_samples["algorithms"]["bidirectional"]["latency_samples"]
    assert isinstance(samples, list) and samples
