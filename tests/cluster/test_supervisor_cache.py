"""The fleet's one result cache, in front of routing.

A hit is answered by the supervisor and reaches no worker; a miss goes
to its dataset's least busy replica; the supervisor keys every entry at
the ``(generation, version)`` it tracks itself and keeps a worker's
answer only when the version the answer carries back is that one.
"""

import time
from itertools import combinations
from unittest import mock

import pytest

from repro.cluster import ShardedQueryService
from repro.core.query import parse_query
from repro.errors import ClusterError, MutationError
from repro.service import QueryService
from repro.service.service import QueryRequest
from repro.wal import MutationLog

QUERIES = (
    "gray", "selinger", "stonebraker", "transaction", "access", "postgres",
    "vldb", "sigmod", "locks", "design",
)
INSERT = [
    {
        "op": "add_node",
        "label": "Calvin Transaction Scheduling",
        "table": "paper",
        "text": "Calvin Transaction Scheduling",
    },
    {"op": "add_edge", "u": -1, "v": 3},
]


@pytest.fixture(scope="module")
def fleet(toy_snapshot):
    """Two workers, the dataset replicated on both."""
    with ShardedQueryService(
        {"toy": toy_snapshot}, num_workers=2, default_replicas=2
    ) as service:
        service.warmup()
        yield service


def _worker_of(fleet, response) -> int:
    """The worker the supervisor's route span sent ``response`` to."""
    tree = fleet.trace(response.trace_id)
    (route,) = [root for root in tree["roots"] if root["name"] == "route"]
    return route["attributes"]["worker"]


def test_two_concurrent_misses_run_on_different_workers(fleet):
    # Two queries the hash alone would put on one replica.
    first, second = next(
        pair
        for pair in combinations(QUERIES, 2)
        if len({fleet.router.route("toy", (parse_query(q), "bidirectional"))
                for q in pair}) == 1
    )
    responses = fleet.search_many(
        [QueryRequest("toy", query, use_cache=False) for query in (first, second)]
    )
    assert all(response.ok for response in responses)
    assert {_worker_of(fleet, response) for response in responses} == {0, 1}


def test_a_repeat_reaches_no_worker(fleet):
    assert not fleet.search("toy", "granularity locks").cached
    with mock.patch.object(fleet.pool, "submit", wraps=fleet.pool.submit) as submit:
        repeat = fleet.search("toy", "granularity   locks")
    assert repeat.cached and repeat.ok
    assert submit.call_count == 0
    tree = fleet.trace(repeat.trace_id)
    assert [root["name"] for root in tree["roots"]] == ["cache"]


def _insert_and_read(service, dataset):
    before = service.search(dataset, "transaction")
    assert service.search(dataset, "transaction").cached
    outcome = service.apply(dataset, INSERT)
    new_node = outcome.new_nodes[0]
    fresh = service.search(dataset, "transaction")
    repeat = service.search(dataset, "transaction")
    assert (fresh.cached, repeat.cached) == (False, True)
    for response in (fresh, repeat):
        assert response.ok
        assert response.dataset_version == outcome.version == before.dataset_version + 1
        assert new_node in {answer.tree.root for answer in response.result.answers}


def test_a_read_after_an_acknowledged_commit_sees_it_on_the_thread_tier(toy_snapshot):
    with QueryService() as service:
        service.register_snapshot("toy", toy_snapshot)
        _insert_and_read(service, "toy")


def test_a_read_after_an_acknowledged_commit_sees_it_on_the_fleet(toy_snapshot):
    with ShardedQueryService(
        {"toy": toy_snapshot}, num_workers=2, default_replicas=2
    ) as service:
        _insert_and_read(service, "toy")


def test_an_answer_behind_the_log_tip_is_never_cached(toy_snapshot, tmp_path):
    """Both replicas' startup replay stops at a record they cannot apply,
    so they serve version 1 of a log whose tip is 3: their answers are
    correct for what they serve, and none fills a current key."""
    word = {"op": "add_node", "label": "w", "table": "paper", "text": "behind"}
    with MutationLog(tmp_path / "wal" / "toy.wal") as log:
        log.append([word])
        log.append([{"op": "add_edge", "u": 0, "v": 10**6}])  # no such node
        log.append([word])
    with ShardedQueryService(
        {"toy": toy_snapshot},
        num_workers=2,
        default_replicas=2,
        wal_dir=tmp_path / "wal",
    ) as service:
        service.warmup()
        assert service.health()["wal_behind"] == ["toy"]
        responses = [service.search("toy", "behind") for _ in range(3)]
        assert [response.cached for response in responses] == [False] * 3
        assert all(response.ok for response in responses)
        assert {response.dataset_version for response in responses} == {1}
        assert len(service.cache) == 0


def _roots(response) -> set:
    return {answer.tree.root for answer in response.result.answers}


@pytest.mark.parametrize("verb", ["apply", "reload"])
def test_a_broadcast_that_timed_out_never_serves_a_stale_hit(
    verb, toy_snapshot, tmp_path
):
    """A timed-out ``apply`` or ``reload`` is still queued and lands once
    the busy replica drains: every replica is then at the new state, and
    a read must see it rather than the answer cached before."""
    with QueryService() as thread_tier:
        thread_tier.register_snapshot("toy", toy_snapshot)
        thread_tier.apply("toy", INSERT)
        inserted = thread_tier.save_snapshot("toy", tmp_path / "inserted.snap")
    with ShardedQueryService(
        {"toy": toy_snapshot}, num_workers=2, default_replicas=2
    ) as service:
        service.warmup()
        before = service.search("toy", "transaction")
        assert service.search("toy", "transaction").cached
        hold = service.pool.submit(1, "sleep", 1.0)
        timeout = "APPLY_TIMEOUT" if verb == "apply" else "LOAD_TIMEOUT"
        with mock.patch.object(ShardedQueryService, timeout, 0.2):
            with pytest.raises(ClusterError, match="may yet be processed"):
                if verb == "apply":
                    service.apply("toy", INSERT)
                else:
                    service.reload("toy", inserted)
        hold.result(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            versions = service.dataset_versions()["toy"]
            if set(versions.values()) == {before.dataset_version + 1}:
                break
            time.sleep(0.05)
        assert set(versions.values()) == {before.dataset_version + 1}
        for _ in range(2):
            fresh = service.search("toy", "transaction")
            assert fresh.ok and not fresh.cached
            assert fresh.dataset_version == before.dataset_version + 1
            assert _roots(fresh) != _roots(before)
        # An apply every replica acknowledges (an empty one will do)
        # gives the cache a state to key at again.
        assert service.apply("toy", []).version == before.dataset_version + 1
        service.search("toy", "transaction")
        again = service.search("toy", "transaction")
        assert again.cached and _roots(again) == _roots(fresh)


def test_a_batch_one_replica_rejected_never_serves_a_stale_hit(toy_snapshot):
    """A replica that drifted rejects a batch its sibling commits: the
    apply raises, the sibling is at a version nobody acknowledged, and a
    read routed there must not be answered from the cache primed before."""
    with ShardedQueryService(
        {"toy": toy_snapshot}, num_workers=2, default_replicas=2
    ) as service:
        service.warmup()
        before = service.search("toy", "transaction")
        assert service.search("toy", "transaction").cached
        # Worker 1 alone gains a node, so an edge to the next node id is
        # valid on worker 1 and dangling on worker 0.
        ghost = {"op": "add_node", "label": "ghost", "table": "paper", "text": "ghost"}
        (extra,) = service.pool.submit(
            1, "mutate", {"dataset": "toy", "mutations": [ghost]}
        ).result(timeout=30)["new_nodes"]
        edge = {"op": "add_edge", "u": extra, "v": 3}
        with pytest.raises(MutationError):
            service.apply("toy", [edge])
        fresh = [service.search("toy", "transaction", use_cache=True) for _ in range(4)]
        assert not any(response.cached for response in fresh)
        assert all(response.ok for response in fresh)
        assert len(service.cache) == 0


def test_a_worker_retains_no_trace_after_its_reply(toy_snapshot):
    from repro.cluster import worker
    from repro.service.wire import request_to_dict

    created = []

    class Recording(worker._Replica):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            created.append(self)

    class Conn:
        def __init__(self, incoming):
            self.recv = iter(incoming).__next__
            self.sent = []

        def send(self, item):
            self.sent.append(item)

    requests = [
        request_to_dict(QueryRequest("toy", query, timeout=30.0 if i % 2 else None))
        for i, query in enumerate(QUERIES[:6])
    ]
    conn = Conn(
        [(0, {"toy": str(toy_snapshot)}, {})]
        + [("request", job, payload) for job, payload in enumerate(requests)]
        + [("stop",)]
    )
    with mock.patch.object(worker, "_Replica", Recording):
        worker.worker_main(conn)
    (service,) = created
    assert service.cache is None  # the supervisor's is the fleet's one
    replies = [payload for _, _, payload in conn.sent]
    assert len(replies) == len(requests)
    assert all(reply["spans"] for reply in replies)  # the spans left with them
    assert len(service.tracer.store) == 0


def test_metrics_reads_a_silent_worker_as_none(fleet):
    hold = fleet.pool.submit(1, "sleep", 1.5)
    try:
        with mock.patch.object(ShardedQueryService, "VERSIONS_TIMEOUT", 0.3):
            began = time.monotonic()
            metrics = fleet.metrics()
            elapsed = time.monotonic() - began
    finally:
        hold.result(timeout=30)
    assert elapsed < 1.0  # the pull waited VERSIONS_TIMEOUT, not 10 s
    per_worker = metrics["cluster"]["per_worker"]
    assert per_worker["1"] is None
    assert list(per_worker["0"]) == ["requests_total", "errors_total"]


def test_a_zero_capacity_cache_is_rejected_on_both_tiers(toy_snapshot):
    """A worker runs without a cache; a public constructor never does."""
    with pytest.raises(ValueError, match="capacity"):
        QueryService(cache_capacity=0)
    with pytest.raises(ValueError, match="capacity"):
        ShardedQueryService({"toy": toy_snapshot}, num_workers=1, cache_capacity=0)
