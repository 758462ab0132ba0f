"""The introspection verbs, pinned side by side on both tiers.

One scripted sequence — miss, hit, ``explain=True`` with a request id,
keyword-not-found, a batch with a malformed slot, a deadline miss with
``allow_partial``, an explicit ``cancel``, a commit — runs through a
``QueryService`` and a 2-worker ``ShardedQueryService``, both with
``slow_query_threshold=0.0`` so every settled request is a slow query;
a reload then resets the commit and a second one no-ops.
Each verb's key tree and every value the script determines is asserted
per tier; what differs between the tiers is stated where it differs.
Failures are pinned the same way: ``warmup`` of an unknown name and a
reload onto a file that does not load raise on both tiers.
Fixtures and the slow query come from ``test_metrics_shape``.
"""

import pytest

from repro.cluster import ShardedQueryService
from repro.errors import SnapshotError, UnknownDatasetError
from repro.live.mutations import AddNode, MutationResult
from repro.service.service import QueryRequest, QueryService, request_fingerprint
from repro.service.snapshot import save_engine
from repro.service.snapshot_header import snapshot_info

from test_metrics_shape import (  # noqa: F401 - dblp_snapshot is a fixture
    SLOW,
    _cancel_mid_search,
    dblp_snapshot,
)
from test_snapshot import flip_byte

MISS, EXPLAINED = "paper stream", "database query"

SPAN_KEYS = [
    "name", "trace_id", "span_id", "parent_id", "start", "duration", "status",
    "attributes", "children",
]
SLOW_ENTRY_KEYS = [
    "recorded_at", "elapsed", "trace_id", "request", "error_type", "span_tree",
    "fingerprint", "explain_available",
]
EVENT_KEYS = {
    "ts", "kind", "severity", "message", "dataset", "trace_id", "source", "extra",
    "seq",
}
COMMIT_KEYS = [
    "dataset", "version", "applied", "new_nodes", "compacted", "cache_purged",
    "workers", "wal_seq", "drift",
]
RELOAD_KEYS = ["dataset", "reloaded", "version", "digest", "workers"]
#: ``health()`` on both tiers (a log is attached); the fleet leads with
#: its liveness.
HEALTH_KEYS = [
    "datasets", "versions", "version_drift", "version_unknown", "unloaded",
    "wal_behind", "wal_seq",
]
FLEET_KEYS = ["workers", "alive", "restarts"]
SLO_KEYS = [
    "objective", "kind", "dataset", "budget", "burn_threshold", "windows", "firing",
    "firing_since",
]


def _span_names(node, found):
    found.add(node["name"])
    for child in node["children"]:
        assert list(child) == SPAN_KEYS
        _span_names(child, found)
    return found


def _drive(service):
    """Run the script; returns the responses the checks key off."""
    miss = service.search("dblp", MISS)
    miss.raise_for_error()
    assert service.search("dblp", MISS).cached is True
    explained = QueryRequest("dblp", EXPLAINED, explain=True, request_id="explained")
    service.search(explained).raise_for_error()
    assert (
        service.search("dblp", "zzzqqq nonexistent").error_type
        == "KeywordNotFoundError"
    )
    # A malformed item keeps its slot; its neighbours still run.
    first, malformed, last = service.search_many(
        [("dblp", MISS), {"dataset": "dblp"}, ("dblp", EXPLAINED)]
    )
    assert first.ok and first.request.query == MISS
    assert malformed.error_type == "ValueError" and malformed.request is None
    assert last.ok and last.request.query == EXPLAINED
    partial = service.search(
        QueryRequest("dblp", timeout=0.05, allow_partial=True, **SLOW)
    )
    assert partial.error_type == "DeadlineExceededError"
    assert partial.result is not None and partial.result.complete is False
    _cancel_mid_search(service)
    commit = service.apply("dblp", [AddNode(label="parity probe", text="parity probe")])
    return miss, explained, commit


def _check_commit(commit, *, workers):
    """Both tiers' ``apply`` returns one type with one field set;
    only the fleet has replicas to report."""
    assert isinstance(commit, MutationResult)
    assert list(commit.to_dict()) == COMMIT_KEYS
    assert (commit.dataset, commit.version, commit.applied, commit.wal_seq) == (
        "dblp", 1, 1, 1,
    )
    assert len(commit.new_nodes) == 1 and commit.compacted is False
    assert commit.workers == workers and commit.drift is False


def _check_reload(service, snapshot, *, replicas):
    """Both tiers' ``reload`` returns one key list; only the fleet has
    replicas to report.  The first resets the commit, the second finds
    the file's digest served at its version and no-ops."""
    digest = snapshot_info(snapshot)["content_digest"]
    for reloaded in (True, False):
        outcome = service.reload("dblp", snapshot)
        assert list(outcome) == RELOAD_KEYS
        assert outcome == {
            "dataset": "dblp",
            "reloaded": reloaded,
            "version": 0,
            "digest": digest,
            "workers": {worker: reloaded for worker in replicas},
        }
    assert service.wal_seqs() == {"dblp": 0}


def _check(service, miss, explained, *, span_names, event_sources):
    # trace: one tree per request, rooted where the tier first saw it
    trace = service.trace(miss.trace_id)
    assert list(trace) == ["trace_id", "span_count", "roots"]
    assert trace["trace_id"] == miss.trace_id
    (root,) = trace["roots"]
    assert list(root) == SPAN_KEYS
    assert _span_names(root, set()) >= span_names
    assert root["name"] == ("route" if "route" in span_names else "worker")
    assert service.trace("no-such-trace") is None

    # slow_queries: newest first; all eight settled requests crossed 0.0
    slow = service.slow_queries()
    assert [
        (entry["request"]["request_id"], entry["error_type"]) for entry in slow
    ] == [
        ("doomed", "SearchCancelledError"),
        (None, "DeadlineExceededError"),
        (None, None),
        (None, None),
        (None, "KeywordNotFoundError"),
        ("explained", None),
        (None, None),
        (None, None),
    ]
    for entry in slow:
        assert list(entry) == SLOW_ENTRY_KEYS
        assert list(entry["request"]) == ["dataset", "query", "algorithm", "request_id"]
        assert list(entry["span_tree"]) == ["trace_id", "span_count", "roots"]
        assert entry["explain_available"] is (
            entry["request"]["request_id"] == "explained"
        )
    assert slow[5]["fingerprint"] == request_fingerprint(explained)
    assert slow[5]["request"] == {
        "dataset": "dblp",
        "query": EXPLAINED,
        "algorithm": "bidirectional",
        "request_id": "explained",
    }

    # explain: the engine's report, retained by request id
    report = service.explain("explained")
    assert list(report) == [
        "version", "canonical", "timeline", "answer_timing", "costs", "timings",
    ]
    assert report["canonical"]["algorithm"] == "bidirectional"
    assert report["canonical"]["keywords"] == sorted(EXPLAINED.split())
    assert service.explain("doomed") is None

    # events: the commit is in the stream; polling from the head is empty
    events = service.events()
    assert list(events) == ["events", "last_seq"]
    assert events["last_seq"] == events["events"][-1]["seq"]
    commits = [e for e in events["events"] if e["kind"] == "mutation_commit"]
    assert {e["source"] for e in commits} == event_sources
    for event in events["events"]:
        assert set(event) - {"remote_seq"} == EVENT_KEYS
    assert service.events(events["last_seq"])["events"] == []

    # query_stats: one sketch row per fingerprint that ran a search
    stats = service.query_stats()
    assert list(stats) == ["capacity", "total", "floor", "entries"]
    assert (stats["capacity"], stats["total"], stats["floor"]) == (64, 5, 0)
    assert len(stats["entries"]) == 4  # the deadline miss and the cancel share one
    for entry in stats["entries"]:
        assert list(entry) == ["key", "count", "error", "elapsed_total", "costs"]
    by_key = {entry["key"]: entry for entry in stats["entries"]}
    assert by_key[request_fingerprint(explained)]["count"] == 1
    assert by_key[request_fingerprint(QueryRequest("dblp", **SLOW))]["count"] == 2

    # slo_status: the default objectives, none firing on this script
    slo = service.slo_status()
    assert [status["objective"] for status in slo] == [
        "availability", "error-rate", "latency-p99",
    ]
    for status in slo:
        # the latency objective also states its threshold
        assert [key for key in status if key != "threshold"] == SLO_KEYS
        assert ("threshold" in status) is (status["objective"] == "latency-p99")
        assert list(status["windows"]) == ["fast", "slow"]

    # wal_seqs / metrics: the commit is journalled; nine requests, four
    # of them errors, the malformed slot counted under its own row
    assert service.wal_seqs() == {"dblp": 1}
    exported = service.metrics()
    assert exported["requests_total"] == 9
    assert exported["errors_total"] == 4
    assert sorted(exported["algorithms"]) == [
        "bidirectional", "invalid-request", "mi-backward",
    ]


def test_query_service_verbs(dblp_snapshot, tmp_path):
    with QueryService(slow_query_threshold=0.0) as service:
        service.register_snapshot("dblp", dblp_snapshot)
        service.warmup()
        service.attach_wal("dblp", tmp_path / "dblp.wal")
        miss, explained, commit = _drive(service)
        _check_commit(commit, workers={})
        _check(
            service,
            miss,
            explained,
            span_names={"worker", "engine"},
            event_sources={"service"},
        )
        health = service.health()
        _check_reload(service, dblp_snapshot, replicas=[])
    assert list(health) == HEALTH_KEYS
    assert health["versions"] == {"dblp": {"local": 1}}
    assert health["version_drift"] == health["version_unknown"] == []
    assert health["unloaded"] == health["wal_behind"] == []
    assert health["wal_seq"] == {"dblp": 1}


def test_sharded_service_verbs(dblp_snapshot, tmp_path):
    with ShardedQueryService(
        {"dblp": dblp_snapshot},
        num_workers=2,
        default_replicas=2,
        wal_dir=tmp_path / "wal",
        slow_query_threshold=0.0,
    ) as service:
        service.warmup()
        miss, explained, commit = _drive(service)
        _check_commit(commit, workers={"0": 1, "1": 1})
        _check(
            service,
            miss,
            explained,
            span_names={"route", "queue_wait", "worker", "engine"},
            # the supervisor's own record plus each replica's, re-sequenced
            event_sources={"supervisor", "worker-0", "worker-1"},
        )
        health = service.health()
        _check_reload(service, dblp_snapshot, replicas=["0", "1"])
    assert list(health) == FLEET_KEYS + HEALTH_KEYS
    assert (health["workers"], health["alive"], health["restarts"]) == (2, 2, 0)
    assert health["versions"] == {"dblp": {"0": 1, "1": 1}}
    assert health["version_drift"] == health["version_unknown"] == []
    assert health["unloaded"] == health["wal_behind"] == []
    assert health["wal_seq"] == {"dblp": 1}


@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_search_many_keeps_malformed_slots_in_place(tier, dblp_snapshot):
    if tier == "thread":
        service = QueryService()
        service.register_snapshot("dblp", dblp_snapshot)
    else:
        service = ShardedQueryService({"dblp": dblp_snapshot}, num_workers=1)
    with service:
        responses = service.search_many(
            [
                ("dblp", MISS, "bidirectional", "one too many"),
                ("dblp", MISS),
                QueryRequest("nope", MISS),
                42,
            ]
        )
    assert [r.error_type for r in responses] == [
        "ValueError", None, "UnknownDatasetError", "TypeError",
    ]
    assert [r.request is None for r in responses] == [True, False, False, True]
    assert responses[1].request.query == MISS


@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_warmup_of_an_unknown_name_raises(tier, dblp_snapshot):
    if tier == "thread":
        service = QueryService()
        service.register_snapshot("dblp", dblp_snapshot)
    else:
        service = ShardedQueryService({"dblp": dblp_snapshot}, num_workers=1)
    with service:
        with pytest.raises(UnknownDatasetError):
            service.warmup(["nope"])
        assert list(service.warmup(["dblp"])) == ["dblp"]


#: How a file fails to load, and the storage mode that finds out: a
#: truncated copy fails either load, a flipped data byte fails the
#: ``ram`` load's checksums (a ``mapped`` load reads no data page).
UNLOADABLE = [("truncated", "ram"), ("truncated", "mapped"), ("flipped", "ram")]


@pytest.mark.parametrize("damage, mode", UNLOADABLE)
@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_a_reload_onto_a_file_that_does_not_load_raises(
    tier, damage, mode, toy_engine, tmp_path
):
    """The load runs before the swap: a forced reload onto a damaged
    copy raises the load's error and leaves the served engine, its
    version and, on the fleet, health and the replica specs as they
    were."""
    path = save_engine(tmp_path / "toy.snap", toy_engine)
    if damage == "truncated":
        bad = tmp_path / "truncated.snap"
        bad.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    else:
        bad = flip_byte(path, "out_weight", tmp_path / "flipped.snap")
    if tier == "thread":
        service = QueryService(storage_mode=mode)
        service.register_snapshot("toy", path)
    else:
        service = ShardedQueryService({"toy": path}, num_workers=1, storage_mode=mode)
    with service:
        service.warmup()
        versions = service.dataset_versions()
        with pytest.raises(SnapshotError):
            service.reload("toy", bad, force=True)
        assert service.dataset_versions() == versions
        response = service.search("toy", "gray transaction", use_cache=False)
        assert response.ok, response.error
        if tier == "fleet":
            assert service.health()["version_drift"] == []
            assert service.pool._specs[0] == {"toy": str(path)}
