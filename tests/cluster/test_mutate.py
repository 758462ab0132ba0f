"""Cluster-wide live mutations: broadcast, per-replica visibility, drift.

The acceptance scenario for the live subsystem: a mutation committed
against a running :class:`~repro.cluster.ShardedQueryService` becomes
visible to subsequent queries on **every replica** without any process
restart, while stale cached results are never served afterwards.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from unittest import mock

import pytest

from repro.cluster import ShardedQueryService
from repro.cluster.http import make_server
from repro.errors import MutationError
from repro.service.metrics import family_values
from repro.service.service import QueryRequest, QueryService
from repro.service.snapshot_header import snapshot_info
from repro.service.wire import request_to_dict, response_from_dict


@pytest.fixture(scope="module")
def fleet(toy_snapshot):
    """Two workers, the dataset replicated on both — every broadcast
    must reach two distinct processes."""
    service = ShardedQueryService(
        {"toy": toy_snapshot},
        num_workers=2,
        default_replicas=2,
    )
    service.warmup()
    yield service
    service.close()


def replica_answers(fleet, worker_id: int, query: str):
    """Ask one specific replica directly (bypassing routing)."""
    payload = fleet.pool.submit(
        worker_id, "request", request_to_dict(QueryRequest(dataset="toy", query=query))
    ).result(timeout=60)
    return response_from_dict(payload)


class TestBroadcast:
    def test_mutation_visible_on_every_replica_without_restart(self, fleet):
        processes_before = {w: fleet.pool.process(w) for w in (0, 1)}

        # Unknown term everywhere first.
        for worker_id in (0, 1):
            response = replica_answers(fleet, worker_id, "zyzzqx")
            assert response.error_type == "KeywordNotFoundError"

        outcome = fleet.apply(
            "toy",
            [
                {
                    "op": "add_node",
                    "label": "Zyzzqx Systems",
                    "table": "paper",
                    "text": "Zyzzqx Systems",
                },
                {"op": "add_edge", "u": -1, "v": 3},
            ],
        )
        assert outcome.drift is False
        assert outcome.workers == {"0": outcome.version, "1": outcome.version}

        # Visible on both replicas...
        new_node = outcome.new_nodes[0]
        for worker_id in (0, 1):
            response = replica_answers(fleet, worker_id, "zyzzqx")
            assert response.ok, response.error
            roots = {answer.tree.root for answer in response.result.answers}
            assert new_node in roots
        # ...with no process restart.
        assert {w: fleet.pool.process(w) for w in (0, 1)} == processes_before
        assert all(count == 0 for count in fleet.pool.restarts().values())

    def test_stale_cache_never_served_after_broadcast(self, fleet):
        # Prime the supervisor's cache, the one in front of routing.
        assert fleet.search("toy", "transaction").ok
        cached = fleet.search("toy", "transaction")
        assert cached.cached  # the repeat came from the cache

        outcome = fleet.apply(
            "toy",
            [
                {
                    "op": "add_node",
                    "label": "Calvin Transaction Scheduling",
                    "table": "paper",
                    "text": "Calvin Transaction Scheduling",
                },
            ],
        )
        new_node = outcome.new_nodes[0]
        fresh = fleet.search("toy", "transaction")
        for response in (
            fresh,
            *(replica_answers(fleet, worker_id, "transaction") for worker_id in (0, 1)),
        ):
            assert response.ok
            assert not response.cached
            roots = {answer.tree.root for answer in response.result.answers}
            assert new_node in roots

    def test_versions_observable_everywhere(self, fleet):
        version = fleet.apply("toy", [{"op": "add_node", "label": "v"}]).version
        by_worker = fleet.dataset_versions()["toy"]
        assert by_worker == {"0": version, "1": version}
        health = fleet.health()
        assert health["versions"]["toy"] == by_worker
        assert health["version_drift"] == []
        merged = fleet.metrics()
        assert merged["datasets"]["versions"]["toy"] == version
        assert merged["datasets"]["version_drift"] == []

    def test_busy_replica_reports_unknown_not_consistent(self, fleet):
        """A replica too wedged to answer the versions probe must show
        up as unknown — never silently vanish from the drift check."""
        holds = [
            fleet.pool.submit(worker_id, "sleep", 1.0)
            for worker_id in (0, 1)
        ]
        with mock.patch.object(
            ShardedQueryService, "VERSIONS_TIMEOUT", 0.2
        ):
            health = fleet.health()
        for future in holds:
            future.result(timeout=30)
        assert health["version_unknown"] == ["toy"]
        assert health["versions"]["toy"] == {"0": None, "1": None}
        assert health["version_drift"] == []
        # and a later unhurried probe recovers
        health = fleet.health()
        assert health["version_unknown"] == []

    def test_one_busy_replica_reads_none_on_every_verb(self, fleet):
        """dataset_versions and health read one pull with one timeout:
        a replica held busy answers neither, and both name it None
        rather than block past the timeout or leave it out."""
        hold = fleet.pool.submit(0, "sleep", 2 * fleet.VERSIONS_TIMEOUT + 1.0)
        started = time.monotonic()
        versions = fleet.dataset_versions()
        elapsed = time.monotonic() - started
        health = fleet.health()
        hold.result(timeout=30)
        assert elapsed < fleet.VERSIONS_TIMEOUT + 1.0, elapsed
        assert versions["toy"]["0"] is None and versions["toy"]["1"] is not None
        assert health["versions"]["toy"]["0"] is None
        assert health["version_unknown"] == ["toy"]

    def test_bad_batch_raises_and_leaves_replicas_consistent(self, fleet):
        before = fleet.dataset_versions()["toy"]
        with pytest.raises(MutationError):
            fleet.apply(
                "toy",
                [
                    {"op": "add_node", "label": "ghost", "text": "ghostword"},
                    {"op": "add_edge", "u": -1, "v": 10_000},
                ],
            )
        assert fleet.dataset_versions()["toy"] == before
        for worker_id in (0, 1):
            response = replica_answers(fleet, worker_id, "ghostword")
            assert response.error_type == "KeywordNotFoundError"

    def test_apply_timeout_is_structured_and_batch_still_lands(self, fleet):
        """A supervisor-side timeout must surface as a structured
        ClusterError (never a raw concurrent.futures.TimeoutError), and
        — because the message is already queued — the batch commits
        once the busy worker drains, which the error text warns about."""
        from repro.errors import ClusterError

        before = fleet.dataset_versions()["toy"]
        holds = [fleet.pool.submit(worker_id, "sleep", 1.0) for worker_id in (0, 1)]
        with mock.patch.object(ShardedQueryService, "APPLY_TIMEOUT", 0.2):
            with pytest.raises(ClusterError, match="may yet be processed"):
                fleet.apply(
                    "toy",
                    [{"op": "add_node", "label": "late", "text": "lateword"}],
                )
        for future in holds:
            future.result(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            versions = set(fleet.dataset_versions()["toy"].values())
            if versions == {max(before.values()) + 1}:
                break
            time.sleep(0.1)
        assert versions == {max(before.values()) + 1}
        response = replica_answers(fleet, 0, "lateword")
        assert response.ok

    def test_malformed_batch_rejected_supervisor_side(self, fleet):
        with pytest.raises(MutationError, match="unknown mutation op"):
            fleet.apply("toy", [{"op": "truncate"}])

    def test_unknown_dataset(self, fleet):
        from repro.errors import UnknownDatasetError

        with pytest.raises(UnknownDatasetError):
            fleet.apply("nope", [{"op": "add_node", "label": "x"}])


def test_a_batch_counts_once_on_both_tiers(fleet, toy_engine):
    """``repro_mutations_applied_total`` counts a batch where it is
    acknowledged: one per ``apply``, however many replicas commit it."""

    def applied(service) -> int:
        families = service.metrics()["registry"]
        counts = family_values(families, "repro_mutations_applied_total", "dataset")
        return counts.get("toy", 0)

    with QueryService() as thread:
        thread.register_engine("toy", toy_engine)
        for service in (thread, fleet):
            before = applied(service)
            service.apply("toy", [{"op": "add_node", "label": "counted once"}])
            assert applied(service) == before + 1


class TestReloadBroadcast:
    def test_reload_noop_when_digest_matches(self, toy_snapshot):
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=2, default_replicas=2
        ) as service:
            service.warmup()
            outcome = service.reload("toy", toy_snapshot)
            assert (outcome["reloaded"], outcome["workers"]) == (
                False, {"0": False, "1": False},
            )

    def test_reload_resets_mutated_replicas(self, toy_snapshot):
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=2, default_replicas=2
        ) as service:
            service.warmup()
            service.apply("toy", [{"op": "add_node", "label": "m", "text": "mutword"}])
            outcome = service.reload("toy", toy_snapshot)
            assert (outcome["reloaded"], outcome["workers"]) == (
                True, {"0": True, "1": True},
            )
            response = replica_answers(service, 0, "mutword")
            assert response.error_type == "KeywordNotFoundError"


    def test_commit_and_reload_events_carry_one_field_set(
        self, toy_snapshot, tmp_path
    ):
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=1, wal_dir=tmp_path / "wals"
        ) as service:
            service.warmup()
            service.apply("toy", [{"op": "add_node", "label": "m", "text": "mutword"}])
            outcome = service.reload("toy", toy_snapshot)
            events = {
                event["kind"]: event
                for event in service.events(pull=False)["events"]
            }
        commit, reload = events["mutation_commit"], events["snapshot_reload"]
        assert (commit["dataset"], commit["source"]) == ("toy", "supervisor")
        assert commit["extra"] == {"version": 1, "applied": 1, "wal_seq": 1}
        assert (reload["dataset"], reload["source"]) == ("toy", "supervisor")
        assert reload["extra"] == {
            "version": outcome["version"],
            "digest": snapshot_info(toy_snapshot)["content_digest"],
            "wal_seq": outcome["version"],
        }


class TestHttpMutate:
    @pytest.fixture()
    def http_fleet(self, fleet):
        server = make_server(fleet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def _post(self, url: str, payload: dict):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_post_mutate_and_healthz_versions(self, http_fleet, fleet):
        status, body = self._post(
            f"{http_fleet}/mutate",
            {
                "dataset": "toy",
                "mutations": [
                    {"op": "add_node", "label": "HTTP Paper", "text": "httpword"}
                ],
            },
        )
        assert status == 200
        assert body["applied"] == 1
        assert body["drift"] is False
        response = fleet.search("toy", "httpword")
        assert response.ok

        with urllib.request.urlopen(f"{http_fleet}/healthz") as raw:
            health = json.loads(raw.read())
        assert health["versions"]["toy"] == body["workers"]

    def test_post_mutate_bad_batch_is_400(self, http_fleet):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                f"{http_fleet}/mutate",
                {"dataset": "toy", "mutations": [{"op": "bogus"}]},
            )
        assert excinfo.value.code == 400

    def test_post_mutate_unknown_dataset_is_404(self, http_fleet):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                f"{http_fleet}/mutate",
                {"dataset": "nope", "mutations": [{"op": "add_node"}]},
            )
        assert excinfo.value.code == 404

    def test_post_mutate_missing_fields_is_400(self, http_fleet):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{http_fleet}/mutate", {"mutations": []})
        assert excinfo.value.code == 400
