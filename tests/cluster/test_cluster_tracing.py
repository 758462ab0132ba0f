"""Cross-process tracing through ``ShardedQueryService``: one trace id
spans the supervisor's ``route`` span, the synthesized ``queue_wait``,
and the worker-side ``worker`` → ``engine`` subtree shipped back over
the pipe."""

import pytest

from repro.service.service import QueryRequest


def _flatten(nodes):
    for node in nodes:
        yield node
        yield from _flatten(node.get("children", ()))


class TestCrossProcessTree:
    def test_route_queue_wait_worker_engine(self, sharded):
        # use_cache=False keeps the engine subtree present even when an
        # earlier test already warmed this query into the cache.
        request = QueryRequest(
            dataset="alpha", query="gray transaction", use_cache=False
        )
        response = sharded.search(request)
        assert response.ok
        assert response.trace_id is not None
        assert response.spans is None  # trees are read via trace(), not inline
        tree = sharded.trace(response.trace_id)
        assert tree is not None
        assert tree["trace_id"] == response.trace_id
        names = {node["name"] for node in _flatten(tree["roots"])}
        # Supervisor-side spans and worker-side spans in one tree.
        assert {"route", "queue_wait", "worker", "engine"} <= names
        route = next(n for n in _flatten(tree["roots"]) if n["name"] == "route")
        assert route["attributes"]["dataset"] == "alpha"
        assert "worker" in route["attributes"]
        # The worker subtree crosses the process boundary under route.
        route_children = {child["name"] for child in route["children"]}
        assert "worker" in route_children
        assert "queue_wait" in route_children

    @pytest.mark.parametrize("timeout", [None, 30.0])
    def test_one_queue_wait_per_miss_with_or_without_a_deadline(
        self, sharded, timeout
    ):
        """The worker runs every request on its loop thread, so the one
        queue wait is the supervisor's, under ``route``: a deadline adds
        no executor hand-off (and no second watcher) worker-side."""
        request = QueryRequest(
            dataset="alpha", query="gray transaction", use_cache=False,
            timeout=timeout,
        )
        response = sharded.search(request)
        assert response.ok
        nodes = list(_flatten(sharded.trace(response.trace_id)["roots"]))
        (wait,) = [node for node in nodes if node["name"] == "queue_wait"]
        route = next(node for node in nodes if node["name"] == "route")
        assert wait["parent_id"] == route["span_id"]

    def test_engine_stage_span_has_pop_attributes(self, sharded):
        # use_cache=False: a query already served would otherwise be
        # answered from the cache, skipping the engine spans.
        request = QueryRequest(
            dataset="alpha", query="gray transaction", use_cache=False
        )
        response = sharded.search(request)
        tree = sharded.trace(response.trace_id)
        expand = next(
            (
                node
                for node in _flatten(tree["roots"])
                if node["name"].startswith("expand[")
            ),
            None,
        )
        assert expand is not None
        assert expand["attributes"]["pops"] >= 1
        assert "frontiers" in expand["attributes"]

    def test_caller_trace_id_survives_the_pipe(self, sharded):
        request = QueryRequest(
            dataset="beta",
            query="selinger",
            trace_id="ab" * 16,
            request_id="req-cluster-1",
        )
        response = sharded.search(request)
        assert response.ok
        assert response.trace_id == "ab" * 16
        assert response.request_id == "req-cluster-1"
        assert sharded.trace("ab" * 16) is not None

    def test_queue_wait_duration_nonnegative(self, sharded):
        response = sharded.search("alpha", "vldb")
        tree = sharded.trace(response.trace_id)
        waits = [
            node
            for node in _flatten(tree["roots"])
            if node["name"] == "queue_wait"
        ]
        assert waits
        assert all(node["duration"] >= 0.0 for node in waits)


class TestIdentityStamping:
    def test_error_response_keeps_request_and_trace_ids(self, sharded):
        request = QueryRequest(
            dataset="no-such-dataset", query="x", request_id="req-err-1"
        )
        response = sharded.search(request)
        assert not response.ok
        assert response.request_id == "req-err-1"
        assert response.trace_id is not None
        tree = sharded.trace(response.trace_id)
        (route,) = tree["roots"]
        assert route["name"] == "route"
        assert route["status"] == "error"

    def test_each_query_gets_a_fresh_trace(self, sharded):
        first = sharded.search("alpha", "gray")
        second = sharded.search("alpha", "gray")
        assert first.trace_id != second.trace_id
        assert sharded.trace(first.trace_id) is not None
        assert sharded.trace(second.trace_id) is not None

    def test_unknown_trace_returns_none(self, sharded):
        assert sharded.trace("0" * 32) is None


class TestSlowLog:
    def test_slow_queries_surface_with_span_trees(self, sharded):
        # The shared fleet has the default 1s threshold; flip it to
        # flight-record and restore afterwards (session fixture).
        original = sharded.slow_log.threshold
        sharded.slow_log.threshold = 0.0
        try:
            # use_cache=False: a hit would be one cache span, not a tree.
            response = sharded.search("alpha", "gray transaction", use_cache=False)
            entries = sharded.slow_queries()
            assert entries
            entry = entries[0]
            assert entry["trace_id"] == response.trace_id
            assert entry["request"]["dataset"] == "alpha"
            assert entry["span_tree"]["span_count"] >= 3
        finally:
            sharded.slow_log.threshold = original
            sharded.slow_log._entries.clear()


class TestMergedRegistry:
    def test_cluster_metrics_carry_registry_families(self, sharded):
        sharded.search("alpha", "gray")
        merged = sharded.metrics()
        registry = merged["registry"]
        assert isinstance(registry, dict)
        workers = registry["repro_cluster_workers"]["samples"][0]["value"]
        assert workers == 2
        alive = registry["repro_cluster_workers_alive"]["samples"][0]["value"]
        assert alive == pytest.approx(2)
        # Worker-side request counters merge into the same family view.
        requests = registry["repro_requests_total"]["samples"]
        assert sum(sample["value"] for sample in requests) >= 1
