"""End-to-end tracing through ``QueryService``: span trees, engine-stage
attributes, the slow-query log, and the registry families the service
feeds."""

import pytest

from repro.service import QueryRequest, QueryService


@pytest.fixture
def service(toy_engine):
    with QueryService(cache_capacity=64, max_workers=4) as svc:
        svc.register_engine("toy", toy_engine)
        yield svc


def _find(node, name):
    """Depth-first search of a span-tree node list for a span name."""
    for child in node:
        if child["name"] == name:
            return child
        found = _find(child.get("children", ()), name)
        if found is not None:
            return found
    return None


class TestSpanTree:
    def test_search_produces_worker_engine_expand_tree(self, service):
        response = service.search("toy", "gray transaction")
        assert response.ok
        assert response.trace_id is not None
        tree = service.trace(response.trace_id)
        assert tree is not None
        assert tree["trace_id"] == response.trace_id
        (root,) = [r for r in tree["roots"] if r["name"] == "worker"]
        assert root["attributes"]["dataset"] == "toy"
        assert root["attributes"]["algorithm"] == "bidirectional"
        engine = _find(root["children"], "engine")
        assert engine is not None
        stages = {child["name"] for child in engine["children"]}
        assert "resolve" in stages
        assert "expand[bidir]" in stages
        assert "emit" in stages

    def test_expand_span_carries_pop_and_frontier_attributes(self, service):
        response = service.search("toy", "gray transaction")
        tree = service.trace(response.trace_id)
        expand = _find(tree["roots"], "expand[bidir]")
        attrs = expand["attributes"]
        assert attrs["pops"] >= 1
        assert attrs["nodes_touched"] >= 1
        assert "frontiers" in attrs
        assert attrs["complete"] is True

    def test_algorithm_selects_expand_span_name(self, service):
        response = service.search("toy", "gray", algorithm="si-backward")
        tree = service.trace(response.trace_id)
        assert _find(tree["roots"], "expand[si]") is not None

    def test_caller_supplied_trace_id_is_honoured(self, service):
        request = QueryRequest(
            dataset="toy",
            query="gray",
            trace_id="f" * 32,
            parent_span_id="0" * 16,
            request_id="req-1",
        )
        response = service.search(request)
        assert response.trace_id == "f" * 32
        assert response.request_id == "req-1"
        tree = service.trace("f" * 32)
        (root,) = [r for r in tree["roots"] if r["name"] == "worker"]
        assert root["parent_id"] == "0" * 16
        assert root["attributes"]["request_id"] == "req-1"

    def test_cache_hit_skips_engine_spans(self, service):
        first = service.search("toy", "selinger")
        second = service.search("toy", "selinger")
        assert second.cached
        tree = service.trace(second.trace_id)
        # Answered in front of execution: one cache span, no worker span.
        (root,) = tree["roots"]
        assert root["name"] == "cache"
        assert root["attributes"]["cached"] is True
        assert root["children"] == []
        assert _find(tree["roots"], "engine") is None
        assert second.trace_id != first.trace_id

    def test_error_response_is_stamped_and_marked(self, service):
        request = QueryRequest(dataset="nope", query="x", request_id="req-err")
        response = service.search(request)
        assert not response.ok
        assert response.request_id == "req-err"
        assert response.trace_id is not None
        tree = service.trace(response.trace_id)
        (root,) = tree["roots"]
        assert root["status"] == "error"
        assert root["attributes"]["error_type"] == "UnknownDatasetError"


class TestProfiling:
    def test_sampling_off_by_default(self, service):
        # The trajectory is sampled by the explain timeline only.
        response = service.search(
            QueryRequest("toy", "gray transaction", explain=True)
        )
        tree = service.trace(response.trace_id)
        expand = _find(tree["roots"], "expand[bidir]")
        assert "profile" not in expand["attributes"]
        assert response.result.explain["timeline"]


class TestSlowLog:
    def test_threshold_zero_records_every_query(self, toy_engine):
        with QueryService(slow_query_threshold=0.0) as svc:
            svc.register_engine("toy", toy_engine)
            response = svc.search("toy", "gray")
            entries = svc.slow_queries()
            assert len(entries) == 1
            entry = entries[0]
            assert entry["trace_id"] == response.trace_id
            assert entry["request"]["dataset"] == "toy"
            assert entry["span_tree"]["span_count"] >= 1

    def test_default_threshold_skips_fast_queries(self, service):
        service.search("toy", "gray")
        assert service.slow_queries() == []


class TestTracingDisabled:
    def test_no_trace_ids_no_spans(self, toy_engine):
        with QueryService(tracing=False) as svc:
            svc.register_engine("toy", toy_engine)
            response = svc.search("toy", "gray")
            assert response.ok
            assert response.trace_id is None
            assert response.spans is None
            assert svc.trace("anything") is None

    def test_request_id_still_echoed(self, toy_engine):
        with QueryService(tracing=False) as svc:
            svc.register_engine("toy", toy_engine)
            request = QueryRequest(dataset="toy", query="gray", request_id="r1")
            assert svc.search(request).request_id == "r1"


class TestRegistryFamilies:
    def test_metrics_exports_registry_families(self, service):
        service.search("toy", "gray")
        service.search("toy", "gray")  # cache hit
        exported = service.metrics()
        registry = exported["registry"]
        assert isinstance(registry, dict)
        requests = registry["repro_requests_total"]["samples"]
        assert sum(s["value"] for s in requests) == 2
        hits = registry["repro_cache_hits_total"]["samples"]
        assert hits and hits[0]["value"] == 1
        latency = registry["repro_request_latency_seconds"]
        assert latency["type"] == "histogram"
        assert sum(s["count"] for s in latency["samples"]) >= 1
