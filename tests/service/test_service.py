"""QueryService: registry, cached search, concurrent batches, deadlines."""

import threading

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import (
    DeadlineExceededError,
    KeywordNotFoundError,
    UnknownDatasetError,
)
from repro.service import QueryRequest, QueryService, ResultCache

QUERIES = ["gray transaction", "selinger", "vldb", "postgres stonebraker"]
ALGOS = ["bidirectional", "si-backward", "mi-backward"]


@pytest.fixture
def service(toy_engine):
    with QueryService(cache_capacity=64, max_workers=8) as svc:
        svc.register_engine("toy", toy_engine)
        yield svc


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_dataset_raises(self, service):
        with pytest.raises(UnknownDatasetError):
            service.engine("nope")

    def test_unknown_dataset_search_is_structured_error(self, service):
        response = service.search("nope", "gray")
        assert not response.ok
        assert response.error_type == "UnknownDatasetError"
        with pytest.raises(UnknownDatasetError):
            response.raise_for_error()

    def test_warmup_reports_build_seconds(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            timings = svc.warmup()
            assert set(timings) == {"toy"}
            assert timings["toy"] > 0.0

    def test_register_snapshot_warmup(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = tmp_path / "toy.snap"
        save_engine(path, toy_engine)
        with QueryService() as svc:
            svc.register_snapshot("toy", path)
            svc.warmup()
            response = svc.search("toy", "gray transaction", k=3)
            assert response.ok
            base = toy_engine.search("gray transaction", k=3)
            assert response.result.scores() == base.scores()

    def test_save_snapshot_through_service(self, service, tmp_path):
        written = service.save_snapshot("toy", tmp_path / "svc.snap")
        assert written.exists()

    def test_reregistering_purges_stale_cache_entries(self, service, toy_db):
        stale = service.search("toy", "gray transaction", k=3)
        other_engine = KeywordSearchEngine.from_database(toy_db)
        service.register_engine("other", other_engine)
        service.search("other", "gray transaction", k=3)
        # Replace 'toy': its cached answers must die with the old engine...
        service.register_engine("toy", KeywordSearchEngine.from_database(toy_db))
        fresh = service.search("toy", "gray transaction", k=3)
        assert not fresh.cached
        assert fresh.result is not stale.result
        # ...while other datasets' entries survive.
        assert service.search("other", "gray transaction", k=3).cached


# ----------------------------------------------------------------------
# single search + cache behaviour
# ----------------------------------------------------------------------
class TestSearch:
    @pytest.mark.parametrize("algorithm", ["bidirectional", "si-backward", "mi-backward"])
    def test_matches_engine_search(self, service, toy_engine, algorithm):
        params = SearchParams(max_results=3)
        response = service.search(
            "toy", "gray transaction", algorithm=algorithm, params=params
        )
        assert response.ok and not response.cached
        assert response.result.algorithm == algorithm
        base = toy_engine.search("gray transaction", algorithm=algorithm, params=params)
        assert response.result.scores() == base.scores()
        assert response.result.signatures() == base.signatures()

    def test_algorithms_do_not_share_cache_entries(self, service):
        # Each algorithm emits its own answer stream, so a result one
        # computed must not answer for another.
        assert not service.search("toy", "gray transaction").cached
        second = service.search("toy", "gray transaction", algorithm="si-backward")
        assert not second.cached
        assert second.result.algorithm == "si-backward"
        assert service.search("toy", "gray transaction", algorithm="si-backward").cached
        assert service.search("toy", "gray transaction").cached

    def test_repeat_query_is_cached(self, service):
        first = service.search("toy", "gray transaction", k=3)
        second = service.search("toy", "  gray   transaction ", k=3)
        assert not first.cached and second.cached
        assert second.result is first.result  # shared, not copied

    def test_k_and_params_spellings_share_cache_entry(self, service):
        first = service.search("toy", "gray", k=3)
        second = service.search(
            "toy", "gray", params=SearchParams(max_results=3)
        )
        assert second.cached

    def test_use_cache_false_forces_fresh_search(self, service):
        service.search("toy", "gray transaction")
        response = service.search("toy", "gray transaction", use_cache=False)
        assert not response.cached
        # ... and the fresh result refreshed the entry for later callers.
        assert service.search("toy", "gray transaction").cached

    def test_keyword_not_found_is_structured(self, service):
        response = service.search("toy", "zzz_not_a_word")
        assert not response.ok
        assert response.error_type == "KeywordNotFoundError"
        assert "zzz_not_a_word" in response.error
        with pytest.raises(KeywordNotFoundError):
            response.raise_for_error()

    def test_errors_are_not_cached(self, service):
        service.search("toy", "zzz_not_a_word")
        assert len(service.cache) == 0

    def test_request_object_form(self, service):
        request = QueryRequest("toy", "gray transaction", algorithm="si-backward", k=2)
        response = service.search(request)
        assert response.ok
        assert response.request is request
        assert response.result.algorithm == "si-backward"

    def test_invalid_algorithm_rejected_at_request_construction(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            QueryRequest("toy", "gray", algorithm="dijkstra")

    def test_request_object_with_overrides_rejected(self, service):
        request = QueryRequest("toy", "gray")
        with pytest.raises(ValueError, match="not both"):
            service.search(request, algorithm="mi-backward")
        with pytest.raises(ValueError, match="not both"):
            service.search(request, use_cache=False)

    def test_non_library_engine_failure_is_structured(self, service):
        class BrokenEngine:
            params = SearchParams()

            def search(self, query, *, algorithm, params, explain, token):
                raise AttributeError("engine bug, not a library error")

        service.register_engine("broken", BrokenEngine())
        responses = service.search_many([("broken", "gray"), ("toy", "gray")])
        assert [r.ok for r in responses] == [False, True]
        assert responses[0].error_type == "AttributeError"

    def test_ttl_expiry_forces_recompute(self, toy_engine):
        clock_value = [0.0]
        with QueryService(cache_ttl=10.0) as svc:
            # The cache's clock is its test seam; the service has none.
            svc.cache = ResultCache(ttl=10.0, clock=lambda: clock_value[0])
            svc.register_engine("toy", toy_engine)
            svc.search("toy", "gray transaction")
            assert svc.search("toy", "gray transaction").cached
            clock_value[0] += 11.0
            assert not svc.search("toy", "gray transaction").cached


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------
class TestSearchMany:
    def test_matches_sequential_search_over_50_mixed_queries(
        self, service, toy_engine
    ):
        requests = [
            QueryRequest("toy", query, algorithm=algo, k=5)
            for query in QUERIES
            for algo in ALGOS
        ]
        requests = (requests * 5)[:50]
        responses = service.search_many(requests)
        assert len(responses) == 50
        assert all(r.ok for r in responses)
        for request, response in zip(requests, responses):
            base = toy_engine.search(request.query, algorithm=request.algorithm, k=5)
            assert response.result.scores() == base.scores()
            assert response.result.signatures() == base.signatures()

    def test_tuple_shorthand(self, service):
        responses = service.search_many(
            [("toy", "gray"), ("toy", "vldb", "si-backward")]
        )
        assert [r.ok for r in responses] == [True, True]
        assert responses[1].result.algorithm == "si-backward"

    def test_mixed_success_and_error_keep_order(self, service):
        responses = service.search_many(
            [("toy", "gray"), ("toy", "zzz_nope"), ("nope", "gray"), ("toy", "vldb")]
        )
        assert [r.ok for r in responses] == [True, False, False, True]
        assert responses[1].error_type == "KeywordNotFoundError"
        assert responses[2].error_type == "UnknownDatasetError"

    def test_error_strings_carry_no_repr_quoting(self, service):
        response = service.search("nope", "gray")
        # LookupError (not KeyError) base: str() must not repr-quote.
        assert response.error == "dataset 'nope' is not registered"

    def test_malformed_item_does_not_lose_the_batch(self, service):
        responses = service.search_many(
            [
                ("toy", "gray"),
                ("toy", "gray", "dijkstra"),  # unknown algorithm
                ("toy",),  # wrong shape
                ("toy", "gray", "bidirectional", 5),  # extra element
                ("toy", "vldb"),
            ]
        )
        assert [r.ok for r in responses] == [True, False, False, False, True]
        assert "batch tuple" in responses[3].error
        assert responses[1].request is None
        assert responses[1].error_type == "ValueError"
        assert "dijkstra" in responses[1].error
        assert responses[2].request is None
        with pytest.raises(ValueError):
            responses[1].raise_for_error()

    def test_concurrent_clients_eight_threads(self, service, toy_engine):
        """>= 8 client threads each running batches against one service."""
        expected = {
            (query, algo): toy_engine.search(query, algorithm=algo, k=5)
            for query in QUERIES
            for algo in ALGOS
        }
        failures = []

        def client(seed: int) -> None:
            requests = [
                QueryRequest("toy", query, algorithm=algo, k=5)
                for query in QUERIES
                for algo in ALGOS
            ]
            # Stagger each client's order so threads interleave work.
            rotated = requests[seed:] + requests[:seed]
            try:
                for response in service.search_many(rotated):
                    base = expected[(response.request.query, response.request.algorithm)]
                    assert response.ok, response.error
                    assert response.result.scores() == base.scores()
                    assert response.result.signatures() == base.signatures()
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_exceeded_is_structured(self, toy_db):
        gate = threading.Event()

        class SlowEngine:
            params = SearchParams()

            def search(self, query, *, algorithm, params, explain, token):
                gate.wait(5.0)
                raise AssertionError("should not matter for the response")

        with QueryService(max_workers=2) as svc:
            svc.register_engine("slow", SlowEngine())
            response = svc.search("slow", "gray", timeout=0.05)
            gate.set()
        assert not response.ok
        assert response.error_type == "DeadlineExceededError"
        with pytest.raises(DeadlineExceededError):
            response.raise_for_error()

    def test_fast_query_beats_deadline(self, service):
        response = service.search("toy", "gray transaction", timeout=30.0)
        assert response.ok

    def test_batch_default_timeout_applies(self, toy_engine):
        gate = threading.Event()

        class SlowEngine:
            params = SearchParams()

            def search(self, query, *, algorithm, params, explain, token):
                gate.wait(5.0)
                return toy_engine.search("gray", algorithm=algorithm, params=params)

        with QueryService(max_workers=4) as svc:
            svc.register_engine("toy", toy_engine)
            svc.register_engine("slow", SlowEngine())
            responses = svc.search_many(
                [("toy", "gray"), ("slow", "gray")], timeout=0.1
            )
            gate.set()
        assert responses[0].ok
        assert responses[1].error_type == "DeadlineExceededError"

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            QueryRequest("toy", "gray", timeout=0.0)

    def test_deadline_miss_is_recorded_once(self, toy_engine):
        """The abandoned worker's eventual completion must not add a
        second request (or a latency sample) for the same logical
        request."""
        release = threading.Event()

        class SlowEngine:
            params = SearchParams()

            def search(self, query, *, algorithm, params, explain, token):
                release.wait(5.0)
                return toy_engine.search("gray", algorithm=algorithm, params=params)

        with QueryService(max_workers=2) as svc:
            svc.register_engine("slow", SlowEngine())
            response = svc.search("slow", "gray", timeout=0.05)
            assert response.error_type == "DeadlineExceededError"
            release.set()
        # close() (via the context manager) waited for the abandoned
        # worker, so its metrics gate has definitely been evaluated.
        exported = svc.metrics()
        assert exported["requests_total"] == 1
        assert exported["errors_total"] == 1
        assert exported["algorithms"]["bidirectional"]["latency_count"] == 0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_export_reflects_traffic(self, service):
        service.search("toy", "gray transaction")
        service.search("toy", "gray transaction")
        service.search("toy", "zzz_nope")
        service.search("toy", "vldb", algorithm="si-backward")
        exported = service.metrics()
        assert exported["requests_total"] == 4
        assert exported["cache_hits"] == 1
        assert exported["errors"] == {"KeywordNotFoundError": 1}
        assert exported["algorithms"]["bidirectional"]["latency_p50"] is not None
        assert exported["cache"]["size"] == 2
        assert exported["datasets"]["registered"] == ["toy"]

    def test_metrics_are_json_serializable(self, service):
        import json

        service.search("toy", "gray")
        json.dumps(service.metrics())

    def test_closed_service_rejects_batches(self, toy_engine):
        svc = QueryService()
        svc.register_engine("toy", toy_engine)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.search("toy", "gray", timeout=1.0)
