"""Cooperative cancellation at the service tier.

A gate-driven fake engine stands in for a slow search: it loops,
ticking its token like the real algorithms do, until the gate opens or
the token fires.  That makes "the deadline actually frees the thread"
observable without wall-clock-sized sleeps or flaky timing.
"""

import threading
import time

import pytest

from repro.core.answer import SearchResult
from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.core.stats import SearchStats
from repro.errors import DeadlineExceededError, SearchCancelledError
from repro.service.service import QueryRequest, QueryService


class GatedEngine:
    """Searches block (cooperatively) until the gate opens or the token
    fires; every search run and stop is observable."""

    def __init__(self):
        self.params = SearchParams(cancel_check_interval=1)
        self.gate = threading.Event()
        self.started = threading.Event()
        self.stopped = threading.Event()
        self.runs = 0

    def search(self, query, *, algorithm, params, explain=False, token=None):
        self.runs += 1
        self.started.set()
        result = SearchResult(
            algorithm=algorithm, keywords=("slow",), stats=SearchStats()
        )
        while not self.gate.is_set():
            if token is not None and token.tick():
                result.complete = False
                result.cancel_reason = token.reason
                break
            time.sleep(0.002)
        result.stats.finish()
        self.stopped.set()
        return result


@pytest.fixture
def gated():
    return GatedEngine()


@pytest.fixture
def service(gated, toy_engine):
    with QueryService(max_workers=2) as svc:
        svc.register_engine("slow", gated)
        svc.register_engine("toy", toy_engine)
        yield svc
        gated.gate.set()  # never leave a worker thread spinning


class TestDeadlineCancellation:
    def test_deadline_frees_the_thread(self, service, gated):
        response = service.search("slow", "anything", timeout=0.05)
        assert response.error_type == DeadlineExceededError.__name__
        # The capacity win: the search stopped shortly after the
        # deadline instead of burning its thread until the gate opens.
        assert gated.stopped.wait(2.0)
        assert not gated.gate.is_set()

    def test_allow_partial_attaches_incomplete_result(self, service):
        request = QueryRequest(
            "slow", "anything", timeout=0.05, allow_partial=True
        )
        response = service.search(request)
        assert response.error_type == DeadlineExceededError.__name__
        assert response.result is not None
        assert response.result.complete is False
        assert response.result.cancel_reason == "deadline"
        with pytest.raises(DeadlineExceededError):
            response.raise_for_error()

    def test_without_allow_partial_no_result_attached(self, service):
        response = service.search(
            QueryRequest("slow", "anything", timeout=0.05)
        )
        assert response.error_type == DeadlineExceededError.__name__
        assert response.result is None

    def test_deadline_ms_spelling(self, service):
        request = QueryRequest("slow", "anything", deadline_ms=50.0)
        assert request.timeout == pytest.approx(0.05)
        assert request.deadline_ms is None
        response = service.search(request)
        assert response.error_type == DeadlineExceededError.__name__

    def test_both_deadline_spellings_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            QueryRequest("slow", "anything", timeout=1.0, deadline_ms=1000.0)

    def test_search_many_deadlines_free_threads(self, service, gated):
        responses = service.search_many(
            [
                QueryRequest("slow", "anything", timeout=0.05),
                ("toy", "gray transaction"),
            ]
        )
        assert responses[0].error_type == DeadlineExceededError.__name__
        assert responses[1].ok
        assert gated.stopped.wait(2.0)

    def test_incomplete_results_never_cached(self, service, gated):
        first = service.search(
            QueryRequest("slow", "anything", timeout=0.05, allow_partial=True)
        )
        assert first.result is not None and not first.result.complete
        assert len(service.cache) == 0
        gated.gate.set()
        second = service.search("slow", "anything")
        assert second.ok
        assert gated.runs == 2  # the partial result did not serve from cache

    def test_metrics_record_deadline_cancellation(self, service, gated):
        service.search(QueryRequest("slow", "anything", timeout=0.05))
        # The response returns at the deadline; the worker thread
        # records the cancellation moments later when the search hands
        # back control — poll briefly rather than race it.
        assert gated.stopped.wait(2.0)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            metrics = service.metrics()
            if metrics["cancellations"]["deadline_exceeded"]:
                break
            time.sleep(0.01)
        assert metrics["cancellations"]["deadline_exceeded"] == 1
        assert metrics["cancellations"]["cancelled"] == 0
        assert metrics["errors"][DeadlineExceededError.__name__] == 1
        # Overrun is bounded by the cooperative check cadence, far
        # under the engine's natural (gated) duration.
        assert metrics["cancellations"]["overrun_seconds"] < 1.0


class TestExplicitCancel:
    def test_cancel_by_request_id(self, service, gated):
        box = {}

        def run():
            box["response"] = service.search(
                QueryRequest(
                    "slow", "anything", request_id="req-1", allow_partial=True
                )
            )

        thread = threading.Thread(target=run)
        thread.start()
        assert gated.started.wait(2.0)
        assert service.cancel("req-1") is True
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        response = box["response"]
        assert response.error_type == SearchCancelledError.__name__
        assert response.result is not None
        assert response.result.cancel_reason == "cancelled"
        with pytest.raises(SearchCancelledError):
            response.raise_for_error()
        metrics = service.metrics()
        assert metrics["cancellations"]["cancelled"] == 1

    def test_cancel_unknown_id_is_false(self, service):
        assert service.cancel("never-submitted") is False

    def test_cancel_request_still_queued_in_executor(self, toy_engine):
        """A queued request is registered (and cancellable) at submit
        time — parity with the cluster tier's cancel message.  Its
        pre-fired token stops the search at the first pop once a thread
        frees up.  (Requests with a timeout run on the executor; the
        single worker is occupied by the gated blocker.)"""
        blocker = GatedEngine()
        results = {}
        threads = []
        try:
            with QueryService(max_workers=1) as svc:
                svc.register_engine("blocker", blocker)
                svc.register_engine("toy", toy_engine)

                def run_blocker():
                    results["a"] = svc.search(
                        QueryRequest("blocker", "anything", timeout=30.0)
                    )

                def run_queued():
                    results["b"] = svc.search(
                        QueryRequest(
                            "toy",
                            "gray transaction",
                            timeout=30.0,
                            request_id="queued",
                        )
                    )

                threads.append(threading.Thread(target=run_blocker, daemon=True))
                threads[0].start()
                assert blocker.started.wait(2.0)
                threads.append(threading.Thread(target=run_queued, daemon=True))
                threads[1].start()
                # Registered at submit: cancellable before any worker
                # thread has picked it up.
                deadline = time.monotonic() + 2.0
                cancelled = False
                while time.monotonic() < deadline and not cancelled:
                    cancelled = svc.cancel("queued")
                    time.sleep(0.005)
                assert cancelled
                blocker.gate.set()
                for thread in threads:
                    thread.join(timeout=5.0)
                    assert not thread.is_alive()
                assert results["a"].ok
                assert results["b"].error_type == SearchCancelledError.__name__
        finally:
            blocker.gate.set()

    def test_request_id_unregistered_after_completion(self, service, gated):
        gated.gate.set()
        response = service.search(QueryRequest("slow", "anything", request_id="req-2"))
        assert response.ok
        assert service.cancel("req-2") is False

    def test_caller_token_cancels_search(self, service, gated):
        token = CancellationToken()
        box = {}

        def run():
            box["response"] = service.search(
                QueryRequest("slow", "anything", allow_partial=True), token=token
            )

        thread = threading.Thread(target=run)
        thread.start()
        assert gated.started.wait(2.0)
        token.cancel()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert box["response"].error_type == SearchCancelledError.__name__


class TestCancellationStormEvent:
    def test_burst_emits_exactly_one_storm_event(self, service, gated):
        service.CANCEL_STORM_THRESHOLD = 3
        for _ in range(3):
            response = service.search("slow", "anything", timeout=0.01)
            assert response.error_type == DeadlineExceededError.__name__

        def storms():
            return [
                e
                for e in service.event_log.events()
                if e["kind"] == "cancellation_storm"
            ]

        # The deadline response returns before the cancelled search
        # finishes on its worker thread, where the storm is detected.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and not storms():
            time.sleep(0.01)
        (storm,) = storms()
        assert storm["severity"] == "warning"
        assert storm["dataset"] == "slow"
        assert storm["extra"]["count"] >= 3
        assert storm["extra"]["reason"] == "deadline"
        # More cancellations inside the same storm window stay quiet:
        # a storm is one event, not a stream of them.
        for _ in range(3):
            service.search("slow", "anything", timeout=0.01)
        time.sleep(0.2)  # let the trailing cancellations land
        assert len(storms()) == 1

    def test_sparse_cancellations_never_fire_the_event(self, service):
        # Two cancellations against the default threshold of 10.
        for _ in range(2):
            service.search("slow", "anything", timeout=0.01)
        kinds = [e["kind"] for e in service.event_log.events()]
        assert "cancellation_storm" not in kinds
