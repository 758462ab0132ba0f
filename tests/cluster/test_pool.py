"""WorkerPool failure drills: crash mid-batch, restart, drain, close.

These tests kill real worker processes, so each builds its own
throwaway pool/service rather than sharing the session fleet, and
notices a killed worker within 0.2 s (``fast_health``).
"""

import threading
import time

import pytest

from repro.cluster import ShardedQueryService
from repro.cluster.pool import WorkerPool
from repro.errors import PoolClosedError, WorkerCrashedError
from repro.service.service import QueryRequest


def _wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def fast_health(monkeypatch):
    monkeypatch.setattr(WorkerPool, "HEALTH_INTERVAL", 0.2)


@pytest.fixture
def pool(toy_snapshot, fast_health):
    with WorkerPool({0: {"toy": str(toy_snapshot)}}) as pool:
        yield pool


def answers(pool, worker_id=0, timeout=60.0) -> bool:
    """True iff the worker answers a ``state`` message within ``timeout``."""
    try:
        reply = pool.submit(worker_id, "state").result(timeout=timeout)
    except Exception:
        return False
    return "datasets" in reply


def test_state_reports_the_loaded_shard(pool):
    reply = pool.submit(0, "state").result(timeout=300.0)
    assert list(reply["datasets"]) == ["toy"]
    assert reply["datasets"]["toy"]["version"] == 0
    assert reply["datasets"]["toy"]["build_seconds"] > 0.0
    assert pool.alive() == {0: True}
    assert pool.restarts() == {0: 0}


def test_kill_mid_batch_yields_structured_errors_and_recovers(
    toy_snapshot, fast_health
):
    service = ShardedQueryService({"toy": toy_snapshot}, num_workers=1)
    try:
        service.warmup()
        pool = service.pool
        # Hold the worker busy so a real batch queues behind the sleep,
        # then kill it mid-batch: every in-flight request must come back
        # as a structured WorkerCrashedError response — never a hang.
        pool.submit(0, "sleep", 60.0)
        outcome = {}

        def run_batch():
            outcome["responses"] = service.search_many(
                [QueryRequest("toy", "gray transaction", use_cache=False)] * 3
            )

        batch_thread = threading.Thread(target=run_batch)
        batch_start = time.monotonic()
        batch_thread.start()
        # Sleep + 3 searches in flight, then pull the trigger.
        assert _wait_until(lambda: len(pool._inflight) >= 4)
        old = pool.process(0)
        old.kill()

        batch_thread.join(timeout=30.0)
        assert not batch_thread.is_alive(), "batch hung after worker crash"
        assert time.monotonic() - batch_start < 30.0
        responses = outcome["responses"]
        assert len(responses) == 3
        for response in responses:
            assert not response.ok
            assert response.error_type == WorkerCrashedError.__name__
            assert "crashed" in response.error
            assert response.result is None
            assert response.request.dataset == "toy"
            with pytest.raises(WorkerCrashedError):
                response.raise_for_error()

        # The supervisor restarts the worker and the next batch works.
        assert _wait_until(
            lambda: pool.process(0) not in (None, old), timeout=30.0
        )
        assert pool.restarts()[0] == 1
        responses = service.search_many(
            [("toy", "gray transaction"), ("toy", "postgres design")],
            timeout=60.0,
        )
        assert [response.ok for response in responses] == [True, True]

        metrics = service.metrics()
        assert metrics["errors"].get(WorkerCrashedError.__name__, 0) >= 3
    finally:
        service.close()


def test_control_futures_fail_with_exception_on_crash(pool):
    assert answers(pool)
    pool.submit(0, "sleep", 60.0)
    blocked_state = pool.submit(0, "state")
    pool.process(0).kill()
    with pytest.raises(WorkerCrashedError):
        blocked_state.result(timeout=30.0)
    # Restarted worker answers again.
    assert _wait_until(lambda: answers(pool, timeout=5.0), timeout=60.0)


def test_responses_produced_before_death_are_not_lost(pool):
    # A response sitting in the worker's pipe when it dies must still
    # complete its future (crash containment, not blanket failure).
    future = pool.submit(0, "state")
    assert "toy" in future.result(timeout=60.0)["datasets"]
    done = pool.submit(0, "state")
    assert _wait_until(done.done, timeout=60.0)
    pool.process(0).kill()
    assert "toy" in done.result(timeout=1.0)["datasets"]


def test_close_is_graceful_and_idempotent(toy_snapshot):
    pool = WorkerPool({0: {"toy": str(toy_snapshot)}})
    pool.start()
    assert answers(pool)
    process = pool.process(0)
    pool.close()
    assert process.poll() is not None
    pool.close()  # idempotent
    with pytest.raises(PoolClosedError):
        pool.submit(0, "state")


def test_close_fails_inflight_requests_not_hangs(toy_snapshot):
    pool = WorkerPool({0: {"toy": str(toy_snapshot)}})
    pool.start()
    assert answers(pool)
    pool.submit(0, "sleep", 120.0)
    stuck = pool.submit(0, "request", {"dataset": "toy", "query": "gray"})
    start = time.monotonic()
    pool.close(timeout=1.0)
    payload = stuck.result(timeout=5.0)
    assert time.monotonic() - start < 30.0
    # A closed pool is not a crashed worker: "retry it" would be a lie,
    # there is nothing left to retry against.
    assert payload["error_type"] == PoolClosedError.__name__

    with pytest.raises(ValueError):
        WorkerPool({})
