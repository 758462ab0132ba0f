"""Cancellation across the process boundary: cancels down the worker's
channel, deadlines, sibling isolation, and the HTTP cancel/disconnect
surface."""

import json
import queue
import sys
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.cluster import ShardedQueryService
from repro.cluster.http import make_server, status_for_error
from repro.cluster.pool import WorkerPool
from repro.cluster.worker import _Inbox
from repro.core.answer import SearchResult
from repro.core.params import SearchParams
from repro.core.stats import SearchStats
from repro.errors import DeadlineExceededError, SearchCancelledError
from repro.service.metrics import family_total
from repro.service.service import QueryRequest, QueryService
from repro.service.snapshot import save_engine

from tests.helpers import RawHTTP, http_threads, wait_until


@pytest.fixture(scope="session")
def dblp_snapshot(tmp_path_factory, dblp_small_engine):
    """A dataset big enough that ``mi-backward`` runs for seconds —
    long enough for a deadline to fire genuinely mid-search."""
    path = tmp_path_factory.mktemp("cancel") / "dblp.snap"
    return save_engine(path, dblp_small_engine)


# ----------------------------------------------------------------------
# pool-level: cancel messages on the worker's channel
# ----------------------------------------------------------------------
class TestPoolCancel:
    def test_cancel_queued_request_never_searches(self, toy_snapshot):
        with WorkerPool({0: {"toy": toy_snapshot}}) as pool:
            pool.submit(0, "state").result(timeout=300.0)
            # Occupy the worker, then queue a request behind it and
            # cancel the queued request — deterministically cancelled
            # *before* execution.
            sleeper = pool.submit(0, "sleep", 0.6)
            queued = pool.submit(
                0, "request", {"dataset": "toy", "query": "gray transaction"}
            )
            assert pool.cancel(queued.job_id) is True
            payload = queued.result(timeout=10.0)
            assert payload["error_type"] == SearchCancelledError.__name__
            assert "before execution" in payload["error"]
            assert sleeper.result(timeout=10.0)["slept"] == 0.6
            # The worker is unharmed: the next request is served.
            follow_up = pool.submit(
                0, "request", {"dataset": "toy", "query": "gray transaction"}
            ).result(timeout=10.0)
            assert follow_up["error"] is None
            assert follow_up["result"]["answers"]
            assert pool.restarts() == {0: 0}

    def test_cancel_unknown_job_is_false(self, toy_snapshot):
        with WorkerPool({0: {"toy": toy_snapshot}}) as pool:
            pool.submit(0, "state").result(timeout=300.0)
            assert pool.cancel(987654) is False

    def test_every_pending_cancel_is_honoured(self, toy_snapshot):
        """Any number of cancels can be pending on one worker at once:
        each request cancelled while queued is answered without a
        search.  (A 32-slot ring used to overwrite the oldest: of 40,
        8 ran to completion after ``cancel()`` had returned True.)"""

        def searched(pool):
            export = pool.submit(0, "metrics").result(timeout=10.0)
            return family_total(export, "repro_requests_total")

        with WorkerPool({0: {"toy": toy_snapshot}}) as pool:
            pool.submit(0, "state").result(timeout=300.0)
            before = searched(pool)
            sleeper = pool.submit(0, "sleep", 0.6)
            queued = [
                pool.submit(
                    0,
                    "request",
                    {"dataset": "toy", "query": "gray transaction", "use_cache": False},
                )
                for _ in range(40)
            ]
            assert all(pool.cancel(future.job_id) for future in queued)
            assert not sleeper.done(), "the worker was meant to be busy still"
            for future in queued:
                payload = future.result(timeout=10.0)
                assert payload["error_type"] == SearchCancelledError.__name__
                assert payload["error"] == "request cancelled before execution"
            assert searched(pool) == before

    def test_concurrent_submitters_and_cancellers_lose_no_cancel(self, toy_snapshot):
        """More threads than cores submit and at once cancel against a
        busy worker, switching between any two bytecodes: one channel
        carries them all, each cancel behind its request, and the
        worker's reader thread and serving loop share one set — a lost
        or misplaced cancel shows as a request that ran."""
        futures = []

        def hammer(pool):
            for _ in range(25):
                future = pool.submit(
                    0,
                    "request",
                    {"dataset": "toy", "query": "gray transaction", "use_cache": False},
                )
                assert pool.cancel(future.job_id) is True
                futures.append(future)

        with WorkerPool({0: {"toy": toy_snapshot}}) as pool:
            pool.submit(0, "state").result(timeout=300.0)
            sleeper = pool.submit(0, "sleep", 0.6)
            threads = [threading.Thread(target=hammer, args=(pool,)) for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not sleeper.done(), "the worker was meant to be busy still"
            assert len(futures) == 200
            for future in futures:
                payload = future.result(timeout=10.0)
                assert payload["error"] == "request cancelled before execution"

    def test_a_cancel_leaves_nothing_behind_in_the_worker(self):
        """The worker forgets a cancelled id once the loop passes the
        cancel message — behind the request it names, so after the
        answer — whether the cancel came in time or lost the race."""
        wire = queue.SimpleQueue()
        inbox = _Inbox(SimpleNamespace(recv=wire.get))
        wire.put(("request", 1, {}))
        assert inbox.get() == ("request", 1, {})  # ...answered, and only then:
        wire.put(("cancel", 1))
        wire.put(("request", 2, {}))
        wire.put(("cancel", 2))  # this one in time, while 2 is queued
        wire.put(("state", 3))
        assert inbox.get() == ("request", 2, {})
        deadline = time.monotonic() + 5.0
        while inbox.cancelled != {2} and time.monotonic() < deadline:
            time.sleep(0.001)
        assert inbox.cancelled == {2}  # what the request's token probes
        assert inbox.get() == ("state", 3)
        assert inbox.cancelled == set()
        wire.put(("stop",))
        assert inbox.get() == ("stop",)

    def test_worker_reads_a_vanished_supervisor_as_stop(self):
        def recv():
            raise EOFError

        assert _Inbox(SimpleNamespace(recv=recv)).get() == ("stop",)


# ----------------------------------------------------------------------
# sharded-service level
# ----------------------------------------------------------------------
class TestShardedCancel:
    def test_cancel_leaves_sibling_requests_untouched(self, toy_snapshot):
        """Cancelling one in-flight request must not perturb its
        neighbours on the same worker — not their results, and not the
        worker process itself."""
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=1
        ) as service:
            service.warmup()
            baseline = service.search("toy", "gray transaction", use_cache=False)
            assert baseline.ok

            # Occupy the single worker so the cancellable request is
            # deterministically still pending when cancel() lands.
            sleeper = service.pool.submit(0, "sleep", 0.5)
            box = {}

            def run():
                box["response"] = service.search(
                    QueryRequest(
                        "toy",
                        "gray transaction",
                        use_cache=False,
                        request_id="doomed",
                        allow_partial=True,
                    )
                )

            thread = threading.Thread(target=run)
            thread.start()
            cancelled = False
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not cancelled:
                cancelled = service.cancel("doomed")
                time.sleep(0.01)
            assert cancelled
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert box["response"].error_type == SearchCancelledError.__name__

            sleeper.result(timeout=10.0)
            sibling = service.search("toy", "gray transaction", use_cache=False)
            assert sibling.ok
            assert sibling.result.scores() == baseline.result.scores()
            assert sibling.result.complete
            assert service.pool.restarts() == {0: 0}

    def test_mid_search_deadline_returns_partial_from_worker(
        self, dblp_snapshot
    ):
        with ShardedQueryService(
            {"dblp": dblp_snapshot}, num_workers=1
        ) as service:
            service.warmup()
            start = time.monotonic()
            response = service.search(
                QueryRequest(
                    "dblp",
                    "database james john",
                    algorithm="mi-backward",  # runs for seconds uncancelled
                    use_cache=False,
                    timeout=0.2,
                    allow_partial=True,
                    params=SearchParams(cancel_check_interval=1),
                )
            )
            elapsed = time.monotonic() - start
            assert response.error_type == DeadlineExceededError.__name__
            assert response.result is not None
            assert response.result.complete is False
            # Whichever source fired first — the worker's own deadline
            # token or the supervisor's cancel message — the *cause* is
            # surfaced as DeadlineExceededError above.
            assert response.result.cancel_reason in ("deadline", "cancelled")
            # The shard was freed near the deadline, not after the
            # multi-second search it would have run to completion.
            assert elapsed < 1.5
            # And the fleet keeps serving, unrestarted.
            assert service.search("dblp", "database query").ok
            assert service.pool.restarts() == {0: 0}
            # The worker-side service recorded the cancellation in the
            # merged cluster metrics (under whichever reason won the
            # race between deadline token and cancel message).
            cancellations = service.metrics()["cancellations"]
            assert (
                cancellations["deadline_exceeded"] + cancellations["cancelled"]
                >= 1
            )

    def test_deadline_expired_while_queued_never_searches(self, toy_snapshot):
        with ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=1
        ) as service:
            service.warmup()
            response = service.search(
                QueryRequest(
                    "toy",
                    "gray transaction",
                    use_cache=False,
                    timeout=1e-6,
                    allow_partial=True,
                )
            )
            # The supervisor's backstop cancelled it down the channel
            # before the worker ever started searching; the cause
            # (deadline) is surfaced, not the mechanism.
            assert response.error_type == DeadlineExceededError.__name__
            assert service.search("toy", "gray transaction").ok

    def test_cancel_unknown_request_id_is_false(self, sharded):
        assert sharded.cancel("nobody-home") is False


# ----------------------------------------------------------------------
# HTTP: DELETE /search/<id>, 499 mapping, disconnect watcher plumbing
# ----------------------------------------------------------------------
class GatedEngine:
    def __init__(self):
        self.params = SearchParams(cancel_check_interval=1)
        self.gate = threading.Event()
        self.started = threading.Event()
        self.cancelled = threading.Event()

    def search(self, query, *, algorithm, params, explain=False, token=None):
        self.started.set()
        result = SearchResult(
            algorithm=algorithm, keywords=("slow",), stats=SearchStats()
        )
        while not self.gate.is_set():
            if token is not None and token.tick():
                result.complete = False
                result.cancel_reason = token.reason
                self.cancelled.set()
                break
            time.sleep(0.002)
        result.stats.finish()
        return result


@pytest.fixture
def gated_server(toy_engine_session):
    engine = GatedEngine()
    service = QueryService()
    service.register_engine("toy", toy_engine_session)
    service.register_engine("slow", engine)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, engine
    engine.gate.set()
    server.shutdown()
    server.server_close()
    service.close(wait=False)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _request(server, path, method, obj=None):
    data = json.dumps(obj).encode("utf-8") if obj is not None else None
    request = urllib.request.Request(
        _url(server, path),
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHTTPCancel:
    def test_status_mapping(self):
        assert status_for_error(SearchCancelledError.__name__) == 499

    def test_delete_unknown_id_reports_not_cancelled(self, gated_server):
        server, _ = gated_server
        status, body = _request(server, "/search/no-such-id", "DELETE")
        assert status == 200
        assert body == {"request_id": "no-such-id", "cancelled": False}

    def test_delete_route_requires_id(self, gated_server):
        server, _ = gated_server
        status, body = _request(server, "/search/", "DELETE")
        assert status == 404

    def test_delete_cancels_inflight_search(self, gated_server):
        server, engine = gated_server
        box = {}

        def run():
            box["status"], box["body"] = _request(
                server,
                "/search",
                "POST",
                {
                    "dataset": "slow",
                    "query": "anything",
                    "request_id": "http-doomed",
                    "allow_partial": True,
                },
            )

        thread = threading.Thread(target=run)
        thread.start()
        assert engine.started.wait(5.0)
        deadline = time.monotonic() + 5.0
        cancelled = False
        while time.monotonic() < deadline and not cancelled:
            _, body = _request(server, "/search/http-doomed", "DELETE")
            cancelled = body["cancelled"]
            time.sleep(0.01)
        assert cancelled
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert box["status"] == 499
        assert box["body"]["error_type"] == SearchCancelledError.__name__
        assert box["body"]["result"]["complete"] is False

    # -- a vanished client's search is cancelled; a live one's is not --
    SLOW = {"dataset": "slow", "query": "anything", "allow_partial": True}

    def test_client_hangup_mid_search_cancels_it(self, gated_server):
        server, engine = gated_server
        client = RawHTTP(server)
        client.send(RawHTTP.frame("POST", "/search", self.SLOW))
        assert engine.started.wait(5.0)
        assert not engine.cancelled.is_set()
        client.close()  # nobody is left to read the answer
        assert engine.cancelled.wait(5.0)
        # The 499 is written to a dead socket; the connection's two
        # threads end with it.
        assert wait_until(lambda: not http_threads()), http_threads()

    def test_hangup_on_a_kept_alive_connection_cancels_its_second_search(
        self, gated_server
    ):
        """The watcher is armed per search, not spent by the first."""
        server, engine = gated_server
        client = RawHTTP(server)
        status, _, _ = client.request(
            "POST", "/search", {"dataset": "toy", "query": "gray transaction"}
        )
        assert status == 200 and not engine.started.is_set()
        client.send(RawHTTP.frame("POST", "/search", self.SLOW))
        assert engine.started.wait(5.0)
        client.close()
        assert engine.cancelled.wait(5.0)

    def test_live_client_with_pipelined_bytes_is_not_cancelled(self, gated_server):
        server, engine = gated_server
        with RawHTTP(server) as client:
            client.send(
                RawHTTP.frame("POST", "/search", self.SLOW)
                + RawHTTP.frame("GET", "/healthz")
            )
            assert engine.started.wait(5.0)
            time.sleep(0.3)  # six polls of the watcher
            assert not engine.cancelled.is_set()
            engine.gate.set()
            first, second = client.response(), client.response()
        assert first[0] == 200 and json.loads(first[2])["result"]["complete"] is True
        assert second[0] == 200

    def test_cancelled_search_answers_499_with_a_length_and_keeps_the_connection(
        self, gated_server
    ):
        server, engine = gated_server
        with RawHTTP(server) as client, RawHTTP(server) as other:
            client.send(
                RawHTTP.frame("POST", "/search", {**self.SLOW, "request_id": "doomed"})
            )
            assert engine.started.wait(5.0)
            assert wait_until(
                lambda: json.loads(other.request("DELETE", "/search/doomed")[2])[
                    "cancelled"
                ]
            )
            status, headers, body = client.response()
            assert status == 499 and int(headers["content-length"]) == len(body)
            assert headers["x-request-id"] == "doomed"
            assert json.loads(body)["error_type"] == SearchCancelledError.__name__
            assert client.request("GET", "/healthz")[0] == 200  # same connection
