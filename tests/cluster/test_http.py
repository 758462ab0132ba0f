"""HTTP front-end: routes, status mapping, batch slots, health — and
the transport under them: persistent connections, the bounded reader,
one write per response."""

import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import ShardedQueryService
from repro.cluster import http as http_module
from repro.cluster.http import make_server, status_for_error
from repro.service.service import QueryService

from tests.helpers import RawHTTP, http_threads, wait_until


@pytest.fixture(scope="module")
def http_service(toy_engine_session):
    service = QueryService()
    service.register_engine("toy", toy_engine_session)
    with service:
        yield service


@pytest.fixture(scope="module")
def server(http_service):
    server = make_server(http_service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    try:
        with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(server, path, obj):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_search_ok(server, toy_engine_session):
    status, body = _post(
        server, "/search", {"dataset": "toy", "query": "gray transaction", "k": 3}
    )
    assert status == 200
    assert body["error"] is None
    local = toy_engine_session.search("gray transaction", k=3)
    assert [a["tree"]["score"] for a in body["result"]["answers"]] == local.scores()


def test_search_error_statuses(server):
    assert _post(server, "/search", {"dataset": "nope", "query": "x"})[0] == 404
    status, body = _post(server, "/search", {"dataset": "toy", "query": "zzznope"})
    assert status == 404
    assert body["error_type"] == "KeywordNotFoundError"
    # Malformed request object: 400 with a structured body.
    status, body = _post(server, "/search", {"bogus": 1})
    assert status == 400
    assert body["error_type"] == "ValueError"


def test_bad_json_and_unknown_route(server):
    request = urllib.request.Request(
        _url(server, "/search"), data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert _post(server, "/nope", {})[0] == 404
    # There is no profiler or dashboard route: those paths get the
    # router's JSON 404 like any unknown path.
    for path in ("/nope", "/debug/profile", "/debug/dashboard"):
        status, body = _get(server, path)
        assert status == 404, path
        assert body["error_type"] == "NotFoundError", path


def test_batch_keeps_slots(server):
    status, body = _post(
        server,
        "/batch",
        {
            "requests": [
                {"dataset": "toy", "query": "gray transaction"},
                {"oops": True},
                {"dataset": "toy", "query": "zzznope"},
            ]
        },
    )
    assert status == 200  # per-item errors live inside the slots
    responses = body["responses"]
    assert len(responses) == 3
    assert responses[0]["error"] is None
    assert responses[1]["error_type"] == "ValueError"
    assert responses[2]["error_type"] == "KeywordNotFoundError"

    status, body = _post(server, "/batch", {"nope": 1})
    assert status == 400


def test_metrics_and_healthz(server):
    status, body = _get(server, "/metrics")
    assert status == 200
    assert body["requests_total"] >= 1
    status, body = _get(server, "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["datasets"] == ["toy"]


def test_healthz_reports_fleet_state(server, sharded):
    # Swap the bound service for the sharded tier: same facade, and
    # healthz now carries fleet liveness.
    original = server.service
    try:
        server.service = sharded
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["workers"] == 2
        assert body["alive"] == 2
        status, body = _post(
            server, "/search", {"dataset": "alpha", "query": "gray transaction"}
        )
        assert status == 200
        assert body["error"] is None
    finally:
        server.service = original


def test_healthz_is_503_for_a_replica_that_did_not_load(
    server, sharded, toy_snapshot, tmp_path
):
    """A replica that could not load its snapshot fails every search,
    and /healthz says so; a healthy fleet still answers 200."""
    truncated = tmp_path / "truncated.snap"
    truncated.write_bytes(toy_snapshot.read_bytes()[: toy_snapshot.stat().st_size // 2])
    original = server.service
    with ShardedQueryService({"toy": truncated}, num_workers=1) as unloaded:
        unloaded.dataset_versions()  # the worker is up, and stays up
        try:
            server.service = unloaded
            status, body = _get(server, "/healthz")
            assert (status, body["status"]) == (503, "degraded")
            assert body["unloaded"] == ["toy"]
            assert body["alive"] == body["workers"] == 1
            server.service = sharded
            status, body = _get(server, "/healthz")
            assert (status, body["status"], body["unloaded"]) == (200, "ok", [])
        finally:
            server.service = original


BAD_PARAMS = [
    # ill-typed JSON values: never a TypeError 500 from inside a
    # worker, never a fraction or a boolean silently searched with
    ({"dmax": "8"}, "dmax"),
    ({"mu": "x"}, "mu"),
    ({"max_results": 2.5}, "max_results"),
    ({"node_budget": 10.5}, "node_budget"),
    ({"cancel_check_interval": 1.5}, "cancel_check_interval"),
    ({"dmax": True}, "dmax"),
    # removed spellings and knobs
    ({"expansion_backend": "vectorized"}, "expansion_backend"),
    ({"expansion_batch": 64}, "expansion_batch"),
    ({"frontier_balance": "fanout"}, "frontier_balance"),
    ({"tie_alternates": False}, "tie_alternates"),
    ({"flush_interval": 16}, "flush_interval"),
    ({"lam": 0.5}, "lam"),
    ({"activation_combine": "sum"}, "activation_combine"),
    ({"max_combos_per_node": 8}, "max_combos_per_node"),
    ({"trace_every_n_pops": 1}, "trace_every_n_pops"),
]


@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_bad_params_are_structured_400s_on_both_tiers(server, sharded, tier):
    original = server.service
    service, dataset = (original, "toy") if tier == "thread" else (sharded, "alpha")
    try:
        server.service = service
        before = service.metrics()["requests_total"]
        for params, field in BAD_PARAMS:
            body = {"dataset": dataset, "query": "gray transaction", "params": params}
            status, reply = _post(server, "/search", body)
            assert status == 400, (params, status, reply)
            assert reply["error_type"] == "ValueError"
            assert field in reply["error"]
            # in a batch the bad slot fails alone
            status, reply = _post(
                server,
                "/batch",
                {"requests": [body, {"dataset": dataset, "query": "gray transaction"}]},
            )
            assert status == 200
            assert reply["responses"][0]["error_type"] == "ValueError"
            assert field in reply["responses"][0]["error"]
            assert reply["responses"][1]["error"] is None
        # None of the bad bodies reached a search: only the batches'
        # good slots were counted.
        assert service.metrics()["requests_total"] == before + len(BAD_PARAMS)
        status, reply = _post(
            server,
            "/search",
            {
                "dataset": dataset,
                "query": "gray transaction",
                "params": {"output_mode": "heuristic"},
            },
        )
        assert status == 200 and reply["error"] is None
    finally:
        server.service = original


def _get_raw(server, path):
    """Like ``_get`` but also returns headers and the raw body text."""
    try:
        with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode("utf-8")


def _post_raw(server, path, obj):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read().decode("utf-8")


def test_search_returns_trace_and_request_id_headers(server):
    status, headers, body = _post_raw(
        server,
        "/search",
        {"dataset": "toy", "query": "gray", "request_id": "req-http-1"},
    )
    assert status == 200
    payload = json.loads(body)
    trace_id = headers.get("X-Trace-Id")
    assert trace_id and len(trace_id) == 32
    assert headers.get("X-Request-Id") == "req-http-1"
    assert payload["trace_id"] == trace_id
    assert payload["request_id"] == "req-http-1"
    # Span payloads never ride the response body; trees are read via
    # /debug/trace/<id>.
    assert payload["spans"] is None


def test_error_responses_still_carry_trace_header(server):
    status, headers, _ = _post_raw(
        server, "/search", {"dataset": "nope", "query": "x"}
    )
    assert status == 404
    assert headers.get("X-Trace-Id")


def test_debug_trace_reconstructs_http_rooted_tree(server):
    # use_cache=False: a hit is answered by a cache span, not a worker.
    _, headers, _ = _post_raw(
        server,
        "/search",
        {"dataset": "toy", "query": "gray transaction", "use_cache": False},
    )
    trace_id = headers["X-Trace-Id"]
    status, tree = _get(server, f"/debug/trace/{trace_id}")
    assert status == 200
    assert tree["trace_id"] == trace_id
    (root,) = tree["roots"]
    assert root["name"] == "http"
    assert root["attributes"]["path"] == "/search"
    child_names = {child["name"] for child in root["children"]}
    assert "worker" in child_names


def test_debug_trace_unknown_id_is_404(server):
    assert _get(server, "/debug/trace/" + "0" * 32)[0] == 404


def test_debug_slow_lists_flight_recorded_queries(server, http_service):
    original = http_service.slow_log.threshold
    http_service.slow_log.threshold = 0.0
    try:
        _, headers, _ = _post_raw(
            server, "/search", {"dataset": "toy", "query": "selinger"}
        )
        status, body = _get(server, "/debug/slow")
        assert status == 200
        assert len(body["slow_queries"]) >= 1
        entry = body["slow_queries"][0]
        assert entry["trace_id"] == headers["X-Trace-Id"]
        assert entry["span_tree"]["span_count"] >= 1
    finally:
        http_service.slow_log.threshold = original
        http_service.slow_log._entries.clear()


def test_metrics_prometheus_exposition(server):
    _post_raw(server, "/search", {"dataset": "toy", "query": "gray"})
    status, headers, text = _get_raw(server, "/metrics?format=prometheus")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    assert "# TYPE repro_requests_total counter" in text
    assert "# TYPE repro_request_latency_seconds histogram" in text
    # Every sample line is ``name{labels} value``.
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)
        assert name_part


def test_metrics_unknown_format_is_400(server):
    status, body = _get(server, "/metrics?format=xml")
    assert status == 400
    assert body["error_type"] == "ValueError"


def test_debug_trace_text_format_renders_span_tree(server):
    _, headers, _ = _post_raw(
        server,
        "/search",
        {"dataset": "toy", "query": "gray transaction", "use_cache": False},
    )
    trace_id = headers["X-Trace-Id"]
    status, resp_headers, text = _get_raw(
        server, f"/debug/trace/{trace_id}?format=text"
    )
    assert status == 200
    assert resp_headers["Content-Type"].startswith("text/plain")
    assert text.startswith("http")  # the root span, children indented
    assert "path=/search" in text
    assert "worker" in text


def test_debug_trace_unknown_format_is_400(server):
    status, _ = _get(server, "/debug/trace/" + "0" * 32 + "?format=xml")
    assert status == 400


def test_debug_events_incremental_polling(server, http_service):
    http_service.event_log.emit(
        "probe", "http tier event", severity="warning", dataset="toy"
    )
    status, body = _get(server, "/debug/events?since=0")
    assert status == 200
    seqs = [event["seq"] for event in body["events"]]
    assert seqs == sorted(seqs) and seqs
    assert body["last_seq"] == seqs[-1]
    kinds = {event["kind"] for event in body["events"]}
    assert "probe" in kinds
    # Nothing new past the head.
    status, body = _get(server, f"/debug/events?since={body['last_seq']}")
    assert status == 200
    assert body["events"] == []


def test_debug_events_bad_since_is_400(server):
    assert _get(server, "/debug/events?since=abc")[0] == 400


@pytest.mark.parametrize("tier", ["thread", "fleet"])
def test_debug_trace_and_explain_are_501_when_off_404_when_unknown(
    server, sharded, toy_engine_session, toy_snapshot, tier
):
    if tier == "thread":
        enabled = server.service
        disabled = QueryService(tracing=False, accounting=False)
        disabled.register_engine("toy", toy_engine_session)
    else:
        enabled = sharded
        disabled = ShardedQueryService(
            {"toy": toy_snapshot}, num_workers=1, tracing=False, accounting=False
        )
    original = server.service
    try:
        with disabled:
            for service, expected in ((enabled, 404), (disabled, 501)):
                server.service = service
                assert _get(server, "/debug/trace/no-such-id")[0] == expected
                assert _get(server, "/debug/explain/no-such-id")[0] == expected
            assert "tracing" in _get(server, "/debug/trace/no-such-id")[1]["error"]
            assert "accounting" in _get(server, "/debug/explain/no-such-id")[1]["error"]
            # Nothing sketches with accounting off: empty-shaped, not an error.
            assert _get(server, "/debug/queries") == (
                200,
                {"capacity": 0, "total": 0, "floor": 0, "entries": []},
            )
    finally:
        server.service = original


def test_status_for_error_mapping():
    assert status_for_error(None) == 200
    assert status_for_error("UnknownDatasetError") == 404
    assert status_for_error("KeywordNotFoundError") == 404
    assert status_for_error("EmptyQueryError") == 400
    assert status_for_error("DeadlineExceededError") == 504
    assert status_for_error("WorkerCrashedError") == 503
    assert status_for_error("SomethingElse") == 500


# ----------------------------------------------------------------------
# transport: persistent connections over a raw socket
# ----------------------------------------------------------------------
SEARCH = {"dataset": "toy", "query": "gray transaction"}


@pytest.fixture
def own_server(http_service):
    """A server of this test's own, so thread and accept counts are its."""
    assert wait_until(lambda: not http_threads()), http_threads()
    server = make_server(http_service)
    accepted = []
    process_request = server.process_request

    def counting(request, address):
        accepted.append(address)
        process_request(request, address)

    server.process_request, server.accepted = counting, accepted
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(5.0)
    assert wait_until(lambda: not http_threads()), http_threads()


def test_requests_on_one_connection_share_one_socket_and_one_thread(own_server):
    with RawHTTP(own_server) as client:
        for i in range(6):
            status, headers, body = client.request(
                "POST", "/search", {**SEARCH, "request_id": f"keep-{i}"}
            )
            assert status == 200 and json.loads(body)["error"] is None
            assert headers["connection"] == "keep-alive"
            assert headers["x-request-id"] == f"keep-{i}"
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("DELETE", "/search/keep-0")[0] == 200
        assert len(own_server.accepted) == 1
        # One handler thread, and one watcher for the connection: not a
        # thread per request and a watcher per search.
        assert wait_until(
            lambda: http_threads()
            == ["repro-http-connection", "repro-http-disconnect-watch"]
        ), http_threads()
    assert wait_until(lambda: not http_threads()), http_threads()


def test_a_connection_that_never_searches_has_no_watcher(own_server):
    with RawHTTP(own_server) as client:
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("GET", "/metrics")[0] == 200
        assert http_threads() == ["repro-http-connection"]


def test_later_requests_on_a_connection_do_not_wait_for_a_delayed_ack(own_server):
    """Headers and body written separately on a kept-alive connection:
    Nagle holds the body until the client ACKs the headers, and the
    client delays that ACK 40 ms.  One write per response, TCP_NODELAY."""
    with RawHTTP(own_server) as client:
        assert client.request("POST", "/search", SEARCH)[0] == 200  # fills the cache
        seconds = []
        for _ in range(9):
            began = time.perf_counter()
            assert client.request("POST", "/search", SEARCH)[0] == 200
            seconds.append(time.perf_counter() - began)
    assert statistics.median(seconds) < 0.02, seconds


def test_pipelined_requests_are_answered_in_order(own_server):
    with RawHTTP(own_server) as client:
        client.send(
            RawHTTP.frame("POST", "/search", {**SEARCH, "request_id": "first"})
            + RawHTTP.frame("GET", "/nope")
            + RawHTTP.frame("POST", "/search", {**SEARCH, "request_id": "third"})
        )
        first, second, third = client.response(), client.response(), client.response()
    assert (first[0], first[1]["x-request-id"]) == (200, "first")
    assert second[0] == 404
    assert (third[0], third[1]["x-request-id"]) == (200, "third")
    assert len(own_server.accepted) == 1


@pytest.mark.parametrize(
    "kwargs",
    [{"headers": ("Connection: close",)}, {"version": "HTTP/1.0"},
     {"version": "HTTP/1.0", "headers": ("Connection: keep-alive",)}],
    ids=["connection-close", "http-1.0", "http-1.0-keep-alive"],
)
def test_close_requested_or_implied_ends_the_connection(own_server, kwargs):
    with RawHTTP(own_server) as client:
        status, headers, body = client.request("POST", "/search", SEARCH, **kwargs)
        assert status == 200 and json.loads(body)["error"] is None
        assert headers["connection"] == "close"
        assert client.closed_by_server()


def test_expect_100_continue_is_answered_before_the_body(own_server):
    body = json.dumps(SEARCH).encode()
    with RawHTTP(own_server) as client:
        client.send(
            b"POST /search HTTP/1.1\r\nExpect: 100-continue\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        assert client.response()[0] == 100
        client.send(body)
        assert client.response()[0] == 200


def test_idle_connections_are_hung_up_after_the_timeout(own_server, monkeypatch):
    monkeypatch.setattr(http_module, "_IDLE_TIMEOUT_SECONDS", 0.2)
    with RawHTTP(own_server) as used, RawHTTP(own_server) as silent:
        with RawHTTP(own_server) as stalled:
            assert used.request("GET", "/healthz")[0] == 200
            stalled.send(b"POST /search HTTP/1.1\r\nContent-Le")  # and no more
            began = time.monotonic()
            assert used.closed_by_server() and silent.closed_by_server()
            assert stalled.closed_by_server()
            assert 0.2 <= time.monotonic() - began < 3.0
    assert wait_until(lambda: not http_threads()), http_threads()


def test_a_running_search_is_not_idle(own_server, monkeypatch):
    """The timeout runs between requests, not across a slow answer."""
    monkeypatch.setattr(http_module, "_IDLE_TIMEOUT_SECONDS", 0.2)
    release = threading.Event()
    service = own_server.service
    monkeypatch.setattr(
        own_server, "service", _SlowMetrics(service, release), raising=False
    )
    with RawHTTP(own_server) as client:
        client.send(RawHTTP.frame("GET", "/metrics"))
        time.sleep(1.0)  # two sweeps of the reaper
        release.set()
        assert client.response()[0] == 200


class _SlowMetrics:
    def __init__(self, service, release):
        self._service, self._release = service, release

    def metrics(self):
        assert self._release.wait(10.0)
        return self._service.metrics()

    def __getattr__(self, name):
        return getattr(self._service, name)


def test_server_close_hangs_up_idle_keep_alive_connections(http_service):
    assert wait_until(lambda: not http_threads()), http_threads()
    server = make_server(http_service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with RawHTTP(server) as searched, RawHTTP(server) as silent:
        assert searched.request("POST", "/search", SEARCH)[0] == 200
        assert wait_until(lambda: len(http_threads()) == 3), http_threads()
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        # Both clients are still connected; neither keeps a thread parked.
        assert wait_until(lambda: not http_threads()), http_threads()
        assert searched.closed_by_server() and silent.closed_by_server()


def test_many_connections_at_once_leave_no_idle_entry_and_no_thread(
    own_server, monkeypatch
):
    """Handler threads and the sweep share ``server.idle``: more clients
    than cores, a short switch interval and a sweep that fires."""
    import sys

    monkeypatch.setattr(http_module, "_IDLE_TIMEOUT_SECONDS", 0.3)
    failures = []

    def client():
        try:
            with RawHTTP(own_server) as conn:
                for i in range(25):
                    method, path = ("GET", "/healthz") if i % 3 else ("POST", "/search")
                    reply = conn.request(method, path, None if i % 3 else SEARCH)
                    assert reply is not None and reply[0] == 200, reply
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert len(own_server.accepted) == 8
    assert wait_until(lambda: not own_server.idle and not http_threads())


# ----------------------------------------------------------------------
# transport: what the reader refuses (each a bug at commit 72ea61a)
# ----------------------------------------------------------------------
@pytest.fixture(params=["thread", "fleet"])
def tier_server(request, server, sharded):
    original = server.service
    server.service = original if request.param == "thread" else sharded
    yield server
    server.service = original


def _refusal(client, raw: bytes):
    client.send(raw)
    reply = client.response()
    assert reply is not None, "closed without an answer"
    status, headers, body = reply
    payload = json.loads(body)
    assert set(payload) == {"error", "error_type"}
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close" and client.closed_by_server()
    return status, payload


def test_negative_content_length_is_a_400_not_a_parked_thread(tier_server):
    """``rfile.read(-1)`` reads until the client goes away."""
    with RawHTTP(tier_server, timeout=3.0) as client:
        status, payload = _refusal(
            client, b"POST /search HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}"
        )
    assert status == 400 and payload["error_type"] == "ValueError"
    assert "Content-Length" in payload["error"]


@pytest.mark.parametrize("length", ["99999999999", "9" * 5000, "1e3", "0x10", "٣"])
def test_content_length_out_of_range_is_refused_without_reading(tier_server, length):
    raw = f"POST /search HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"
    with RawHTTP(tier_server, timeout=3.0) as client:
        status, payload = _refusal(client, raw.encode("utf-8"))
    assert status == (413 if length.isascii() and length.isdigit() else 400)
    assert payload["error_type"] == "ValueError"


def test_conflicting_content_lengths_are_refused(tier_server):
    with RawHTTP(tier_server, timeout=3.0) as client:
        status, _ = _refusal(
            client,
            b"POST /search HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 40\r\n\r\n{}",
        )
    assert status == 400


def test_transfer_encoding_is_refused_and_the_chunks_are_not_a_second_request(
    tier_server,
):
    """Answered "body is empty" with the chunks left on the socket: under
    keep-alive they would be parsed as the next request."""
    smuggled = RawHTTP.frame("GET", "/healthz")
    chunked = (
        b"POST /search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + f"{len(smuggled):x}\r\n".encode() + smuggled + b"\r\n0\r\n\r\n"
    )
    with RawHTTP(tier_server, timeout=3.0) as client:
        status, payload = _refusal(client, chunked)  # one reply, then EOF
    assert status == 501 and payload["error_type"] == "NotImplemented"
    assert "Transfer-Encoding" in payload["error"]


def test_a_refused_sender_reads_its_reply_instead_of_a_reset(server):
    """Closing on unread bytes resets the connection: a client still
    streaming its body would see EPIPE, not the 413 that explains it."""
    for _ in range(5):
        with RawHTTP(server) as client:
            client.send(b"POST /search HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
            for _ in range(8):
                client.send(b"x" * 65536)
                time.sleep(0.001)
            assert client.response()[0] == 413


def test_unsupported_method_is_a_structured_501(tier_server):
    with RawHTTP(tier_server, timeout=3.0) as client:
        status, payload = _refusal(client, RawHTTP.frame("PUT", "/search", SEARCH))
    assert status == 501 and "PUT" in payload["error"]


def test_server_header_does_not_advertise_the_interpreter(tier_server):
    status, headers, _ = _get_raw(tier_server, "/healthz")
    assert status == 200
    assert headers["Server"] == "repro-query-http/1.0"
    assert "Python" not in headers["Server"]
    assert headers["Date"].endswith("GMT")


def test_client_text_in_a_response_header_cannot_split_the_response(server):
    evil = "x\r\nSet-Cookie: owned=1\r\n\r\nHTTP/1.1 200 OK"
    with RawHTTP(server) as client:
        status, headers, body = client.request(
            "POST", "/search", {**SEARCH, "request_id": evil}
        )
        assert status == 200 and "set-cookie" not in headers
        assert json.loads(body)["request_id"] == evil
        assert client.request("GET", "/healthz")[0] == 200  # still in frame


@pytest.mark.parametrize("status", [200, 400, 404, 499, 501, 503, 504])
def test_every_status_has_a_reason_phrase(status):
    assert http_module._PHRASES[status].strip()
