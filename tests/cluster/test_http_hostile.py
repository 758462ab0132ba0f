"""Hostile bytes at the HTTP reader (ROADMAP adversarial tier (c)).

``cluster.http`` parses requests itself, so the parser is a trust
boundary: whatever arrives — noise, truncated heads, oversized lines,
ten thousand headers, bare ``\\n`` line ends, a body shorter than its
``Content-Length`` followed by a hang-up — every reply must be a
well-formed status line + ``Content-Length`` + JSON ``{"error",
"error_type"}`` (or the route's own answer when the bytes happen to be a
request), or a clean close; no handler thread may end in an unhandled
exception; and the next connection must be served.
"""

import json
import socket
import threading
import traceback

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.http import make_server
from repro.service.service import QueryService

from tests.helpers import RawHTTP, http_threads, wait_until


@pytest.fixture(scope="module")
def hostile_server(toy_engine_session):
    service = QueryService()
    service.register_engine("toy", toy_engine_session)
    server = make_server(service)
    server.unhandled = []
    server.handle_error = lambda request, address: server.unhandled.append(
        traceback.format_exc()
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    assert wait_until(lambda: not http_threads()), http_threads()


def exchange(server, payload: bytes) -> list[tuple[int, dict, bytes]]:
    """Send ``payload``, hang up the sending side, and read to EOF:
    the replies, each checked for framing by ``RawHTTP.response``."""
    with RawHTTP(server, timeout=10.0) as client:
        try:
            client.send(payload)
            client.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused and closed while we were still sending
        replies = []
        while (reply := client.response()) is not None:
            replies.append(reply)
    return replies


def check(server, payload: bytes) -> list[int]:
    replies = exchange(server, payload)
    for status, headers, body in replies:
        if status == 100:  # the interim answer to ``Expect: 100-continue``
            continue
        assert 200 <= status < 600
        if headers["content-type"] == "application/json":
            answer = json.loads(body)
            if status >= 400 and "error_type" in answer:
                assert isinstance(answer["error"], str) and answer["error"]
                assert isinstance(answer["error_type"], str)
    assert server.unhandled == [], server.unhandled[0]
    with RawHTTP(server) as probe:  # and the next connection is served
        assert probe.request("GET", "/healthz")[0] == 200
    return [status for status, _, _ in replies]


# ----------------------------------------------------------------------
# the named shapes, one by one
# ----------------------------------------------------------------------
BODY = json.dumps({"dataset": "toy", "query": "gray transaction"}).encode()
POST = b"POST /search HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(BODY)


def refused(server, payload, status):
    assert check(server, payload) == [status]


def test_oversized_request_line_is_414(hostile_server):
    refused(hostile_server, b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n", 414)
    refused(hostile_server, b"G" * 100_000, 414)


def test_oversized_header_block_is_431(hostile_server):
    line = b"X-Pad: " + b"p" * 700 + b"\r\n"
    refused(hostile_server, b"GET /healthz HTTP/1.1\r\n" + line * 99 + b"\r\n", 431)
    one = b"X-Pad: " + b"p" * 70_000 + b"\r\n"
    refused(hostile_server, b"GET /healthz HTTP/1.1\r\n" + one + b"\r\n", 431)


def test_ten_thousand_headers_are_431_and_a_hundred_are_served(hostile_server):
    many = b"".join(b"X-%d: v\r\n" % i for i in range(10_000))
    refused(hostile_server, b"GET /healthz HTTP/1.1\r\n" + many + b"\r\n", 431)
    same = b"A: 1\r\n" * 10_000  # one name: still ten thousand lines
    refused(hostile_server, b"GET /healthz HTTP/1.1\r\n" + same + b"\r\n", 431)
    hundred = b"".join(b"X-%d: v\r\n" % i for i in range(100))
    assert check(hostile_server, b"GET /healthz HTTP/1.1\r\n" + hundred + b"\r\n") == [
        200
    ]


def test_bare_newline_line_ends_are_served(hostile_server):
    head = b"POST /search HTTP/1.1\nContent-Length: %d\n\n" % len(BODY)
    assert check(hostile_server, head + BODY) == [200]


def test_truncated_heads_and_short_bodies_close_cleanly(hostile_server):
    for cut in (1, 10, len(POST) - 3, len(POST) - 1, len(POST), len(POST) + 5):
        assert check(hostile_server, (POST + BODY)[:cut]) == []
    # A whole request, then half of the next: one answer, then the close.
    assert check(hostile_server, POST + BODY + POST[:20]) == [200]


def test_garbage_request_lines_are_400(hostile_server):
    for line in (b"\r\n", b"GET\r\n", b"GET /healthz\r\n", b"GET / HTTP/1.1 extra\r\n",
                 b"GET /healthz HTTP/2.0\r\n", b"GET /healthz FTP/1.1\r\n"):
        refused(hostile_server, line + b"\r\n", 400)
    refused(hostile_server, b"\x00\xff\xfe /x HTTP/1.1\r\n\r\n", 501)  # a method, unknown
    for header in (b"no colon here\r\n", b": empty name\r\n", b" folded: x\r\n"):
        expected = 200 if header.startswith(b" folded") else 400
        payload = b"GET /healthz HTTP/1.1\r\n" + header + b"\r\n"
        assert check(hostile_server, payload) == [expected]


# ----------------------------------------------------------------------
# and whatever hypothesis finds between them
# ----------------------------------------------------------------------
TOKENS = st.sampled_from(
    [b"GET", b"POST", b"DELETE", b"PUT", b"HEAD", b"", b"get", b"\x00", b"__class__"]
)
TARGETS = st.one_of(
    st.sampled_from([b"/healthz", b"/search", b"/batch", b"/mutate", b"/metrics?format=x",
                     b"/search/", b"/debug/trace/", b"*", b"http://h/healthz", b""]),
    st.integers(1, 3).flatmap(lambda n: st.just(b"/" + b"a" * (n * 4100))),
    st.binary(max_size=40),
)
VERSIONS = st.sampled_from(
    [b"HTTP/1.1", b"HTTP/1.0", b"HTTP/1.", b"HTTP/2.0", b"HTTP/0.9", b"", b"HTTP/1.1 x"]
)
EOLS = st.sampled_from([b"\r\n", b"\n", b"\r", b"\r\r\n", b""])
HEADER_NAMES = st.one_of(
    st.sampled_from([b"Content-Length", b"content-length", b"Transfer-Encoding",
                     b"Connection", b"Expect", b"Host", b"", b" X", b"X Y"]),
    st.binary(max_size=12),
)
HEADER_VALUES = st.one_of(
    st.sampled_from([b"0", b"2", b"-1", b"99999999999", b"1e3", b" 2 ", b"chunked",
                     b"close", b"keep-alive", b"100-continue", b"", b"2, 2"]),
    st.integers(0, 200).map(lambda n: b"%d" % n),
    st.binary(max_size=24),
)
HEADERS = st.lists(
    st.tuples(HEADER_NAMES, st.sampled_from([b":", b": ", b"", b" : "]), HEADER_VALUES),
    max_size=6,
)
BODIES = st.one_of(
    st.just(BODY), st.just(b"{}"), st.just(b"[1"), st.binary(max_size=64),
    st.just(b'{"dataset": "toy", "mutations": [{"op": "nope"}]}'),
)


@st.composite
def requests(draw):
    eol = draw(EOLS)
    parts = [draw(TOKENS), b" ", draw(TARGETS), b" ", draw(VERSIONS), eol]
    for name, colon, value in draw(HEADERS):
        parts += [name, colon, value, draw(st.sampled_from([eol, b"\r\n"]))]
    parts += [draw(st.sampled_from([eol, b"\r\n", b""])), draw(BODIES)]
    payload = b"".join(parts)
    if draw(st.booleans()):  # truncated anywhere: head, header, body
        payload = payload[: draw(st.integers(0, len(payload)))]
    return payload


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.one_of(requests(), st.binary(max_size=300)), min_size=1, max_size=3))
@example([POST + BODY, POST + BODY])
@example([b"POST /search HTTP/1.1\r\nContent-Length: 5\r\n\r\n{}"])
@example([b"POST /search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"])
@example([b"POST /batch HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n{}"])
def test_arbitrary_bytes_get_wellformed_replies_or_a_clean_close(hostile_server, parts):
    check(hostile_server, b"".join(parts))
