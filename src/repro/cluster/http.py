"""Stdlib HTTP front-end for a query service (ROADMAP follow-up).

``QueryRequest`` / ``QueryResponse`` were wire-shaped from the start —
structured errors, no exceptions across the boundary, JSON-ready
metrics — so the endpoint is a thin translation layer over a
:class:`~repro.service.core.ServiceCore`: a
:class:`~repro.service.QueryService` or a
:class:`~repro.cluster.ShardedQueryService`, served by the same
handlers because the verbs are the core's.  Pure stdlib: one HTTP/1.1
request loop on ``socketserver.ThreadingTCPServer``, so the serving
process loads no ``http.client``, ``email`` or ``ssl`` it never runs.

Connections persist, one thread each, until ``Connection: close``, an
``HTTP/1.0`` request line, a refused request, ``_IDLE_TIMEOUT_SECONDS``
of silence or ``server_close()``.  The reader is bounded (request line,
header block, ``Content-Length`` under a cap; ``Transfer-Encoding`` is
refused, not half-read); every response carries ``Content-Length``.

Routes
------
``POST /search``
    Body: one request object (:func:`repro.service.wire.request_from_dict`
    shape, e.g. ``{"dataset": "dblp", "query": "gray transaction",
    "k": 5}``).  Response: one response object; HTTP status mirrors the
    structured ``error_type`` (404 unknown dataset / absent keyword,
    400 malformed, 504 deadline, 503 crashed worker, 500 otherwise).
``POST /batch``
    Body: ``{"requests": [...], "timeout": seconds?}``.  Always 200:
    per-item errors live inside the response objects, matching
    ``search_many``'s never-raise contract.
``POST /mutate``
    Body: ``{"dataset": name, "mutations": [...]}`` with wire mutation
    dicts (:mod:`repro.live.mutations`).  Applies the batch through the
    service's ``apply`` — on the sharded tier that broadcasts to every
    replica — and returns the commit outcome (new version, assigned
    node ids).  400 for malformed batches, 404 for unknown datasets,
    501 when the service has no live-mutation support.
``DELETE /search/<request_id>``
    Cancel an in-flight search submitted with that ``request_id``.
    The search stops at its next cooperative check; the original
    ``POST /search`` gets its structured cancelled/partial response.
    Always 200 with ``{"cancelled": true|false}`` — cancellation is
    racy by nature, a request that just completed is not an error.
``GET /metrics``
    The service's metrics dict.  ``?format=prometheus`` renders the
    service's telemetry registry as Prometheus text exposition 0.0.4
    (``text/plain``) instead — what a scraper points at.
``GET /healthz``
    ``{"status": "ok", "datasets": [...]}`` plus the service's
    ``health()``: per-dataset versions, and on the sharded tier fleet
    liveness; degrades to 503 when workers are down.
``GET /debug/trace/<trace_id>``
    The reconstructed span tree for one trace.  501 when the service
    has tracing off (``service.tracer is None``), 404 when tracing is
    on and the id is unknown or evicted.
    ``?format=text`` renders the tree as indented plain text
    (:func:`~repro.telemetry.trace.render_span_tree`) instead of JSON.
``GET /debug/slow``
    The slow-query log, newest first, each entry carrying its dumped
    span tree plus its workload ``fingerprint`` and whether an explain
    report is retained for it.
``GET /debug/explain/<request_id>``
    The retained explain report for one ``explain=True`` request.  501
    when the service has accounting off (``service.explain_store is
    None``), 404 when it is on and the id is unknown or evicted.
``GET /debug/queries``
    Workload analytics: the heavy-hitter sketch of query fingerprints
    with per-fingerprint count, latency and cost totals — merged
    across every replica on the sharded tier.
``GET /debug/events``
    The merged structured event stream (worker logs pulled and
    re-sequenced on the sharded tier): ``{"events": [...],
    "last_seq": N}``.  ``?since=<seq>`` returns only events after that
    supervisor sequence number — poll with the last ``last_seq`` you
    saw for an incremental tail.

Tracing: when the service has a tracer, ``POST /search`` mints the
trace at the front door — an ``http`` root span whose id rides the
request into the service — and every search response carries
``X-Trace-Id`` / ``X-Request-Id`` headers (error, deadline and 499
paths included), so a client can fetch ``/debug/trace/<id>`` for any
answer it got.  Span lists are stripped from JSON bodies; trees are
read through the debug endpoint.

Client disconnects map to cancellation: while a ``POST /search`` is
running, the connection's watcher thread (one per connection, armed per
search) peeks the socket; a client that hung up has its search
cancelled (nobody is left to read the answer), freeing the worker.  A
cancelled search's response uses 499, nginx's "client closed request"
convention.

Use :func:`make_server` + ``serve_forever`` in a thread (see
``examples/cluster_quickstart.py``), or :func:`serve` to block.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import socket
import socketserver
import sys
import threading
import time
from dataclasses import replace
from http import HTTPStatus
from typing import Optional
from urllib.parse import parse_qs

from repro.errors import (
    DeadlineExceededError,
    EmptyQueryError,
    KeywordNotFoundError,
    MutationError,
    PoolClosedError,
    ReproError,
    SearchCancelledError,
    UnknownDatasetError,
    WorkerCrashedError,
)
from repro.service.wire import (
    error_response_dict,
    request_from_dict,
    response_to_dict,
)
from repro.telemetry.metrics import render_prometheus
from repro.telemetry.trace import new_trace_id, render_span_tree

__all__ = ["QueryHTTPServer", "make_server", "serve", "status_for_error"]

#: Structured error type -> HTTP status.
_ERROR_STATUS = {
    UnknownDatasetError.__name__: 404,
    KeywordNotFoundError.__name__: 404,
    EmptyQueryError.__name__: 400,
    MutationError.__name__: 400,
    ValueError.__name__: 400,
    TypeError.__name__: 400,
    DeadlineExceededError.__name__: 504,
    SearchCancelledError.__name__: 499,
    WorkerCrashedError.__name__: 503,
    PoolClosedError.__name__: 503,
}

#: Seconds between socket peeks while a search runs.
_DISCONNECT_POLL_SECONDS = 0.05

#: Transport policy: constants, not arguments.  A connection may sit
#: between requests, or inside a half-sent one, for the idle timeout.
_IDLE_TIMEOUT_SECONDS = 30.0
_BACKLOG = 128
_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_MAX_HEADER_LINES = 100
_MAX_BODY_BYTES = 64 * 1024 * 1024
_PHRASES = {s.value: s.phrase for s in HTTPStatus} | {499: "Client Closed Request"}

_internal_ids = itertools.count(1)


def status_for_error(error_type: Optional[str]) -> int:
    """HTTP status for a structured ``QueryResponse.error_type``."""
    if error_type is None:
        return 200
    return _ERROR_STATUS.get(error_type, 500)


class QueryHTTPServer(socketserver.ThreadingTCPServer):
    """A threading HTTP server bound to one query service."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = _BACKLOG

    def __init__(self, address, service, *, quiet: bool = True) -> None:
        self.service = service
        self.quiet = quiet
        self.closing = False
        #: Connections waiting for (or still sending) a request -> since when.
        self.idle: dict[socket.socket, float] = {}
        super().__init__(address, _Handler)

    def service_actions(self) -> None:
        """``serve_forever`` calls this twice a second: hang up on
        connections idle past the timeout — once closing, on all."""
        cutoff = time.monotonic() - (0 if self.closing else _IDLE_TIMEOUT_SECONDS)
        for connection, since in self.idle.copy().items():
            if since <= cutoff:
                with contextlib.suppress(OSError):
                    connection.shutdown(socket.SHUT_RDWR)  # its reader sees EOF

    def server_close(self) -> None:
        """A connection with a request in hand answers it, then leaves."""
        super().server_close()
        self.closing = True
        self.service_actions()


class _Refused(Exception):
    """``(status, message)`` for a request the transport will not read
    to its end: answered, then the connection is closed."""


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # see _send

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def handle(self) -> None:
        threading.current_thread().name = "repro-http-connection"
        self._watched: Optional[str] = None  # request id the watcher may cancel
        self._armed: Optional[threading.Event] = None  # set once a watcher runs
        self._over = False
        try:
            while self._serve_one():
                pass
        except (OSError, EOFError):
            pass  # hung up, between requests or inside one
        finally:
            self._over = True
            if self._armed is not None:
                self._armed.set()

    def _serve_one(self) -> bool:
        """Read one request and answer it; False ends the connection."""
        self.keep_alive, self.method, self.path = False, None, None
        self.server.idle[self.connection] = time.monotonic()
        try:
            if self.server.closing:
                return False
            self._read_request()
        except _Refused as exc:
            status, message = exc.args
            self._send_error_json(
                status, message, "NotImplemented" if status == 501 else "ValueError"
            )
            # The rest of the request may still be arriving, and closing
            # on unread bytes resets the connection and the reply with
            # it: take up to 1 MiB, a second of silence or EOF first.
            self.connection.shutdown(socket.SHUT_WR)
            self.connection.settimeout(1.0)
            self.rfile.read(1 << 20)
            return False
        finally:
            del self.server.idle[self.connection]
        try:
            getattr(self, "do_" + self.method)()
        except ValueError as exc:  # raised by a route: the request was bad
            self._send_error_json(400, str(exc), type(exc).__name__)
        except Exception as exc:  # pragma: no cover - handler backstop
            self._send_error_json(500, str(exc), type(exc).__name__)
        return self.keep_alive

    def _readline(self, limit: int, status: int) -> bytes:
        line = self.rfile.readline(limit + 1)
        if len(line) > limit:
            raise _Refused(status, "request line or header block over its limit")
        if not line.endswith(b"\n"):
            raise EOFError
        return line

    def _read_request(self) -> None:
        """Parse one request into ``method`` / ``path`` / ``body`` /
        ``keep_alive``; :class:`_Refused` for what is malformed, over a
        limit or not spoken here, ``EOFError`` when the client is gone."""
        words = str(self._readline(_MAX_REQUEST_LINE, 414), "iso-8859-1").split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            raise _Refused(400, "expected '<method> <target> HTTP/1.x'")
        headers, budget = {}, _MAX_HEADER_BYTES
        for count in itertools.count():
            line = self._readline(budget, 431)
            budget -= len(line)
            if not line.strip():
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if count == _MAX_HEADER_LINES:
                raise _Refused(431, f"more than {_MAX_HEADER_LINES} header lines")
            if not (colon and name):
                raise _Refused(400, f"malformed header line {line[:80]!r}")
            if headers.setdefault(name, value) != value and name == "content-length":
                raise _Refused(400, "conflicting Content-Length headers")
        if "transfer-encoding" in headers:  # chunks left unread = smuggling
            raise _Refused(501, "Transfer-Encoding is not supported")
        if not hasattr(self, "do_" + words[0]):
            raise _Refused(501, f"unsupported method {words[0]!r}")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _Refused(400, "Content-Length must be a non-negative integer")
        if len(length) > 15 or int(length) > _MAX_BODY_BYTES:
            raise _Refused(413, f"request body over {_MAX_BODY_BYTES} bytes")
        if int(length) and headers.get("expect", "").lower() == "100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.body = self.rfile.read(int(length))
        if len(self.body) < int(length):
            raise EOFError
        self.method, self.path = words[:2]
        self.keep_alive = (
            words[2] != "HTTP/1.0"
            and "close" not in headers.get("connection", "").lower()
        )

    def _send(self, status: int, content_type: str, text: str, headers=()) -> None:
        """Status line, headers and body in **one** write with
        ``TCP_NODELAY``: sent as two, the body waits under Nagle for the
        client's delayed ACK of the headers — 40 ms on every response
        of a kept-alive connection."""
        body = text.encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}",
            "Server: repro-query-http/1.0",
            time.strftime("Date: %a, %d %b %Y %H:%M:%S GMT", time.gmtime()),
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: " + ("keep-alive" if self.keep_alive else "close"),
        ]
        for name, value in dict(headers).items():
            if value is not None:  # may echo client text: no line breaks
                lines.append(" ".join(f"{name}: {value}".splitlines()))
        head = "\r\n".join(lines + ["", ""]).encode("iso-8859-1", "replace")
        self.connection.sendall(head + body)
        if not self.server.quiet:  # pragma: no cover - debugging aid
            print(*self.client_address, self.method, self.path, status, file=sys.stderr)

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        self._send(status, "application/json", json.dumps(payload), headers)

    def _send_error_json(self, status: int, message: str, error_type: str) -> None:
        self._send_json(status, {"error": message, "error_type": error_type})

    def _read_json(self):
        if not self.body:
            raise ValueError("request body is empty; expected a JSON object")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._handle_healthz()
        elif path == "/metrics":
            self._handle_metrics(query)
        elif path.startswith("/debug/trace/") and path != "/debug/trace/":
            self._handle_trace(path[len("/debug/trace/"):], query)
        elif path == "/debug/slow":
            self._send_json(200, {"slow_queries": self.server.service.slow_queries()})
        elif path.startswith("/debug/explain/") and path != "/debug/explain/":
            self._handle_explain(path[len("/debug/explain/"):])
        elif path == "/debug/queries":
            self._send_json(200, self.server.service.query_stats())
        elif path == "/debug/events":
            self._handle_events(query)
        else:
            self._send_error_json(404, f"no route {self.path!r}", "NotFoundError")

    def _handle_metrics(self, query: str) -> None:
        fmt = (parse_qs(query).get("format") or ["json"])[0]
        if fmt not in ("json", "prometheus"):
            raise ValueError(
                f"unknown metrics format {fmt!r}; expected json or prometheus"
            )
        metrics = self.server.service.metrics()
        if fmt == "json":
            self._send_json(200, metrics)
            return
        text = render_prometheus(metrics["registry"])
        self._send(200, "text/plain; version=0.0.4; charset=utf-8", text)

    def _handle_trace(self, trace_id: str, query: str = "") -> None:
        fmt = (parse_qs(query).get("format") or ["json"])[0]
        if fmt not in ("json", "text"):
            raise ValueError(f"unknown trace format {fmt!r}; expected json or text")
        service = self.server.service
        if service.tracer is None:
            self._send_error_json(
                501, "tracing is disabled on this service", "NotImplemented"
            )
            return
        tree = service.trace(trace_id)
        if tree is None:
            self._send_error_json(
                404, f"unknown trace {trace_id!r}", "NotFoundError"
            )
            return
        if fmt == "text":
            self._send(200, "text/plain; charset=utf-8", render_span_tree(tree))
            return
        self._send_json(200, tree)

    def _handle_explain(self, request_id: str) -> None:
        service = self.server.service
        if service.explain_store is None:
            self._send_error_json(
                501, "accounting is disabled on this service", "NotImplemented"
            )
            return
        report = service.explain(request_id)
        if report is None:
            self._send_error_json(
                404,
                f"no explain report for request {request_id!r} (run the "
                f"query with explain=true and a request_id)",
                "NotFoundError",
            )
            return
        self._send_json(200, report)

    def _handle_events(self, query: str) -> None:
        raw = (parse_qs(query).get("since") or ["0"])[0]
        try:
            since = int(raw)
        except ValueError:
            raise ValueError(f'"since" must be an integer, got {raw!r}') from None
        self._send_json(200, self.server.service.events(since))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/search":
            self._handle_search()
        elif self.path == "/batch":
            self._handle_batch()
        elif self.path == "/mutate":
            self._handle_mutate()
        else:
            self._send_error_json(404, f"no route {self.path!r}", "NotFoundError")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        prefix = "/search/"
        if not self.path.startswith(prefix) or self.path == prefix:
            self._send_error_json(404, f"no route {self.path!r}", "NotFoundError")
            return
        request_id = self.path[len(prefix):]
        cancelled = self.server.service.cancel(request_id)
        self._send_json(200, {"request_id": request_id, "cancelled": cancelled})

    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        service = self.server.service
        payload = {"status": "ok", "datasets": service.datasets()}
        payload.update(service.health())
        status = 200
        if payload.get("alive", 0) < payload.get("workers", 0):
            payload["status"] = "degraded"
            status = 503
        self._send_json(status, payload)

    def _handle_mutate(self) -> None:
        body = self._read_json()
        if not isinstance(body, dict):
            raise ValueError('mutate body must be {"dataset": ..., "mutations": [...]}')
        dataset = body.get("dataset")
        mutations = body.get("mutations")
        if not isinstance(dataset, str):
            raise ValueError('mutate body is missing the "dataset" name')
        if not isinstance(mutations, list):
            raise ValueError('"mutations" must be a list of mutation objects')
        apply_fn = getattr(self.server.service, "apply", None)
        if not callable(apply_fn):
            self._send_error_json(
                501, "service does not support live mutations", "NotImplemented"
            )
            return
        try:
            result = apply_fn(dataset, mutations)
        except ReproError as exc:
            # apply has exception semantics (unlike search): map the
            # structured library errors onto the same status table.
            self._send_error_json(
                status_for_error(type(exc).__name__), str(exc), type(exc).__name__
            )
            return
        payload = result.to_dict() if hasattr(result, "to_dict") else result
        self._send_json(200, payload)

    def _handle_search(self) -> None:
        request = request_from_dict(self._read_json())
        service = self.server.service
        # Mint the trace at the front door: an ``http`` root span whose
        # id the route/worker spans hang off.  The span lands in the
        # service's own tracer, so /debug/trace/<id> shows one tree.
        tracer = service.tracer
        http_span = None
        if tracer is not None:
            trace_id = (
                request.trace_id if request.trace_id is not None else new_trace_id()
            )
            http_span = tracer.start_span(
                "http", trace_id=trace_id, parent_id=request.parent_span_id
            )
            http_span.set_attribute("method", "POST")
            http_span.set_attribute("path", "/search")
            request = replace(
                request, trace_id=trace_id, parent_span_id=http_span.span_id
            )
        if hasattr(socket, "MSG_DONTWAIT"):
            # Map a client disconnect to cancellation: nobody is left
            # to read the answer, so free the worker.  Needs an id the
            # service registers; mint one if the client didn't.
            if request.request_id is None:
                request = replace(
                    request, request_id=f"http-internal-{next(_internal_ids)}"
                )
            if self._armed is None:  # first search on this connection
                self._armed = threading.Event()
                threading.Thread(
                    target=self._watch_disconnect,
                    name="repro-http-disconnect-watch",
                    daemon=True,
                ).start()
            self._watched = request.request_id
            self._armed.set()
        try:
            response = service.search(request)
        except BaseException:
            if http_span is not None:
                http_span.end(status="error")
            raise
        finally:
            self._watched = None
        status = status_for_error(response.error_type)
        if http_span is not None:
            http_span.set_attribute("status", status)
            if response.request_id is not None:
                http_span.set_attribute("request_id", response.request_id)
            http_span.end(status="ok" if response.error_type is None else "error")
        payload = response_to_dict(response)
        # Span lists stay server-side (read them via /debug/trace/<id>);
        # shipping them in every body would bloat the common case.
        payload["spans"] = None
        self._send_json(
            status,
            payload,
            headers={
                "X-Trace-Id": response.trace_id or request.trace_id,
                "X-Request-Id": response.request_id or request.request_id,
            },
        )

    def _watch_disconnect(self) -> None:
        """Peek the client socket while a search of this connection
        runs (``_watched`` names it); EOF means the client hung up —
        cancel the search it was waiting on.

        Deliberate tradeoff: a read-side FIN cannot be distinguished
        from a full disconnect by peeking, so a client that half-closes
        its write side (``shutdown(SHUT_WR)``) while still listening —
        legal but rare; browsers, curl and every mainstream HTTP client
        keep the socket fully open — has its search cancelled and gets
        the 499 response.  The alternative (ignoring EOF) would leave
        every genuinely vanished client burning a worker, which is the
        load pattern this watcher exists to stop.
        """
        disconnected, cancelled = False, None
        while not self._over:
            request_id = self._watched
            if request_id in (None, cancelled):
                self._armed.wait()  # for the next search or the connection's end
                self._armed.clear()
                continue
            # Sleep first: a cached search is over before this wakes.
            time.sleep(_DISCONNECT_POLL_SECONDS)
            if not disconnected:
                try:
                    # Pipelined bytes mean a live client: keep watching.
                    disconnected = not self.connection.recv(
                        1, socket.MSG_PEEK | socket.MSG_DONTWAIT
                    )
                except (BlockingIOError, InterruptedError):
                    continue  # no bytes waiting: still connected
                except OSError:
                    disconnected = True  # socket torn down
            # Keep retrying until the cancel lands: the request may not
            # be registered yet (still queued behind a busy executor),
            # and a one-shot miss would leave the orphaned search
            # running to completion.
            if disconnected and self.server.service.cancel(request_id):
                cancelled = request_id

    def _handle_batch(self) -> None:
        body = self._read_json()
        if not isinstance(body, dict) or "requests" not in body:
            raise ValueError('batch body must be {"requests": [...]}')
        raw_items = body["requests"]
        if not isinstance(raw_items, list):
            raise ValueError('"requests" must be a list of request objects')
        timeout = body.get("timeout")
        # Boundary rule (see wire.py): a string timeout must be a
        # structured 400 here, not a TypeError per item later.
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
        ):
            raise ValueError(
                f'batch "timeout" must be seconds (number), '
                f"got {type(timeout).__name__}"
            )

        # Convert what converts; malformed items keep their slots as
        # structured errors, mirroring search_many's contract.
        slots: list[Optional[dict]] = [None] * len(raw_items)
        requests, positions = [], []
        for i, raw in enumerate(raw_items):
            try:
                requests.append(request_from_dict(raw))
                positions.append(i)
            except Exception as exc:
                slots[i] = error_response_dict(raw, str(exc), type(exc).__name__)
        responses = self.server.service.search_many(requests, timeout=timeout)
        for position, response in zip(positions, responses):
            wire = response_to_dict(response)
            wire["spans"] = None  # read trees via /debug/trace/<id>
            slots[position] = wire
        self._send_json(200, {"responses": slots})


def make_server(
    service, host: str = "127.0.0.1", port: int = 0, *, quiet: bool = True
) -> QueryHTTPServer:
    """Build (but do not run) a server; ``port=0`` picks a free port.

    The bound address is ``server.server_address``.  Run with
    ``server.serve_forever()`` (often in a thread) and stop with
    ``server.shutdown()``.
    """
    return QueryHTTPServer((host, port), service, quiet=quiet)


def serve(
    service, host: str = "127.0.0.1", port: int = 8080, *, quiet: bool = False
) -> None:  # pragma: no cover - blocking convenience
    """Serve ``service`` until interrupted."""
    server = make_server(service, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving {type(service).__name__} on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
