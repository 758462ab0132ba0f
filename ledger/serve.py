"""Server harness: the process the ledger measures from outside.

Run as a subprocess of ``ledger/run.py`` in one of three tiers:

``thread``
    ``QueryService`` over one snapshot, behind ``cluster.http``.
``fleet``
    ``ShardedQueryService`` (2 spawn workers, ``default_replicas=2``,
    optional ``--wal-dir``) behind ``cluster.http``.
``cycle``
    No HTTP.  Reads one JSON command per stdin line — ``{"storage_mode":
    ..., "requests": [...]}`` — and answers with one JSON line after
    running a whole service life cycle in-process: new ``QueryService``
    -> ``register_snapshot`` -> ``warmup`` -> the searches -> ``close``.

The HTTP tiers bind port 0 and print ``LISTENING <host> <port>`` as
their only stdout line; readiness is the caller's ``/healthz`` poll.
Only service constructors and their defaults are used, so the harness
keeps working when backend-selection knobs are deleted.

Everything below the ``__main__`` guard matters: spawn-context workers
re-import this file, and without the guard each of them would try to
start a fleet of its own and die with ``EOFError: Ran out of input``.
"""

import argparse
import json
import signal
import sys
import threading
import time

DATASET = "dblp"


def build_service(tier: str, snapshot: str, wal_dir=None):
    """The service under test, built only from constructor defaults."""
    if tier == "fleet":
        from repro.cluster import ShardedQueryService

        return ShardedQueryService(
            {DATASET: snapshot}, num_workers=2, default_replicas=2, wal_dir=wal_dir
        )
    from repro.service import QueryService

    service = QueryService()
    service.register_snapshot(DATASET, snapshot)
    return service


def serve_http(args) -> int:
    from repro.cluster.http import make_server

    service = build_service(args.tier, args.snapshot, args.wal_dir)
    service.warmup()
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    # SIGTERM is the polite stop: shut the HTTP loop down from another
    # thread (shutdown() deadlocks when called from the serving thread).
    signal.signal(
        signal.SIGTERM,
        lambda *_: threading.Thread(target=server.shutdown, daemon=True).start(),
    )
    print(f"LISTENING {host} {port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
    return 0


def run_cycle(snapshot: str, command: dict) -> dict:
    """One service life cycle; every duration in seconds."""
    from repro.service import QueryService
    from repro.service.wire import request_from_dict, response_to_dict

    requests = [request_from_dict(raw) for raw in command["requests"]]
    start = time.perf_counter()
    service = QueryService(storage_mode=command["storage_mode"])
    try:
        service.register_snapshot(DATASET, snapshot)
        service.warmup()
        loaded = time.perf_counter()
        searches = []
        for request in requests:
            began = time.perf_counter()
            response = service.search(request)
            searches.append(
                {
                    "seconds": time.perf_counter() - began,
                    "response": response_to_dict(response),
                }
            )
        return {
            "load_seconds": loaded - start,
            "first_answer_seconds": loaded - start + searches[0]["seconds"],
            "searches": searches,
        }
    finally:
        service.close()


def serve_cycles(args) -> int:
    print("READY", flush=True)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        print(json.dumps(run_cycle(args.snapshot, json.loads(line))), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=("thread", "fleet", "cycle"), required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--wal-dir", default=None)
    args = parser.parse_args(argv)
    if args.tier == "cycle":
        return serve_cycles(args)
    return serve_http(args)


if __name__ == "__main__":
    sys.exit(main())
