"""Import hygiene: what each process role pays before (and while) serving.

Prestige comes out of the snapshot in every serving process, so scipy
(only ``prestige_transition_matrix`` uses it) must not load with the
package: it costs ~17 MiB of resident memory and ~150 ms per process,
times every worker the fleet spawns.

The same goes, per role, for everything a process never runs.  The
fleet *supervisor* routes, journals and merges telemetry but never
searches: numpy (~16 MiB), the engine, the snapshot array reader and
the live-dataset machinery stay out of it for its whole life — ``apply``
and ``reload`` with a ``wal_dir`` included.  A *worker* searches but
serves no HTTP and builds no dataset — and, like the thread tier, loads
no numpy to serve a snapshot, writes included: the arrays are
``memoryview`` casts of one ``mmap``, an overlay keeps prestige as
Python floats, a compaction's snapshot is packed with ``array``.
Neither uses more of
``multiprocessing`` than its ``connection`` module: no queue, no
semaphore, no shared memory — and so no resource-tracker process to
clean up after them.  And no serving role — supervisor, thread tier,
worker — maps OpenSSL: the front speaks HTTP from ``socketserver`` up
(``http.server`` brings ``http.client``, ``email`` and ``ssl``), query
fingerprints are ``crc32`` and ``hashlib`` is a save-time import.  Every
check runs in a fresh interpreter, and a failure names who imported the
offender first.
"""

import os
import subprocess
import sys

from repro.service.snapshot import save_engine

from tests.helpers import SRC, run_python

#: Prepended to every role script: records the first importer of every
#: module (nearest frame outside the import machinery and the lazy
#: re-export helper), so a failure reads ``numpy <- repro.core.state:44
#: <- repro.core.engine:25 <- ...`` instead of just ``numpy``.
PRELUDE = '''
import sys

FIRST_IMPORTER = {}


class _Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name not in FIRST_IMPORTER:
            frame = sys._getframe(1)
            while frame is not None and (
                "importlib" in frame.f_code.co_filename
                or frame.f_globals.get("__name__") == "repro._lazy"
            ):
                frame = frame.f_back
            FIRST_IMPORTER[name] = (
                (frame.f_globals.get("__name__", "?"), frame.f_lineno)
                if frame is not None
                else ("?", 0)
            )
        return None


sys.meta_path.insert(0, _Recorder)


def _chain(module):
    links, seen = [module], {module}
    while module in FIRST_IMPORTER:
        module, line = FIRST_IMPORTER[module]
        links.append(f"{module}:{line}")
        if module in seen or module in ("__main__", "__mp_main__"):
            break
        seen.add(module)
    return " <- ".join(links)


def assert_not_loaded(*forbidden):
    """A forbidden name also covers its submodules; the first loaded
    module of each family is reported with its import chain."""
    chains = []
    for name in forbidden:
        loaded = sorted(
            m for m in sys.modules if m == name or m.startswith(name + ".")
        )
        if loaded:
            first = min(loaded, key=list(FIRST_IMPORTER).index)
            chains.append(_chain(first))
    assert not chains, "loaded but never run by this role:\\n  " + "\\n  ".join(chains)


def http_call(server, method, path, body=None):
    """One request over a bare socket: ``http.client`` is on the
    forbidden list, so the probe must not be what loads it."""
    import json
    import socket

    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\\r\\nConnection: close\\r\\n"
    head += f"Content-Length: {len(data)}\\r\\n\\r\\n"
    with socket.create_connection(server.server_address[:2], timeout=60) as conn:
        conn.sendall(head.encode("ascii") + data)
        reply = b"".join(iter(lambda: conn.recv(65536), b""))
    head, _, payload = reply.partition(b"\\r\\n\\r\\n")
    return int(head.split()[1]), payload
'''

#: OpenSSL (``ssl`` for sockets nobody opens, ``_hashlib`` for digests
#: nobody needs while serving) and the stdlib HTTP stack that drags it in.
OPENSSL_FORBIDDEN = ("ssl", "_ssl", "_hashlib", "http.server", "http.client", "email")

#: The supervisor reaches a worker, and a worker its supervisor, over
#: one ``multiprocessing.connection`` socket pair and nothing else.
MULTIPROCESSING_FORBIDDEN = (
    "multiprocessing.queues",
    "multiprocessing.synchronize",
    "multiprocessing.sharedctypes",
    "multiprocessing.resource_tracker",
    "multiprocessing.popen_spawn_posix",
)

SUPERVISOR_FORBIDDEN = MULTIPROCESSING_FORBIDDEN + OPENSSL_FORBIDDEN + (
    "numpy",
    "scipy",
    "repro.core.engine",
    "repro.core.state",
    "repro.service.service",
    "repro.service.snapshot",
    "repro.graph.searchgraph",
    "repro.live.dataset",
    "repro.storage.mapped",
    "repro.index.inverted",
)

#: The whole public life of a fleet supervisor.
SUPERVISOR_SCRIPT = PRELUDE + '''

def main(snapshot, wal_dir):
    import threading

    from repro.cluster import ShardedQueryService
    from repro.cluster.http import make_server
    from repro.service import QueryRequest

    service = ShardedQueryService({"toy": snapshot}, num_workers=1, wal_dir=wal_dir)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    mutations = [
        {"op": "add_node", "label": "Zyzzqx Systems", "table": "paper",
         "text": "Zyzzqx Systems"},
        {"op": "add_edge", "u": -1, "v": 3},
    ]
    try:
        service.warmup()
        assert service.search("toy", "gray transaction").ok
        batch = service.search_many(
            [
                QueryRequest(dataset="toy", query="gray transaction", algorithm=a)
                for a in ("bidirectional", "si-backward", "mi-backward")
            ]
            + [QueryRequest(dataset="nope", query="gray")]
        )
        assert [r.ok for r in batch] == [True, True, True, False], batch
        assert service.apply("toy", mutations).applied == 2
        assert service.search("toy", "zyzzqx").ok
        status, _ = http_call(
            server, "POST", "/search", {"dataset": "toy", "query": "selinger access"}
        )
        assert status == 200, status
        status, _ = http_call(
            server, "POST", "/mutate",
            {"dataset": "toy", "mutations": [{"op": "update_text", "node": 0,
                                              "text": "Jim Gray Qwertz"}]},
        )
        assert status == 200, status
        assert service.reload("toy", snapshot, force=True)["workers"] == {"0": True}
        for path in ("/metrics", "/metrics?format=prometheus", "/healthz",
                     "/debug/slow", "/debug/events", "/debug/queries"):
            status, _ = http_call(server, "GET", path)
            assert status == 200, (path, status)
        assert service.metrics()["requests_total"] >= 6
        assert service.health()["alive"] == 1
        assert service.slo_status() and service.query_stats()["entries"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    assert_not_loaded(*FORBIDDEN)
    print("SUPERVISOR-OK", len([m for m in sys.modules if m.startswith("repro")]))


if __name__ == "__main__":
    FORBIDDEN = sys.argv[3:]
    main(sys.argv[1], sys.argv[2])
'''


def test_serving_stack_imports_without_scipy():
    done = run_python(
        "import repro.cluster.http, sys; assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]"
    )
    assert done.returncode == 0, done.stderr


def test_prestige_still_computes_and_is_what_loads_scipy():
    done = run_python(
        "import sys\n"
        "from repro.graph import DataGraph, compute_prestige\n"
        "g = DataGraph(); a = g.add_node('a'); b = g.add_node('b'); g.add_edge(a, b)\n"
        "assert 'scipy' not in sys.modules\n"
        "p = compute_prestige(g.freeze())\n"
        "assert abs(float(p.sum()) - 1.0) < 1e-9 and 'scipy.sparse' in sys.modules\n"
    )
    assert done.returncode == 0, done.stderr


def test_bare_import_loads_no_numpy():
    done = run_python(PRELUDE + "import repro\nassert_not_loaded('numpy', 'repro.core')\n")
    assert done.returncode == 0, done.stderr


def test_supervisor_never_loads_the_data_plane(tmp_path, toy_engine):
    """Construction with a ``wal_dir``, HTTP front, searches, ``apply``,
    ``reload``, every telemetry read and ``close``: the supervisor's
    ``sys.modules`` stays free of numpy and of the engine."""
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    script = tmp_path / "supervisor_role.py"
    script.write_text(SUPERVISOR_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script), str(snapshot), str(tmp_path / "wal")]
        + list(SUPERVISOR_FORBIDDEN),
        cwd=SRC,
        env={**os.environ, "PYTHONPATH": str(SRC)},  # sys.path[0] is tmp_path
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "SUPERVISOR-OK" in done.stdout


#: The thread tier behind the same front: a snapshot-backed
#: ``QueryService`` serving searches, a mutation and every telemetry
#: read over HTTP, then compacting, saving and reloading what it
#: mutated.  The mutation is what loads ``repro.live``; nothing on the
#: cycle loads numpy.  OpenSSL is nobody's business.  argv: snapshot,
#: then the forbidden names.
THREAD_TIER_SCRIPT = PRELUDE + '''
import threading

from repro.cluster.http import make_server
from repro.service import QueryService

service = QueryService(storage_mode="mapped")
service.register_snapshot("toy", sys.argv[1])
server = make_server(service, port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
try:
    service.warmup()
    for algorithm in ("bidirectional", "si-backward", "mi-backward"):
        status, _ = http_call(
            server, "POST", "/search",
            {"dataset": "toy", "query": "gray transaction", "algorithm": algorithm,
             "explain": True, "request_id": algorithm},
        )
        assert status == 200, (algorithm, status)
    for path in ("/metrics", "/metrics?format=prometheus", "/healthz",
                 "/debug/events", "/debug/queries", "/debug/slow",
                 "/debug/explain/bidirectional"):
        status, _ = http_call(server, "GET", path)
        assert status == 200, (path, status)
    assert_not_loaded("numpy", "repro.live")  # searched, read telemetry: no arrays
    status, _ = http_call(
        server, "POST", "/mutate",
        {"dataset": "toy", "mutations": [{"op": "update_text", "node": 0,
                                          "text": "Jim Gray Qwertz"}]},
    )
    assert status == 200, status
    status, _ = http_call(server, "POST", "/search", {"dataset": "toy", "query": "qwertz"})
    assert status == 200, status
    assert "repro.live.overlay" in sys.modules  # ...which searched an overlay
    assert_not_loaded(*sys.argv[2:])  # served and mutated: nothing it never runs
    # Compacts, then packs and digests the flat state: sha256 is the
    # one save-time import (OpenSSL), arrays still are not.
    resaved = service.save_snapshot("toy", sys.argv[1] + ".resaved")
    assert type(service.engine("toy").graph).__name__ == "SearchGraph"
    service.reload("toy", resaved)
    assert service.search("toy", "qwertz").result.answers
    assert_not_loaded("numpy", "scipy")
finally:
    server.shutdown()
    server.server_close()
    service.close()
assert "repro.core.engine" in sys.modules  # it did search
print("THREAD-TIER-OK")
'''


def test_thread_tier_serves_without_openssl(tmp_path, toy_engine):
    """...and without numpy: checked inside the script before the
    ``/mutate`` (with ``repro.live``) and again after it, a compaction, a
    ``save_snapshot`` and a reload of the file that wrote."""
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    done = subprocess.run(
        [sys.executable, "-c", THREAD_TIER_SCRIPT, str(snapshot), *OPENSSL_FORBIDDEN,
         *MULTIPROCESSING_FORBIDDEN, "numpy", "scipy"],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "THREAD-TIER-OK" in done.stdout


#: What the pool's worker command imports, then a worker's whole life
#: on a real channel, twice: warm-up, searches of all three algorithms
#: on the default schedule, a mutation, a search of the overlay, a
#: reload, every telemetry pull, stop — then, the batch journalled the
#: way the supervisor journals it, a restart that replays the log
#: before its first message.  argv: snapshot, log directory, then the
#: forbidden names.
WORKER_SCRIPT = PRELUDE + '''
from multiprocessing.connection import Connection, Pipe
from repro.cluster.worker import worker_main
from repro.wal import MutationLog

snapshot, wal, forbidden = sys.argv[1], sys.argv[2], sys.argv[3:]
request = {"dataset": "toy", "query": "gray transaction", "request_id": "r1"}
uncached = {"use_cache": False, "timeout": 30.0}
mutation = {"op": "add_node", "label": "Zyzzqx Systems", "text": "Zyzzqx Systems"}
mutated = ("request", {**request, **uncached, "query": "zyzzqx"})


def life(jobs, cancel=(), **settings):
    """Replies to ``jobs`` from one worker, first message to ``stop``."""
    ours, theirs = Pipe()
    ours.send((0, {"toy": snapshot}, {"storage_mode": "mapped", **settings}))
    for job, (kind, *payload) in enumerate(jobs):
        ours.send((kind, job, *payload))
    for job in cancel:
        ours.send(("cancel", job))
    ours.send(("stop",))
    worker_main(theirs)
    return [ours.recv()[2] for _ in jobs]


# The loop sleeps (GIL released) before job 2 while the reader takes
# every message off the wire, the cancel of job 2 included: a cancel
# written behind its request still overtakes it, but only once read.
replies = life([
    ("state",),
    ("sleep", 0.5),
    ("request", request),
    *(("request", {**request, **uncached, "algorithm": algorithm})
      for algorithm in ("bidirectional", "si-backward", "mi-backward")),
    ("mutate", {"dataset": "toy", "mutations": [mutation]}),
    mutated,
    ("reload", {"dataset": "toy", "path": snapshot, "force": True}),
    ("state",),
    ("metrics",),
    ("events", {"since": 0}),
    ("queries",),
], cancel=[2])
errors = {job: reply["error_type"] for job, reply in enumerate(replies) if reply.get("error")}
assert errors == {2: "SearchCancelledError"}, errors  # the cancel beat its request
assert all(reply["result"]["answers"] for reply in replies[3:6])  # they did search
assert replies[6]["applied"] == 1 and replies[7]["result"]["answers"], replies[6:8]
assert replies[0]["datasets"]["toy"]["version"] == 0, replies[0]
assert replies[9]["datasets"]["toy"]["version"] == 0, replies[9]  # the reload reset it

with MutationLog(wal) as log:
    assert log.append([{**mutation, "prestige": 0.125}]) == 1
replies = life([("state",), mutated], wals={"toy": wal})
assert replies[0]["datasets"]["toy"]["version"] == 1, replies[0]  # replayed first
assert replies[1]["result"]["answers"], replies[1]  # ...and serves what it replayed
assert "repro.core.engine" in sys.modules and "repro.live.dataset" in sys.modules
assert_not_loaded(*forbidden)
print("WORKER-OK")
'''

WORKER_FORBIDDEN = MULTIPROCESSING_FORBIDDEN + OPENSSL_FORBIDDEN + (
    "repro.cluster.http",
    "repro.cluster.service",
    "repro.cluster.pool",
    "repro.datasets",
    "repro.relational",
    "repro.sparse",
    "repro.experiments",
    "scipy",
)


def _worker_life(tmp_path, toy_engine, forbidden):
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    done = subprocess.run(
        [sys.executable, "-c", WORKER_SCRIPT, str(snapshot), str(tmp_path / "toy.wal"),
         *forbidden],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "WORKER-OK" in done.stdout


def test_worker_loads_no_front_end_and_no_dataset_builders(tmp_path, toy_engine):
    """What the pool's worker command imports and a worker's life then
    adds: the worker loop, the thread-tier service, the engine and the
    live-dataset machinery — not the HTTP front, the supervisor, the
    dataset generators or scipy."""
    _worker_life(tmp_path, toy_engine, WORKER_FORBIDDEN)


def test_worker_searches_a_mapped_snapshot_without_numpy(tmp_path, toy_engine):
    """...and mutates it, searches the overlay, reloads, and comes back
    from a restart through a WAL replay without it: the snapshot is read
    through ``memoryview``s and an overlay's prestige is a tuple of
    floats — ~16 MiB per worker never mapped, whichever life it leads."""
    _worker_life(tmp_path, toy_engine, ("numpy",))


#: Every schedule a search can take: all three algorithms, in both output
#: modes, over a ``ram`` and a ``mapped`` load of one snapshot.  Each is
#: one per-pop loop over Python rows, so none of them loads numpy.
SCHEDULES_SCRIPT = PRELUDE + '''
from repro.core.params import SearchParams
from repro.service import QueryService

for mode in ("ram", "mapped"):
    with QueryService(storage_mode=mode) as service:
        service.register_snapshot("toy", sys.argv[1])
        for algorithm in ("bidirectional", "si-backward", "mi-backward"):
            for output_mode in ("exact", "heuristic"):
                response = service.search(
                    "toy", "gray transaction", algorithm=algorithm,
                    params=SearchParams(output_mode=output_mode),
                )
                assert response.ok and response.result.answers, (mode, algorithm)
assert "repro.core.engine" in sys.modules  # it did search
assert_not_loaded("numpy", "repro.core.kernels")
print("SCHEDULES-OK")
'''


def test_no_search_schedule_loads_numpy(tmp_path, toy_engine):
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    done = run_python(SCHEDULES_SCRIPT, str(snapshot))
    assert done.returncode == 0, done.stderr[-4000:]
    assert "SCHEDULES-OK" in done.stdout


#: A live dataset commits a batch, drops a failing one, compacts and
#: replays a log on Python floats, and a service saves it, attaches the log and
#: reloads the saved file without an array library: no live or WAL
#: operation loads numpy or scipy.
LIVE_SCRIPT = PRELUDE + '''
from repro.errors import MutationError
from repro.live import MutableDataset
from repro.service import QueryService
from repro.service.snapshot import load_snapshot
from repro.wal import MutationLog

snapshot, scratch = sys.argv[1], sys.argv[2]
batch = [{"op": "add_node", "label": "hub", "text": "hub"},
         *({"op": "add_edge", "u": paper, "v": -1} for paper in (5, 6, 7, 8))]
graph, index = load_snapshot(snapshot)
with MutationLog(scratch + ".wal") as log:
    dataset = MutableDataset(graph, index, compact_ratio=None)
    dataset.mutate(batch, journal=log.append)
    try:
        dataset.mutate([{"op": "add_node", "label": "dropped"},
                        {"op": "add_edge", "u": -1, "v": 10 ** 6}])
    except MutationError:
        pass
    assert dataset.version == 1
    assert dataset.engine.search("hub").answers
    replayed = MutableDataset(graph, index, compact_ratio=None)
    assert replayed.replay_records(log.records(), expected=1) == 1
    assert replayed.graph.prestige_values == dataset.graph.prestige_values
    assert replayed.compact().compacted
with QueryService() as service:
    service.register_mutable("live", replayed)
    service.save_snapshot("live", scratch + ".snap")
    service.register_snapshot("toy", snapshot)
    assert service.attach_wal("toy", scratch + ".wal")["replayed"] == 1
    assert service.reload("toy", scratch + ".snap", force=True)["reloaded"]
    response = service.search("toy", "hub", use_cache=False)
    assert response.ok and response.result.answers, response.error
assert_not_loaded("numpy", "scipy")
print("LIVE-OK")
'''


def test_no_live_or_wal_operation_loads_numpy(tmp_path, toy_engine):
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    done = run_python(LIVE_SCRIPT, str(snapshot), str(tmp_path / "live"))
    assert done.returncode == 0, done.stderr[-4000:]
    assert "LIVE-OK" in done.stdout


def test_snapshot_info_loads_no_numpy(tmp_path, toy_engine):
    """``python -m repro.service.snapshot info FILE`` reads a header and
    ``verify FILE`` every byte (checksums, node-id ranges, the digest):
    neither imports numpy, and ``info`` not even the engine."""
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    done = run_python(
        PRELUDE
        + "from repro.service.snapshot import main\n"
        + "assert main(['info', sys.argv[1]]) == 0\n"
        + "assert_not_loaded('numpy', 'scipy', 'repro.core')\n"
        + "assert main(['verify', sys.argv[1]]) == 0\n"
        + "assert_not_loaded('numpy', 'scipy')\n",
        str(snapshot),
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "num_nodes = " in done.stdout and "pin_hint" in done.stdout, done.stdout
    assert "ok: " in done.stdout, done.stdout


#: A ``ram``-mode service reads the file once and range-checks every
#: stored node id as 32-bit lanes of Python ints: registering, warming,
#: searching with all three algorithms, reloading and verifying load no
#: numpy.  argv: the snapshot and a byte-identical copy of it.
RAM_SCRIPT = PRELUDE + '''
from repro.service import QueryService
from repro.service.snapshot import verify_snapshot

snapshot, copy = sys.argv[1], sys.argv[2]
with QueryService(storage_mode="ram") as service:
    service.register_snapshot("toy", snapshot)
    service.warmup()
    for algorithm in ("bidirectional", "si-backward", "mi-backward"):
        response = service.search("toy", "gray transaction", algorithm=algorithm)
        assert response.ok and response.result.answers, (algorithm, response.error)
    assert service.engine("toy").graph.storage.mode == "ram"
    assert service.reload("toy", copy, force=True)["reloaded"]
    response = service.search("toy", "selinger access", use_cache=False)
    assert response.ok and response.result.answers, response.error
assert verify_snapshot(copy)["content_digest"]
assert_not_loaded("numpy", "scipy")
print("RAM-OK")
'''


def test_ram_mode_loads_no_numpy(tmp_path, toy_engine):
    snapshot = save_engine(tmp_path / "toy.snap", toy_engine)
    copy = save_engine(tmp_path / "copy.snap", toy_engine)
    done = run_python(RAM_SCRIPT, str(snapshot), str(copy))
    assert done.returncode == 0, done.stderr[-4000:]
    assert "RAM-OK" in done.stdout


def test_failure_names_the_first_importer():
    """The harness itself: a violated expectation reports the chain."""
    done = run_python(PRELUDE + "import repro.graph.prestige\nassert_not_loaded('numpy')\n")
    assert done.returncode != 0
    assert "numpy <- repro.graph.prestige:" in done.stderr, done.stderr
    assert "<- __main__:" in done.stderr, done.stderr
