"""The fleet's processes, counted from outside: what a fleet starts,
what it leaves behind, and what becomes of its workers when the
supervisor is killed.

Each test runs a real supervisor — ``ShardedQueryService`` behind
``cluster.http`` — as a subprocess in a session of its own, so its
process group is exactly the fleet, and reads ``/proc`` (POSIX-only,
like ``test_wal_recovery.py``).  The supervisor gets no ``PYTHONPATH``:
the checkout is on its ``sys.path`` only, the way pytest's
``pythonpath`` setting puts it on this process's.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.helpers import SRC

#: argv: src dir, snapshot, "mutate", "search-only" or "replay".  Both
#: workers search (every algorithm, uncached) before anything else
#: happens; "replay" journals its commits (the log goes beside the
#: script), compacts both replicas, then kills both workers and waits
#: for replacements that replayed the log.  Serves until stdin says
#: otherwise.
SUPERVISOR = '''
import http.client
import json
import sys
import threading
import time

sys.path.insert(0, sys.argv[1])

from repro.cluster import ShardedQueryService
from repro.cluster.http import make_server
from repro.cluster.pool import WorkerPool
from repro.service import QueryRequest

WorkerPool.HEALTH_INTERVAL = 0.1  # the replay life waits for two respawns
service = ShardedQueryService(
    {"toy": sys.argv[2]}, num_workers=2, default_replicas=2, storage_mode="mapped",
    wal_dir="wal" if sys.argv[3] == "replay" else None,
)
server = make_server(service, port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
service.warmup()
batch = service.search_many([
    QueryRequest(dataset="toy", query="gray transaction", algorithm=a, use_cache=False)
    for a in ("bidirectional", "si-backward", "mi-backward") * 4
])
assert all(response.ok and response.result.answers for response in batch), batch
served = service.metrics()["cluster"]["per_worker"]
assert all(worker["requests_total"] for worker in served.values()), served
if sys.argv[3] == "mutate":
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=60)
    conn.request(
        "POST",
        "/mutate",
        json.dumps({"dataset": "toy", "mutations": [{"op": "add_node", "label": "census"}]}),
    )
    assert conn.getresponse().status == 200
    conn.close()
if sys.argv[3] == "replay":
    outcomes = [
        service.apply("toy", [
            {"op": "add_node", "label": f"census {commit}", "text": f"census{commit}"},
            {"op": "add_edge", "u": -1, "v": 3},
        ])
        for commit in range(4)
    ]
    assert outcomes[-1].version == outcomes[-1].wal_seq == 4, outcomes[-1]
    assert not outcomes[-1].drift and any(o.compacted for o in outcomes), outcomes
    for worker in (0, 1):
        service.pool.process(worker).kill()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not (
        all(service.pool.restarts().get(worker) for worker in (0, 1))
        and service.dataset_versions().get("toy") == {"0": 4, "1": 4}
    ):
        time.sleep(0.05)
    assert service.dataset_versions()["toy"] == {"0": 4, "1": 4}, service.health()
    batch = service.search_many([
        QueryRequest(dataset="toy", query="census3", use_cache=False) for _ in range(4)
    ])
    assert all(response.ok and response.result.answers for response in batch), batch
print("SERVING", flush=True)
sys.stdin.readline()
server.shutdown()
server.server_close()
service.close()
print("CLOSED", flush=True)
sys.stdin.readline()
'''


def _stat_fields(pid: str) -> list[str]:
    """``/proc/<pid>/stat`` after the command: state, ppid, pgrp, ..."""
    return Path("/proc", pid, "stat").read_text().rsplit(")", 1)[1].split()


def _processes(pgid: int) -> dict[int, str]:
    """``{pid: state}`` of every process in group ``pgid``, zombies
    (state ``Z``) included."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                state, _, pgrp = _stat_fields(entry)[:3]
            except OSError:
                continue  # exited between listdir and read
            if int(pgrp) == pgid:
                found[int(entry)] = state
    return found


@contextlib.contextmanager
def _fleet(tmp_path, toy_snapshot, life: str):
    """A serving 2-worker fleet in a session of its own; yields the
    ``Popen`` (pid == process group id) and the file its stderr — and
    its workers', who inherit it — goes to."""
    script = tmp_path / "supervisor.py"
    script.write_text(SUPERVISOR)
    stderr_path = tmp_path / "stderr.txt"
    environment = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-W", "error::ResourceWarning", str(script), str(SRC),
             str(toy_snapshot), life],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=environment,
            cwd=tmp_path,
            text=True,
            start_new_session=True,
        )
    try:
        assert process.stdout.readline() == "SERVING\n", stderr_path.read_text()
        yield process, stderr_path
    finally:
        for pid in _processes(process.pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        process.wait()
        process.stdin.close()
        process.stdout.close()


@pytest.fixture
def supervisor(tmp_path, toy_snapshot):
    """A fleet that has searched and taken a mutation."""
    with _fleet(tmp_path, toy_snapshot, "mutate") as fleet:
        yield fleet


def test_workers_that_only_search_never_map_numpy(tmp_path, toy_snapshot):
    """Searched on every algorithm, not mutated: the snapshot is one
    ``mmap`` read through ``memoryview``s, so neither worker (nor the
    supervisor) has numpy's extension module among its mappings."""
    with _fleet(tmp_path, toy_snapshot, "search-only") as (process, stderr_path):
        fleet = _processes(process.pid)
        assert len(fleet) == 3, fleet
        for pid in fleet:
            maps = Path("/proc", str(pid), "maps").read_text()
            assert str(toy_snapshot) in maps or pid == process.pid, pid
            assert "_multiarray_umath" not in maps and "numpy" not in maps, pid
        assert stderr_path.read_text() == ""


def test_workers_that_commit_compact_and_replay_never_map_numpy(tmp_path, toy_snapshot):
    """A ``wal_dir`` fleet whose two workers applied four commits each
    (compacting on the way), were killed, and came back through a WAL
    replay: overlays keep prestige as Python floats, so the write path
    maps no more of numpy than the read path does."""
    with _fleet(tmp_path, toy_snapshot, "replay") as (process, stderr_path):
        fleet = _processes(process.pid)
        assert len(fleet) == 3 and "Z" not in fleet.values(), fleet
        for pid in fleet:
            # (A compacted replica serves flat rows from its own memory:
            # the snapshot's mapping went with the overlay's base.)
            maps = Path("/proc", str(pid), "maps").read_text()
            assert "_multiarray_umath" not in maps and "numpy" not in maps, pid
        assert list((tmp_path / "wal").iterdir())  # the log they replayed
        assert stderr_path.read_text() == ""


def test_a_two_worker_fleet_is_three_processes_and_leaves_none(supervisor):
    process, stderr_path = supervisor
    fleet = _processes(process.pid)
    assert len(fleet) == 3 and "Z" not in fleet.values(), fleet
    for pid in fleet:
        command = Path("/proc", str(pid), "cmdline").read_bytes()
        assert b"resource_tracker" not in command, command
    workers = [pid for pid in fleet if pid != process.pid]
    assert all(int(_stat_fields(str(pid))[1]) == process.pid for pid in workers)

    process.stdin.write("close\n")
    process.stdin.flush()
    assert process.stdout.readline() == "CLOSED\n", stderr_path.read_text()
    # Nothing but the supervisor itself: no worker, no zombie of one.
    assert list(_processes(process.pid)) == [process.pid]
    process.stdin.write("exit\n")
    process.stdin.flush()
    assert process.wait(timeout=10) == 0
    assert _processes(process.pid) == {}
    assert stderr_path.read_text() == ""  # no ResourceWarning, no complaint


def test_workers_import_the_checkout_only_the_supervisor_knew(supervisor):
    """The fixture's supervisor has ``src`` on ``sys.path`` and nothing
    in its environment; its workers were told where it is."""
    process, _ = supervisor

    def pythonpath(pid):
        environment = Path("/proc", str(pid), "environ").read_bytes().split(b"\0")
        return [entry for entry in environment if entry.startswith(b"PYTHONPATH=")]

    assert pythonpath(process.pid) == []
    workers = [pid for pid in _processes(process.pid) if pid != process.pid]
    assert len(workers) == 2
    for pid in workers:
        assert pythonpath(pid) == [b"PYTHONPATH=" + os.fsencode(SRC)]


def test_workers_of_a_killed_supervisor_are_gone_at_once(supervisor):
    process, stderr_path = supervisor

    def running():
        # Whether an exited orphan lingers as a zombie is up to the
        # container's init, not to the worker.
        return [pid for pid, state in _processes(process.pid).items() if state != "Z"]

    assert len(running()) == 3
    os.kill(process.pid, signal.SIGKILL)
    killed = time.monotonic()
    process.wait()
    # The idle workers read EOF on their channels and stop: no poll
    # interval to wait out, no semaphore left for anyone to report.
    while running() and time.monotonic() - killed < 5.0:
        time.sleep(0.005)
    assert running() == []
    assert time.monotonic() - killed < 0.5
    assert stderr_path.read_text() == ""
