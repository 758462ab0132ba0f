"""Durability quickstart: commit -> kill -9 -> recover (:mod:`repro.wal`).

PR 4 made datasets mutable under live traffic; this demo shows the
other half — mutations that *survive the process*:

1. build a DBLP engine, snapshot it to disk,
2. in a **separate process**: warm a ``QueryService`` from the
   snapshot, attach the sibling write-ahead log
   (``QueryService.attach_wal``), commit three live inserts... then
   ``kill -9`` itself mid-flight — no drain, no atexit, no goodbye,
3. inspect the snapshot from the shell
   (``python -m repro.service.snapshot info``): the sibling WAL shows
   three unsnapshotted commits,
4. in this process: register the same snapshot, ``attach_wal`` again —
   the log replays and the service lands on exactly the last durable
   epoch; the killed process's inserts answer queries,
5. ``save_snapshot`` over the serving snapshot rotates it in place and
   truncates the now-covered log segments (saving to any *other* path
   — a backup — deliberately leaves the log alone).

A service's log flushes every commit to the OS page cache
(``MutationLog``'s ``"batched"`` sync), so a process ``kill -9`` loses
nothing; it fsyncs every few commits, so a whole-machine crash may lose
the last few.

Run:  python examples/durability.py
"""

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import repro
from repro import KeywordSearchEngine, QueryService
from repro.datasets import DblpConfig, make_dblp
from repro.service.snapshot import main as snapshot_cli
from repro.service.snapshot import save_engine
from repro.wal import MutationLog, default_wal_path

#: What the doomed writer process runs: warm from the snapshot, attach
#: the WAL, commit three inserts, then SIGKILL itself.
WRITER = """
import os, signal, sys
from repro.service import QueryService

snapshot = sys.argv[1]
service = QueryService()
service.register_snapshot("dblp", snapshot)
service.attach_wal("dblp")  # sibling <snapshot>.wal, "batched" sync
for i in range(3):
    result = service.apply("dblp", [
        {"op": "add_node", "label": f"Durable Paper {i}", "table": "paper",
         "text": f"durapaper{i} write ahead logging"},
        {"op": "add_edge", "u": -1, "v": 0},
    ])
    print(f"writer: committed version {result.version}", flush=True)
os.kill(os.getpid(), signal.SIGKILL)  # crash: nothing gets to clean up
"""


def main() -> None:
    # ------------------------------------------------------------------
    # 1. snapshot a warm DBLP engine
    # ------------------------------------------------------------------
    engine = KeywordSearchEngine.from_database(make_dblp(DblpConfig()))
    tmp = Path(tempfile.mkdtemp(prefix="repro-durability-"))
    snapshot = save_engine(tmp / "dblp.snap", engine)
    print(
        f"snapshot: {snapshot} ({engine.graph.num_nodes} nodes, "
        f"{engine.graph.num_forward_edges} forward edges)"
    )

    # ------------------------------------------------------------------
    # 2. a separate process commits three inserts, then kill -9's itself
    # ------------------------------------------------------------------
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", WRITER, str(snapshot)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    print(completed.stdout, end="")
    assert completed.returncode == -signal.SIGKILL, (
        f"writer should die by SIGKILL, exited {completed.returncode}: "
        f"{completed.stderr}"
    )
    print(f"writer: killed -9 (exit {completed.returncode})")

    # ------------------------------------------------------------------
    # 3. the operator's view: snapshot info shows unsnapshotted commits
    # ------------------------------------------------------------------
    print("\n$ python -m repro.service.snapshot info dblp.snap")
    snapshot_cli(["info", str(snapshot)])

    # ------------------------------------------------------------------
    # 4. recover: attach_wal replays to the last durable epoch
    # ------------------------------------------------------------------
    service = QueryService()
    service.register_snapshot("dblp", snapshot)
    outcome = service.attach_wal("dblp")
    print(
        f"\nrecovered: replayed {outcome['replayed']} WAL records -> "
        f"version {outcome['version']} (wal seq {outcome['wal_seq']})"
    )
    response = service.search("dblp", "durapaper2 logging")
    response.raise_for_error()
    current = service.engine("dblp").graph
    print(
        f"search 'durapaper2 logging' -> "
        f"{current.label(response.result.answers[0].tree.root)!r} "
        f"(an insert the killed process never got to snapshot)"
    )

    # ------------------------------------------------------------------
    # 5. rotate the serving snapshot in place; covered segments die
    # ------------------------------------------------------------------
    recovered_snap = service.save_snapshot("dblp", snapshot)
    stats = MutationLog.peek(default_wal_path(snapshot))
    print(
        f"\nrotated {recovered_snap} (now dataset_version 3); WAL "
        f"truncated to {stats['records']} records (seq stays at "
        f"{stats['last_seq']} — the log only needs to reach back to "
        f"the newest snapshot)"
    )
    service.close()


if __name__ == "__main__":
    main()
