"""Process and HTTP plumbing between the ledger and the server it measures.

``run_supervised`` runs a whole ledger run in a forked child and reaps
every process the run leaves behind before the command returns.
``ServerProcess`` owns one ``ledger/serve.py`` subprocess in a process
group of its own: spawn, readiness poll, peak-RSS read from ``/proc``,
polite stop, ``kill -9`` of the whole group, and the check that nothing
in the group outlives the run.  ``ClosedLoopClient`` drives ``POST``
requests closed-loop over a fixed number of connection slots from one
thread.
"""

import contextlib
import ctypes
import http.client
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = LEDGER_DIR / "out"  # results and scratch files; ignored by git

#: Environment hooks that would silently change what is measured.
SCRUBBED_ENV = ("REPRO_SCALE", "REPRO_EXPANSION_BACKEND", "REPRO_SNAPSHOT_MODE")

READY_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0
#: Whole seconds a run's leftover processes get to exit by themselves.
STRAGGLER_GRACE = 5
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory under ``ledger/out/`` (the ledger writes
    nowhere outside its checkout), removed on the way out."""
    path = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # Fields after the parenthesised command: state ppid pgrp ...
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(entry))
    return pids


def is_resource_tracker(pid: int) -> bool:
    """multiprocessing's resource tracker: it exits by itself once the
    processes that use it are dead, after unlinking the semaphores they
    left in ``/dev/shm`` — files outside the checkout that nothing else
    would ever remove."""
    try:
        return b"resource_tracker" in Path("/proc", str(pid), "cmdline").read_bytes()
    except OSError:
        return False  # already gone


def child_pids(parent: int) -> list[int]:
    """Pids, zombies included, whose parent is ``parent``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.append(int(entry))
    return pids


def run_supervised(run) -> int:
    """``run()`` in a forked child.  In the parent, returns the child's
    exit code once the child *and every process it left behind* have
    ended and been reaped; in the child, returns what ``run()`` does.

    A run leaves processes behind even when every ``ServerProcess`` is
    stopped: multiprocessing's resource tracker (the traced run starts
    an in-process fleet; every fleet server has one too) exits only
    after the process that started it has.  A command that returned
    while one was still alive would break the driver's rule that a run
    leaves nothing running.  So this process makes itself the *child
    subreaper*: orphans anywhere below it are re-parented to it, not to
    init, and ``waitpid(-1)`` keeps reaping until none is left.  What
    is still alive ``STRAGGLER_GRACE`` seconds after the run ended, or
    after this process was told to stop, is killed, generation by
    generation.

    Call before anything is printed or any thread started: it forks.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    worker = os.fork()
    if worker == 0:
        return run()  # the child carries on as the command and exits as usual

    def kill_children(*_) -> None:
        pids = child_pids(os.getpid())
        # Resource trackers last (see ``ServerProcess.kill``): only when
        # nothing else is left and they still have not exited.
        for pid in [pid for pid in pids if not is_resource_tracker(pid)] or pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        signal.alarm(1)  # their children are re-parented to us: next round

    def interrupt(*_) -> None:
        """Told to stop: let the run clean up (``KeyboardInterrupt``
        unwinds its ``finally`` blocks), then kill what is left."""
        if code is None:
            os.kill(worker, signal.SIGINT)
        signal.alarm(STRAGGLER_GRACE)

    code = None
    signal.signal(signal.SIGALRM, kill_children)
    signal.signal(signal.SIGTERM, interrupt)
    signal.signal(signal.SIGINT, interrupt)
    while True:
        try:
            pid, status = os.waitpid(-1, 0)
        except ChildProcessError:  # no descendant left
            signal.alarm(0)
            return code
        if pid == worker:
            code = os.waitstatus_to_exitcode(status)
            code = code if code >= 0 else 128 - code  # killed by a signal
            signal.alarm(STRAGGLER_GRACE)


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class ServerProcess:
    """One ``serve.py`` subprocess and everything it spawns."""

    def __init__(self, tier: str, snapshot, wal_dir=None) -> None:
        command = [
            sys.executable,
            str(LEDGER_DIR / "serve.py"),
            "--tier",
            tier,
            "--snapshot",
            str(snapshot),
        ]
        if wal_dir is not None:
            command += ["--wal-dir", str(wal_dir)]
        self.tier = tier
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE if tier == "cycle" else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(REPO_ROOT),
            text=True,
            start_new_session=True,  # own process group: killpg reaches workers
        )
        self.pgid = self.process.pid
        self.address = None
        self.peak_rss_mb = None

    # ------------------------------------------------------------------
    def wait_ready(self) -> None:
        """Block until the server answers; raises if it dies first."""
        line = self.process.stdout.readline().split()
        if not line:
            raise RuntimeError(
                f"serve.py ({self.tier}) exited with {self.process.wait()} "
                f"before becoming ready"
            )
        if self.tier == "cycle":
            return
        self.address = (line[1], int(line[2]))
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            try:
                status, _ = http_json(self.address, "GET", "/healthz")
            except OSError:
                status = None
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not healthy after {READY_TIMEOUT}s")
            time.sleep(0.02)

    def cycle(self, command: dict) -> dict:
        """One command/reply round trip with a ``cycle`` tier process."""
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError("cycle runner exited mid-run")
        return json.loads(reply)

    # ------------------------------------------------------------------
    def _record_rss(self) -> None:
        if self.process.poll() is None:
            self.peak_rss_mb = peak_rss_mb(group_pids(self.pgid))

    def stop(self) -> None:
        """Polite stop (SIGTERM / stdin EOF), then make sure of it."""
        self._record_rss()
        if self.process.poll() is None:
            if self.tier == "cycle":
                self.process.stdin.close()
            else:
                self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """``kill -9`` every process of the group, except its resource
        tracker (see ``is_resource_tracker``), and wait until all of
        them, the tracker too, have ended."""
        self._record_rss()
        for pid in group_pids(self.pgid):
            if not is_resource_tracker(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()
        deadline = time.monotonic() + STOP_TIMEOUT
        while group_pids(self.pgid):
            if time.monotonic() > deadline:
                os.killpg(self.pgid, signal.SIGKILL)
                raise RuntimeError(
                    f"processes outlived the server: {group_pids(self.pgid)}"
                )
            time.sleep(0.01)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
_JSON_HEADERS = {"Content-Type": "application/json"}


def http_request(address, method: str, path: str, body: bytes = None):
    """One request on a fresh connection -> ``(status, body bytes)``."""
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        conn.request(method, path, body, _JSON_HEADERS if body else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def http_json(address, method: str, path: str):
    status, body = http_request(address, method, path)
    return status, json.loads(body)


class ClosedLoopClient:
    """``slots`` closed-loop connections multiplexed on one thread.

    Each slot has at most one request in flight and sends its next one
    only after the previous reply is fully read.  ``run`` pulls ops from
    an iterator until it is exhausted or ``stop_at`` passes, and hands
    every completed op to ``on_done(op, status, body, began, seconds)``
    *after* the slot's next request is on the wire, so checking an
    answer overlaps with the server's work instead of idling it.

    The server answers HTTP/1.0 (``cluster.http`` sets no protocol
    version), so every request reconnects; that cost is the ``http``
    layer's and is measured as such.
    """

    def __init__(self, address, slots: int) -> None:
        self.address = address
        self.slots = slots

    def run(self, ops, on_done, stop_at=None) -> float:
        """Returns wall seconds from first send to last reply."""
        selector = selectors.DefaultSelector()
        ops = iter(ops)
        in_flight = 0

        def send(conn) -> bool:
            while stop_at is None or time.perf_counter() < stop_at:
                op = next(ops, None)
                if op is None:
                    return False
                began = time.perf_counter()
                try:
                    conn.request("POST", op["path"], op["body"], _JSON_HEADERS)
                except OSError:
                    conn.close()
                    on_done(op, None, b"", began, time.perf_counter() - began)
                    continue
                selector.register(conn.sock, selectors.EVENT_READ, (conn, op, began))
                return True
            return False

        conns = [
            http.client.HTTPConnection(*self.address, timeout=120)
            for _ in range(self.slots)
        ]
        start = time.perf_counter()
        try:
            for conn in conns:
                in_flight += send(conn)
            while in_flight:
                for key, _ in selector.select():
                    conn, op, began = key.data
                    selector.unregister(key.fileobj)
                    try:
                        response = conn.getresponse()
                        status, body = response.status, response.read()
                    except (OSError, http.client.HTTPException):
                        conn.close()
                        status, body = None, b""
                    seconds = time.perf_counter() - began
                    in_flight += send(conn) - 1
                    on_done(op, status, body, began, seconds)
            return time.perf_counter() - start
        finally:
            selector.close()
            for conn in conns:
                conn.close()
