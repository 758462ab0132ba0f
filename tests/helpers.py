"""Shared test utilities: graph builders, answer-tree validation, the
cyclic-garbage census, a snapshot-file rewriter, a fresh-interpreter
runner and a raw-socket HTTP client."""

from __future__ import annotations

import gc
import itertools
import json
import random
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Sequence
from unittest import mock

import numpy as np

from repro.core.answer import AnswerTree, is_minimal_rooting
from repro.core.cancellation import CancellationToken
from repro.core.scoring import Scorer
from repro.graph.digraph import DataGraph
from repro.graph.searchgraph import SearchGraph

__all__ = [
    "build_graph",
    "cancel_at_tick",
    "combo_cap",
    "reloaded",
    "random_data_graph",
    "random_keyword_sets",
    "validate_answer_tree",
    "edge_weight_of",
    "expand",
    "assert_no_cyclic_garbage",
    "rewrite_snapshot",
    "run_python",
    "RawHTTP",
    "http_threads",
    "wait_until",
]


def build_graph(
    n_nodes: int,
    edges: Sequence[tuple[int, int]] | Sequence[tuple[int, int, float]],
    *,
    prestige=None,
) -> SearchGraph:
    """A frozen search graph from an explicit edge list."""
    graph = DataGraph()
    for i in range(n_nodes):
        graph.add_node(f"n{i}")
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            graph.add_edge(u, v)
        else:
            u, v, w = edge
            graph.add_edge(u, v, w)
    return graph.freeze(prestige=prestige)


def cancel_at_tick(n: int) -> CancellationToken:
    """A token that fires (reason ``"cancelled"``) at its ``n``-th
    ``tick()`` (the first when ``n <= 1``): a full check every tick,
    whose external probe answers true from its ``n``-th call on — exact,
    deterministic cut points for the cancellation tests."""
    calls = itertools.count(1)
    return CancellationToken(check_every=1, external_check=lambda: next(calls) >= n)


def reloaded(graph: SearchGraph, mode: str = "mapped") -> SearchGraph:
    """``graph`` saved to a snapshot and loaded back in storage ``mode``:
    the lazy ``MappedSearchGraph`` a snapshot-backed engine searches,
    whose adjacency rows materialize on first touch."""
    from repro.index.inverted import InvertedIndex
    from repro.service.snapshot import load_snapshot, save_snapshot

    with tempfile.TemporaryDirectory() as tmp:
        path = save_snapshot(Path(tmp) / "graph.snap", graph, InvertedIndex())
        loaded, _ = load_snapshot(path, storage_mode=mode)
    return loaded


def replayed(log, graph, index, start: int = 0):
    """A live dataset over ``graph`` + ``index`` (no compaction) with
    ``log``'s records past ``start`` applied through the one recovery
    path, :meth:`~repro.live.MutableDataset.replay_records`."""
    from repro.live import MutableDataset

    dataset = MutableDataset(graph, index, compact_ratio=None)
    dataset.replay_records(log.records(start_after=start), expected=start + 1)
    return dataset


@contextmanager
def pins(nodes: int, terms: int):
    """Snapshot loads inside the block pin ``nodes`` rows per ranking and
    ``terms`` posting lists (the patched ``PIN_NODES`` / ``PIN_TERMS``
    of :mod:`repro.storage.mapped`)."""
    with mock.patch.multiple(
        "repro.storage.mapped", PIN_NODES=nodes, PIN_TERMS=terms
    ):
        yield


@contextmanager
def combo_cap(cap: int):
    """MI-Backward searches inside the block emit at most ``cap`` origin
    combinations per node (the patched
    ``BackwardExpandingSearch.MAX_COMBOS_PER_NODE``)."""
    from repro.core.backward_mi import BackwardExpandingSearch

    with mock.patch.object(BackwardExpandingSearch, "MAX_COMBOS_PER_NODE", cap):
        yield


def expand(state, node: int, *, forward: bool = False, act=None) -> list[int]:
    """One node expansion on a ``PathState``, driven the way the per-pop
    loops drive it: mark ``node`` expanded (backward unless
    ``forward``), explore its edge list, then spread its activation
    over the same edges if an ``ActivationState`` is given.  Returns
    the emitted completions in order."""
    graph = state.graph
    emitted: list[int] = []
    if forward:
        state.expanded_out.add(node)
        edges, norm = graph.out_edges(node), graph.out_inv_weight_sum(node)
        for v, w, _ in edges:
            state.explore_edge(node, v, w, emitted.append)
    else:
        state.expanded_in.add(node)
        edges, norm = graph.in_edges(node), graph.in_inv_weight_sum(node)
        for u, w, _ in edges:
            state.explore_edge(u, node, w, emitted.append)
    if act is not None:
        act.spread(node, edges, norm)
    return emitted


def random_data_graph(
    rng: random.Random,
    *,
    n_nodes: int,
    n_edges: int,
    max_weight: float = 3.0,
) -> SearchGraph:
    """A random simple digraph (no parallel edges, no self loops).

    Guaranteed weakly connected-ish by first laying a random spanning
    chain, then sprinkling extra edges.
    """
    graph = DataGraph()
    for i in range(n_nodes):
        graph.add_node(f"n{i}")
    used: set[tuple[int, int]] = set()
    order = list(range(n_nodes))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        u, v = (a, b) if rng.random() < 0.5 else (b, a)
        used.add((u, v))
        graph.add_edge(u, v, 1.0 + rng.random() * (max_weight - 1.0))
    attempts = 0
    while len(used) < n_edges and attempts < n_edges * 20:
        attempts += 1
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        if u == v or (u, v) in used:
            continue
        used.add((u, v))
        graph.add_edge(u, v, 1.0 + rng.random() * (max_weight - 1.0))
    return graph.freeze()


def random_keyword_sets(
    rng: random.Random, graph: SearchGraph, *, k: int, max_size: int = 3
) -> list[frozenset[int]]:
    """k non-empty random keyword node sets."""
    sets = []
    for _ in range(k):
        size = rng.randint(1, max_size)
        sets.append(frozenset(rng.sample(range(graph.num_nodes), size)))
    return sets


def edge_weight_of(graph: SearchGraph, u: int, v: int) -> Optional[float]:
    """Minimum weight among edges u -> v in the search graph, or None."""
    weights = [w for target, w, _ in graph.out_edges(u) if target == v]
    return min(weights) if weights else None


def validate_answer_tree(
    graph: SearchGraph,
    keyword_sets: Sequence[frozenset[int]],
    tree: AnswerTree,
) -> None:
    """Assert every structural and scoring invariant of an answer tree."""
    assert len(tree.paths) == len(keyword_sets)
    for i, path in enumerate(tree.paths):
        assert path[0] == tree.root, "path must start at the root"
        assert path[-1] in keyword_sets[i], "path must end on a keyword node"
        # Parallel edges (a forward edge and a derived backward edge may
        # join the same pair) make the exact step weights ambiguous from
        # the path alone; the recorded dist must lie between the
        # cheapest and the costliest edge choice per step.
        min_total = 0.0
        max_total = 0.0
        for u, v in zip(path, path[1:]):
            weights = [w for target, w, _ in graph.out_edges(u) if target == v]
            assert weights, f"({u},{v}) is not a graph edge"
            min_total += min(weights)
            max_total += max(weights)
        assert min_total - 1e-6 <= tree.dists[i] <= max_total + 1e-6, (
            "recorded dist is not a realizable path weight"
        )
    assert is_minimal_rooting(tree.root, tree.paths)

    scorer = Scorer(graph)
    rebuilt = scorer.build_tree(tree.root, tree.paths, tree.dists)
    assert abs(rebuilt.edge_score - tree.edge_score) < 1e-9
    assert abs(rebuilt.node_score - tree.node_score) < 1e-9
    assert abs(rebuilt.score - tree.score) < 1e-9


def assert_no_cyclic_garbage(fn: Callable[[], object]) -> None:
    """Run ``fn`` with the cyclic collector off, then fail if anything
    of ours it left behind was only reclaimable by that collector.

    The release contract (docs/PERFORMANCE.md "Memory"): search and
    serving state is freed by refcount the moment it is finished.  With
    ``DEBUG_SAVEALL`` a collection keeps what it found unreachable in
    ``gc.garbage``; any such object whose type lives under ``repro.``
    was part of (or hung off) a reference cycle.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        del gc.garbage[:]
        fn()
        gc.collect()
        ours = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
    assert not ours, f"cyclic garbage left behind: {dict(ours.most_common(12))}"


def rewrite_snapshot(
    src, dst, edit: Callable[[dict, dict], None], *, fix_crc: bool = True
) -> Path:
    """Copy snapshot ``src`` to ``dst`` with ``edit(header, arrays)``
    applied in between — how the corruption tests build damaged files.

    An independent reader/writer of the layout docs/STORAGE.md
    describes (magic, ``<Q`` header length, JSON header, 4096-aligned
    arrays).  ``arrays`` maps name to a writable copy; ``edit`` may
    replace, resize or delete entries and change header fields.  The
    array table is rebuilt from what is left; ``fix_crc=False`` keeps
    the old checksums, so the edit looks like on-disk damage.
    """
    magic = b"\x93REPROMAP2\n"
    align = lambda n: -(-n // 4096) * 4096  # noqa: E731
    raw = Path(src).read_bytes()
    assert raw.startswith(magic)
    (header_len,) = struct.unpack_from("<Q", raw, len(magic))
    head = len(magic) + 8
    header = json.loads(raw[head : head + header_len])
    data_start = align(head + header_len)
    arrays = {}
    for name, entry in header["arrays"].items():
        count = int(np.prod(entry["shape"]))
        arrays[name] = np.frombuffer(
            raw, np.dtype(entry["dtype"]), count, data_start + entry["offset"]
        ).reshape(entry["shape"]).copy()
    old_table = header["arrays"]
    edit(header, arrays)
    table, offset = {}, 0
    for name, arr in arrays.items():
        arr = arrays[name] = np.ascontiguousarray(arr)
        table[name] = {
            "offset": offset,
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "crc32": zlib.crc32(arr.tobytes())
            if fix_crc or name not in old_table
            else old_table[name]["crc32"],
        }
        offset = align(offset + arr.nbytes)
    if header.get("arrays") is old_table:  # edit() may have replaced it
        header["arrays"] = table
    blob = json.dumps(header).encode("utf-8")
    data_start = align(head + len(blob))
    out = bytearray(data_start + offset)
    out[:head] = magic + struct.pack("<Q", len(blob))
    out[head : head + len(blob)] = blob
    for name, arr in arrays.items():
        start = data_start + table[name]["offset"]
        out[start : start + arr.nbytes] = arr.tobytes()
    Path(dst).write_bytes(bytes(out))
    return Path(dst)


# ----------------------------------------------------------------------
# a fresh interpreter over the checkout's sources
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(
    code: str, *argv: str, timeout: float = 120
) -> subprocess.CompletedProcess:
    """Run ``code`` (``sys.argv[1:]`` = ``argv``) in a fresh interpreter
    whose ``""`` path entry is the checkout's ``src/`` (not an install):
    what a test of import behaviour needs, since this process has
    everything loaded."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ----------------------------------------------------------------------
# HTTP over a raw socket: what the keep-alive, pipelining and hostile
# input tests need that urllib (one ``Connection: close`` per call) hides
# ----------------------------------------------------------------------
class RawHTTP:
    """One TCP connection to a ``cluster.http`` server.  ``send`` writes
    bytes as given; ``request`` frames a well-formed request;
    ``response`` reads one reply, checking the framing every reply must
    have, and returns ``(status, headers, body)`` — or ``None`` when the
    server closed the connection cleanly instead."""

    def __init__(self, server, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection(server.server_address[:2], timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self) -> "RawHTTP":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    @staticmethod
    def frame(method, path, obj=None, *, version="HTTP/1.1", headers=()) -> bytes:
        body = b"" if obj is None else json.dumps(obj).encode("utf-8")
        lines = [f"{method} {path} {version}", "Host: test", *headers]
        if body:
            lines.append(f"Content-Length: {len(body)}")
        return "\r\n".join(lines + ["", ""]).encode("latin-1") + body

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def request(self, method, path, obj=None, **kwargs):
        self.send(self.frame(method, path, obj, **kwargs))
        return self.response()

    def response(self):
        status_line = self.reader.readline()
        if not status_line:
            return None
        version, status, phrase = status_line.decode("latin-1").split(" ", 2)
        assert version == "HTTP/1.1" and status_line.endswith(b"\r\n"), status_line
        assert status.isdigit() and phrase.strip(), status_line
        headers = {}
        while (line := self.reader.readline()) != b"\r\n":
            assert line.endswith(b"\r\n"), f"truncated head: {line!r}"
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if int(status) < 200:
            return int(status), headers, b""
        body = self.reader.read(int(headers["content-length"]))
        assert len(body) == int(headers["content-length"]), "truncated body"
        return int(status), headers, body

    def closed_by_server(self, timeout: float = 5.0) -> bool:
        """True once the server's EOF arrives with nothing before it."""
        self.sock.settimeout(timeout)
        try:
            return self.reader.read(1) == b""
        except OSError:
            return False


def http_threads(prefix: str = "repro-http-") -> list[str]:
    """Names of the live threads the HTTP front started: one
    ``repro-http-connection`` per open connection, one
    ``repro-http-disconnect-watch`` per connection that has searched."""
    return sorted(t.name for t in threading.enumerate() if t.name.startswith(prefix))


def wait_until(condition: Callable[[], object], timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True

