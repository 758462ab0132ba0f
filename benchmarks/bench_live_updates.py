"""Live updates under read traffic: QPS vs mutation rate + visibility.

The serving question this answers: what does ingesting updates cost a
read-heavy keyword-search service, and how fast does a committed write
become queryable?

The workload: ``NUM_OPS`` operations against a thread-tier
``QueryService`` over a synthetic DBLP dataset registered as a live
:class:`~repro.live.MutableDataset`.  A configurable slice of the
stream is mutation batches (insert a paper node + its authorship edge —
the example from the paper's own domain); the rest are cached/uncached
keyword reads.  Each mutation rate reports:

* **QPS** over the whole mixed stream (reads keep flowing while
  commits build epochs — MVCC means no reader ever blocks on a writer
  beyond the registry lock);
* **commit -> visibility latency**: after every ``apply`` returns, the
  freshly inserted unique term is queried immediately; the paper must
  be in the answers on the *first* try (visibility is the commit
  itself, not an eventual refresh), and the measured latency is that
  first post-commit query's wall time;
* the result-cache hit rate, showing version-keyed invalidation at
  work: higher mutation rates shred the cache exactly as they should.

A final arm re-runs the highest mutation rate with a durable WAL
attached (:mod:`repro.wal`, the ``"batched"`` sync default), measuring
what crash-recoverable commits cost the mixed stream.

Assertions: every inserted paper is visible on the first post-commit
query; QPS stays positive; the zero-mutation arm's hit rate exceeds
the mutating arms'; the WAL arm keeps at least 85% of the equivalent
in-memory arm's QPS (the < 15% durability-overhead acceptance bar).

Env knobs: ``REPRO_SCALE`` scales the dataset; ``BENCH_JSON_OUT``
appends JSON rows to a file.

Run directly (``python benchmarks/bench_live_updates.py``) or under
pytest-benchmark.
"""

import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import Report, build_bench, fmt
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode
from repro.service import QueryRequest, QueryService

from conftest import as_float, cell, emit_json, run_report

NUM_OPS = 400
MUTATION_PERCENTS = (0, 5, 20)
READ_QUERY_POOL = 12


def _read_queries(engine) -> list[str]:
    """Mid-frequency two-keyword queries (repeat often enough that the
    cache matters, vary enough that it is not a single hot entry)."""
    by_freq = engine.index.terms_by_frequency()
    mids = [term for term, freq in by_freq if 5 <= freq <= 60]
    assert len(mids) >= 2 * READ_QUERY_POOL, (
        f"dataset too small ({len(by_freq)} terms); raise REPRO_SCALE"
    )
    return [
        f"{mids[i]} {mids[i + READ_QUERY_POOL]}" for i in range(READ_QUERY_POOL)
    ]


def _mutation_batch(sequence: int, author_node: int, conference_node: int) -> list:
    """Insert one paper with a unique title term plus its edges."""
    title = f"livepaper{sequence} incremental overlays"
    return [
        AddNode(label=title, table="paper", text=title),
        AddEdge(u=-1, v=conference_node),
        AddNode(label=f"writes:{sequence}", table="writes"),
        AddEdge(u=-2, v=-1),
        AddEdge(u=-2, v=author_node),
    ]


def _run_mode(engine, percent: int, reads: list[str], wal_path=None) -> dict:
    service = QueryService(max_workers=4)
    dataset = MutableDataset.from_engine(engine, compact_ratio=None)
    service.register_mutable("dblp", dataset)
    if wal_path is not None:
        service.attach_wal("dblp", wal_path)
    graph = engine.graph
    author = next(n for n in graph.nodes() if graph.table(n) == "author")
    conference = next(n for n in graph.nodes() if graph.table(n) == "conference")

    mutation_every = (100 // percent) if percent else None
    visibility: list[float] = []
    mutations = 0
    start = time.perf_counter()
    for i in range(NUM_OPS):
        if mutation_every is not None and i % mutation_every == 0:
            result = service.apply(
                "dblp", _mutation_batch(i, author, conference)
            )
            mutations += 1
            probe_start = time.perf_counter()
            response = service.search(
                QueryRequest("dblp", f"livepaper{i}", k=5)
            )
            visibility.append(time.perf_counter() - probe_start)
            response.raise_for_error()
            answer_nodes = {
                node
                for answer in response.result.answers
                for path in answer.tree.paths
                for node in path
            }
            assert result.new_nodes[0] in answer_nodes, (
                f"inserted paper invisible right after commit (op {i})"
            )
        else:
            service.search(QueryRequest("dblp", reads[i % len(reads)], k=5))
    elapsed = time.perf_counter() - start
    stats = service.metrics()
    service.close(wait=False)
    return {
        "experiment": "live-updates",
        "mode": f"{percent}% mutations" + (" + WAL" if wal_path else ""),
        "wal": wal_path is not None,
        "mutation_percent": percent,
        "ops": NUM_OPS,
        "mutations": mutations,
        "seconds": elapsed,
        "qps": NUM_OPS / elapsed,
        "visibility_p50_ms": (
            sorted(visibility)[len(visibility) // 2] * 1000.0
            if visibility
            else None
        ),
        "visibility_max_ms": max(visibility) * 1000.0 if visibility else None,
        "cache_hit_rate": stats["cache_hit_rate"],
        "final_version": stats["datasets"]["versions"]["dblp"],
    }


def run_live_updates() -> Report:
    bench = build_bench("dblp")
    reads = _read_queries(bench.engine)
    report = Report(
        experiment="live-updates",
        title=(
            f"{NUM_OPS} mixed ops on synthetic DBLP "
            f"({bench.engine.graph.num_nodes} nodes): reads + live inserts"
        ),
        headers=[
            "mode",
            "QPS",
            "commit->visible p50 (ms)",
            "max (ms)",
            "cache hit rate",
            "epochs",
        ],
    )
    rows = [_run_mode(bench.engine, percent, reads) for percent in MUTATION_PERCENTS]
    with tempfile.TemporaryDirectory() as tmp:
        rows.append(
            _run_mode(
                bench.engine,
                MUTATION_PERCENTS[-1],
                reads,
                wal_path=Path(tmp) / "dblp.wal",
            )
        )
    for row in rows:
        emit_json(row)
        report.rows.append(
            [
                row["mode"],
                fmt(row["qps"]),
                fmt(row["visibility_p50_ms"], 2)
                if row["visibility_p50_ms"] is not None
                else "-",
                fmt(row["visibility_max_ms"], 2)
                if row["visibility_max_ms"] is not None
                else "-",
                fmt(row["cache_hit_rate"], 3),
                str(row["final_version"]),
            ]
        )
    assert all(row["qps"] > 0 for row in rows)
    # Version-keyed invalidation must actually shred the cache as the
    # mutation rate rises; the read-only arm keeps the best hit rate.
    assert rows[0]["cache_hit_rate"] >= rows[-1]["cache_hit_rate"], (
        "read-only arm should have the best cache hit rate"
    )
    # Durability bar: journaling at the batched-fsync default must cost
    # the mixed stream less than 15% QPS vs the in-memory equivalent.
    wal_row = rows[-1]
    memory_row = next(
        row
        for row in rows
        if row["mutation_percent"] == wal_row["mutation_percent"]
        and not row["wal"]
    )
    overhead = 1.0 - wal_row["qps"] / memory_row["qps"]
    assert wal_row["qps"] >= 0.85 * memory_row["qps"], (
        f"WAL overhead {overhead:.1%} exceeds the 15% budget "
        f"({wal_row['qps']:.0f} vs {memory_row['qps']:.0f} QPS)"
    )
    report.notes.append(
        f"WAL (batched fsync) QPS overhead at "
        f"{wal_row['mutation_percent']}% mutations: {overhead:+.1%} "
        f"(budget < 15%)"
    )
    report.notes.append(
        "every inserted paper was queryable on the first post-commit "
        "request (visibility == commit latency, no refresh delay)"
    )
    report.notes.append(
        f"dataset scale knob REPRO_SCALE={os.environ.get('REPRO_SCALE', '1.0')}"
    )
    return report


def test_live_updates(benchmark):
    report = run_report(benchmark, run_live_updates)
    for row in range(len(report.rows)):
        assert as_float(cell(report, row, 1)) > 0


if __name__ == "__main__":
    print(run_live_updates().render())
