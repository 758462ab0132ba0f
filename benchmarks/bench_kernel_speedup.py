"""Kernel speedup: the batched expansion engine vs the per-pop loops.

The workload is a fixed synthetic preferential-attachment graph
(20k nodes, 3 out-edges per node, seeded RNG — scale-free like the
paper's DBLP graph, big enough that frontier batches hit hub fan-ins)
queried with Bidirectional search for the top 10 answers joining the
two oldest hubs.  Expansion dominates this query: thousands of pops,
hub rows of hundreds of edges, a long steady-state frontier — the
regime the vectorized kernels exist for.

Two arms, one per ``expansion_backend`` value: ``python`` (the per-pop
loops) and ``vectorized`` (the batched engine).  Both emit through the
same release-bound gate in ``BaseSearch``, so the ratio measures
batching and vectorization alone (docs/PERFORMANCE.md, "Emission", has
what this bench read while only the batched engine was gated).  The
arms alternate rounds so machine drift hits both equally, and each
scores its *median* round — the ratio gate must not flake on one lucky
or unlucky round.

Asserted here (the perf-trend job additionally gates the published
ratio against ``baseline.json``):

* ``python`` and ``vectorized`` agree on the released (root, score)
  set — batching may re-decompose tied paths but must not change
  what the search finds;
* ``vectorized`` beats ``python`` by at least ``KERNEL_MIN_SPEEDUP``
  (env, default 1.3 — a loose local sanity floor under the measured
  1.9-2.1x; CI's ratio gate in ``benchmarks/baseline.json`` enforces
  the 1.5x bar).

This bench deliberately ignores ``REPRO_SCALE``: the speedup ratio is
workload-shape-sensitive, and the gate pins one shape.  The synthetic
graph costs ~2 s to build — no dataset generation involved.

Run directly (``python benchmarks/bench_kernel_speedup.py``) or under
pytest-benchmark.  ``BENCH_JSON_OUT`` appends one JSON row per arm.
"""

import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.bidirectional import BidirectionalSearch
from repro.core.params import SearchParams
from repro.experiments.common import Report, fmt
from repro.graph.digraph import DataGraph

from conftest import as_float, cell, emit_json, run_report

N_NODES = 20_000
OUT_EDGES = 3
GRAPH_SEED = 42
MAX_RESULTS = 10
DMAX = 8
NODE_BUDGET = 60_000
#: Batch size of the vectorized engine for this workload — that is,
#: the cancellation check interval: responsiveness stays within ~2
#: batches.
BATCH = 512
ARMS = ("python", "vectorized")
ROUNDS = 5
#: The in-bench floor (loose; see module docstring).
MIN_SPEEDUP = float(os.environ.get("KERNEL_MIN_SPEEDUP", "1.3"))


def build_graph():
    """Preferential attachment: each new node links to ``OUT_EDGES``
    earlier nodes biased toward high-degree ones (scale-free hubs)."""
    rng = random.Random(GRAPH_SEED)
    dg = DataGraph()
    for i in range(N_NODES):
        dg.add_node(f"n{i}")
    targets = [0]
    for v in range(1, N_NODES):
        for _ in range(OUT_EDGES):
            u = rng.choice(targets)
            if u != v:
                dg.add_edge(v, u, rng.uniform(0.5, 2.0))
        targets.extend([v] * 2)
    return dg.freeze()


def _params(backend: str) -> SearchParams:
    return SearchParams(
        expansion_backend=backend,
        max_results=MAX_RESULTS,
        dmax=DMAX,
        node_budget=NODE_BUDGET,
        cancel_check_interval=BATCH,
    )


def _search(graph, keyword_sets, backend: str):
    return BidirectionalSearch(
        graph, ("hub0", "hub1"), keyword_sets, params=_params(backend)
    ).run()


def _root_scores(result) -> list:
    """Order-insensitive (root, score) set — the agreement key."""
    return sorted(
        (a.tree.root, round(a.tree.score, 10)) for a in result.answers
    )


def run_kernel_speedup() -> Report:
    graph = build_graph()
    keyword_sets = [frozenset({0}), frozenset({1})]
    results = {}
    times: dict[str, list[float]] = {arm: [] for arm in ARMS}
    for arm in ARMS:  # warm caches (CSR build) off the clock
        results[arm] = _search(graph, keyword_sets, arm)
    for _ in range(ROUNDS):
        for arm in ARMS:
            start = time.perf_counter()
            results[arm] = _search(graph, keyword_sets, arm)
            times[arm].append(time.perf_counter() - start)

    median = {arm: statistics.median(times[arm]) for arm in ARMS}
    speedup = {arm: median["python"] / median[arm] for arm in ARMS}

    report = Report(
        experiment="kernel-speedup",
        title=(
            f"bidirectional top-{MAX_RESULTS} on a {N_NODES}-node "
            f"preferential-attachment graph, batch {BATCH}, "
            f"median of {ROUNDS} alternating rounds"
        ),
        headers=["backend", "median ms", "QPS", "speedup vs python"],
    )
    for arm in ARMS:
        row = {
            "experiment": "kernel-speedup",
            "mode": arm,
            "nodes": N_NODES,
            "batch": BATCH,
            "rounds": ROUNDS,
            "qps": 1.0 / median[arm],
            "latency_ms": median[arm] * 1000.0,
            "speedup_vs_python": speedup[arm],
            "answers": len(results[arm].answers),
        }
        emit_json(row)
        report.rows.append(
            [arm, fmt(median[arm] * 1000.0), fmt(row["qps"]), fmt(speedup[arm])]
        )

    # The engines agree on what the search finds.
    assert _root_scores(results["vectorized"]) == _root_scores(
        results["python"]
    ), "vectorized released a different (root, score) set than python"

    assert speedup["vectorized"] >= MIN_SPEEDUP, (
        f"vectorized speedup {speedup['vectorized']:.2f}x fell below the "
        f"{MIN_SPEEDUP:.1f}x floor (python {median['python'] * 1000:.0f} ms, "
        f"vectorized {median['vectorized'] * 1000:.0f} ms)"
    )
    report.notes.append(
        f"vectorized/python = {speedup['vectorized']:.2f}x "
        f"(floor {MIN_SPEEDUP:.1f}x; CI ratio gate 1.5x in baseline.json)"
    )
    return report


def test_kernel_speedup(benchmark):
    report = run_report(benchmark, run_kernel_speedup)
    for row in range(len(report.rows)):
        assert as_float(cell(report, row, 2)) > 0


if __name__ == "__main__":
    print(run_kernel_speedup().render())
