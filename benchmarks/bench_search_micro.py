"""Micro-benchmarks: raw end-to-end latency of each algorithm on a
fixed mid-skew query (statistically tight, multiple rounds) — the
absolute-seconds companion to the ratio tables.

Run as a script (``python benchmarks/bench_search_micro.py``) it times
the three algorithms on that dblp query, and Bidirectional on one long
expansion: the top 10 answers joining the two oldest hubs of a
20k-node preferential-attachment graph (3 out-edges per node, seeded
RNG — scale-free like the paper's DBLP graph, so thousands of pops
over hub rows of hundreds of edges).  It emits one JSON row per arm
(``search-micro/<arm>``) for the perf-trend gate.  The
preferential-attachment arm ignores ``REPRO_SCALE``: it pins one shape,
and builds in about two seconds with no dataset generation.
"""

import random
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.bidirectional import BidirectionalSearch
from repro.core.params import SearchParams
from repro.experiments.common import Report, build_bench, fmt, workload_rng
from repro.graph.digraph import DataGraph


def dblp_query():
    """The dblp bench and the keywords of its fixed mid-skew query."""
    bench = build_bench("dblp", 0.4)
    rng = workload_rng(31337)
    query = bench.generator.sample_query(
        rng, n_keywords=3, result_size=4, band_combo=("T", "S", "L")
    )
    assert query is not None
    return bench, list(query.keywords)


@pytest.fixture(scope="module")
def setup():
    return dblp_query()


@pytest.mark.parametrize("algorithm", ["bidirectional", "si-backward", "mi-backward"])
def test_search_latency(benchmark, setup, algorithm):
    bench, keywords = setup
    result = benchmark(
        lambda: bench.engine.search(keywords, algorithm=algorithm)
    )
    assert result.stats.nodes_explored > 0


def test_prestige_latency(benchmark, setup):
    bench, _ = setup
    from repro.graph.prestige import compute_prestige

    vector = benchmark(lambda: compute_prestige(bench.engine.graph))
    assert abs(float(vector.sum()) - 1.0) < 1e-6


def test_graph_build_latency(benchmark, setup):
    bench, _ = setup
    from repro.graph.builder import build_search_graph

    graph = benchmark(
        lambda: build_search_graph(bench.db, compute_prestige=False)
    )
    assert graph.num_nodes == bench.engine.graph.num_nodes


ALGORITHMS = ("bidirectional", "si-backward", "mi-backward")
PA_NODES = 20_000
PA_OUT_EDGES = 3
PA_SEED = 42
PA_PARAMS = SearchParams(max_results=10, dmax=8, node_budget=60_000)
ROUNDS = 5


def preferential_attachment_graph():
    """Each new node links to ``PA_OUT_EDGES`` earlier nodes, biased
    toward high-degree ones (scale-free hubs)."""
    rng = random.Random(PA_SEED)
    dg = DataGraph()
    for i in range(PA_NODES):
        dg.add_node(f"n{i}")
    targets = [0]
    for v in range(1, PA_NODES):
        for _ in range(PA_OUT_EDGES):
            u = rng.choice(targets)
            if u != v:
                dg.add_edge(v, u, rng.uniform(0.5, 2.0))
        targets.extend([v] * 2)
    return dg.freeze()


def arms() -> dict:
    """Arm name -> a zero-argument search returning its result."""
    bench, keywords = dblp_query()
    searches = {
        algo: partial(bench.engine.search, keywords, algorithm=algo)
        for algo in ALGORITHMS
    }
    graph = preferential_attachment_graph()
    hubs = [frozenset({0}), frozenset({1})]
    searches["pa20k-bidirectional"] = lambda: BidirectionalSearch(
        graph, ("hub0", "hub1"), hubs, params=PA_PARAMS
    ).run()
    return searches


def run_micro() -> Report:
    """Trend rows: one median latency per arm, arms alternated per
    round so machine drift hits every cell equally."""
    from conftest import emit_calibration_row, emit_json

    emit_calibration_row()
    searches = arms()
    times: dict[str, list[float]] = {arm: [] for arm in searches}
    for search in searches.values():  # warm engine and row caches off the clock
        search()
    for _ in range(ROUNDS):
        for arm, search in searches.items():
            start = time.perf_counter()
            result = search()
            times[arm].append(time.perf_counter() - start)
            assert result.stats.nodes_explored > 0

    report = Report(
        experiment="search-micro",
        title=f"per-arm search latency, median of {ROUNDS} alternating rounds",
        headers=["arm", "median ms", "QPS"],
    )
    for arm, samples in times.items():
        median = statistics.median(samples)
        emit_json(
            {
                "experiment": "search-micro",
                "mode": arm,
                "rounds": ROUNDS,
                "qps": 1.0 / median,
                "latency_ms": median * 1000.0,
            }
        )
        report.rows.append([arm, fmt(median * 1000.0), fmt(1.0 / median)])
    return report


def test_micro_rows(benchmark):
    from conftest import run_report

    report = run_report(benchmark, run_micro)
    assert len(report.rows) == len(ALGORITHMS) + 1


if __name__ == "__main__":
    print(run_micro().render())
