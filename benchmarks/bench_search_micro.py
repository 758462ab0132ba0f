"""Micro-benchmarks: raw end-to-end latency of each algorithm on a
fixed mid-skew query (statistically tight, multiple rounds) — the
absolute-seconds companion to the ratio tables.

Run as a script (``python benchmarks/bench_search_micro.py``) it times
SI-Backward and Bidirectional under the ``python`` and ``vectorized``
expansion backends, and MI-Backward once (it runs one loop under either
value), and emits one JSON row per (algorithm, backend) arm
(``search-micro/<algorithm>-<backend>``) for the perf-trend gate.  On
this small, quickly-terminating workload batches never fill, so the
kernel win here is modest by design — the ≥1.5x ratio gate lives on
``bench_kernel_speedup.py``'s expansion-dominated workload; these rows
pin the *default-deployment* latency of both backends against drift.
"""

import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import Report, build_bench, fmt, workload_rng


@pytest.fixture(scope="module")
def setup():
    bench = build_bench("dblp", 0.4)
    rng = workload_rng(31337)
    query = bench.generator.sample_query(
        rng, n_keywords=3, result_size=4, band_combo=("T", "S", "L")
    )
    assert query is not None
    return bench, list(query.keywords)


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
BACKEND_ARMS = ("python", "vectorized")
#: MI-Backward runs the same loop under both values: a second arm would
#: time it twice and a ratio of the two could only gate noise.
ARMS = [
    (algo, backend)
    for algo in ALGORITHMS
    for backend in BACKEND_ARMS
    if algo != "mi-backward" or backend == "python"
]
ROUNDS = 5


def run_backend_micro() -> Report:
    """Trend rows: per-algorithm latency under both expansion backends
    on the fixed mid-skew dblp query, arms alternated per round so
    machine drift hits every cell equally, median scored."""
    from conftest import emit_json

    bench = build_bench("dblp", 0.4)
    rng = workload_rng(31337)
    query = bench.generator.sample_query(
        rng, n_keywords=3, result_size=4, band_combo=("T", "S", "L")
    )
    assert query is not None
    keywords = list(query.keywords)
    params = {
        backend: bench.engine.params.with_(expansion_backend=backend)
        for backend in BACKEND_ARMS
    }

    def _search(algo, backend):
        return bench.engine.search(
            keywords, algorithm=algo, params=params[backend]
        )

    times: dict[tuple, list[float]] = {arm: [] for arm in ARMS}
    for algo, backend in ARMS:  # warm engine + CSR caches off the clock
        _search(algo, backend)
    for _ in range(ROUNDS):
        for algo, backend in ARMS:
            start = time.perf_counter()
            result = _search(algo, backend)
            times[(algo, backend)].append(time.perf_counter() - start)
            assert result.stats.nodes_explored > 0

    median = {arm: statistics.median(ts) for arm, ts in times.items()}
    report = Report(
        experiment="search-micro",
        title=(
            f"per-algorithm latency, python vs vectorized backend, "
            f"median of {ROUNDS} alternating rounds"
        ),
        headers=["algorithm", "backend", "median ms", "QPS", "vs python"],
    )
    for algo, backend in ARMS:
        qps = 1.0 / median[(algo, backend)]
        speedup = median[(algo, "python")] / median[(algo, backend)]
        emit_json(
            {
                "experiment": "search-micro",
                "mode": f"{algo}-{backend}",
                "rounds": ROUNDS,
                "qps": qps,
                "latency_ms": median[(algo, backend)] * 1000.0,
                "speedup_vs_python": speedup,
            }
        )
        report.rows.append(
            [
                algo,
                backend,
                fmt(median[(algo, backend)] * 1000.0),
                fmt(qps),
                fmt(speedup),
            ]
        )
    return report


def test_backend_micro_rows(benchmark):
    from conftest import run_report

    report = run_report(benchmark, run_backend_micro)
    assert len(report.rows) == len(ARMS)


if __name__ == "__main__":
    print(run_backend_micro().render())
