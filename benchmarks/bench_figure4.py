"""FIG4 bench: the paper's Figure 4 worked example.

Regenerates the explored/touched counts of Section 4.4 and asserts the
paper's headline: Bidirectional generates the co-authorship answer
after exploring an order of magnitude fewer nodes than Backward search.

Run as a script it also times the worked-example query under the
``python`` and ``vectorized`` expansion backends and emits one JSON
row per arm (``figure4/<backend>``) for the perf-trend gate.  This is
a deliberately tiny graph — the batched kernels have nothing to
vectorize here, so the rows pin small-query overhead (no speedup
floor; the ≥1.5x ratio gate lives on ``bench_kernel_speedup.py``).
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import Report, fmt
from repro.experiments.figure4 import build_figure4_engine, run_figure4

from conftest import as_float, emit_json, run_report


def test_figure4_worked_example(benchmark):
    report = run_report(benchmark, run_figure4)
    rows = {row[0]: row for row in report.rows}
    bidi_gen = as_float(rows["bidirectional"][1])
    si_gen = as_float(rows["si-backward"][1])
    mi_gen = as_float(rows["mi-backward"][1])
    # Paper: ~4 vs >=151 explored; generous slack for implementation
    # differences in what counts as a pop.
    assert bidi_gen * 5 <= si_gen
    assert bidi_gen * 5 <= mi_gen
    assert all(row[5] == "True" for row in report.rows)


def test_figure4_answer_is_coauthored_paper(benchmark):
    def run():
        engine, meta = build_figure4_engine()
        return engine.search("database james john"), meta

    result, meta = benchmark.pedantic(run, rounds=1, iterations=1)
    best = result.best()
    assert best is not None
    assert meta["co_paper"] in best.tree.nodes()
    assert meta["james"] in best.tree.nodes()
    assert meta["john"] in best.tree.nodes()


BACKEND_ARMS = ("python", "vectorized")
ROUNDS = 5


def run_backend_figure4() -> Report:
    """Trend rows: the worked-example query under both backends,
    arms alternated per round, median scored."""
    engine, meta = build_figure4_engine()
    params = {
        backend: engine.params.with_(expansion_backend=backend)
        for backend in BACKEND_ARMS
    }

    def _search(backend):
        return engine.search("database james john", params=params[backend])

    times: dict[str, list[float]] = {arm: [] for arm in BACKEND_ARMS}
    for backend in BACKEND_ARMS:  # warm engine + CSR caches off the clock
        _search(backend)
    for _ in range(ROUNDS):
        for backend in BACKEND_ARMS:
            start = time.perf_counter()
            result = _search(backend)
            times[backend].append(time.perf_counter() - start)
            best = result.best()
            assert best is not None and meta["co_paper"] in best.tree.nodes()

    median = {arm: statistics.median(ts) for arm, ts in times.items()}
    report = Report(
        experiment="figure4",
        title=(
            f"worked-example query, python vs vectorized backend, "
            f"median of {ROUNDS} alternating rounds"
        ),
        headers=["backend", "median ms", "QPS", "vs python"],
    )
    for backend in BACKEND_ARMS:
        qps = 1.0 / median[backend]
        speedup = median["python"] / median[backend]
        emit_json(
            {
                "experiment": "figure4",
                "mode": backend,
                "rounds": ROUNDS,
                "qps": qps,
                "latency_ms": median[backend] * 1000.0,
                "speedup_vs_python": speedup,
            }
        )
        report.rows.append(
            [backend, fmt(median[backend] * 1000.0), fmt(qps), fmt(speedup)]
        )
    return report


def test_backend_figure4_rows(benchmark):
    report = run_report(benchmark, run_backend_figure4)
    assert len(report.rows) == len(BACKEND_ARMS)


if __name__ == "__main__":
    print(run_backend_figure4().render())
