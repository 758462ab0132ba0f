"""FIG4 bench: the paper's Figure 4 worked example.

Regenerates the explored/touched counts of Section 4.4 and asserts the
paper's headline: Bidirectional generates the co-authorship answer
after exploring an order of magnitude fewer nodes than Backward search.

Run as a script it also times the worked-example query (Bidirectional)
and emits one JSON row (``figure4/bidirectional``) for the perf-trend
gate.  This is a deliberately tiny graph: the row pins small-query
overhead.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import Report, fmt
from repro.experiments.figure4 import build_figure4_engine, run_figure4

from conftest import as_float, emit_calibration_row, emit_json, run_report


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


ROUNDS = 5


def run_latency_figure4() -> Report:
    """Trend row: the worked-example query's median latency."""
    emit_calibration_row()
    engine, meta = build_figure4_engine()
    engine.search("database james john")  # warm the engine off the clock
    times: list[float] = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = engine.search("database james john")
        times.append(time.perf_counter() - start)
        best = result.best()
        assert best is not None and meta["co_paper"] in best.tree.nodes()

    median = statistics.median(times)
    report = Report(
        experiment="figure4",
        title=f"worked-example query, median of {ROUNDS} rounds",
        headers=["algorithm", "median ms", "QPS"],
    )
    emit_json(
        {
            "experiment": "figure4",
            "mode": "bidirectional",
            "rounds": ROUNDS,
            "qps": 1.0 / median,
            "latency_ms": median * 1000.0,
        }
    )
    report.rows.append(["bidirectional", fmt(median * 1000.0), fmt(1.0 / median)])
    return report


def test_latency_figure4_row(benchmark):
    report = run_report(benchmark, run_latency_figure4)
    assert len(report.rows) == 1


if __name__ == "__main__":
    print(run_latency_figure4().render())
