"""Benchmark harness glue.

Each benchmark runs one experiment from :mod:`repro.experiments` once
(``pedantic`` mode — these are macro-benchmarks whose interesting output
is the printed table, not a statistically tight timing), prints the
regenerated table, and applies *loose* shape assertions so a silently
broken reproduction fails the bench run.

Scale every dataset up or down with the ``REPRO_SCALE`` env var.
"""

from __future__ import annotations

import heapq
import json
import os
import time

#: ``(experiment, mode)`` of the row ``perf_trend.py`` divides every
#: other row by, and the loop behind it.
CALIBRATION = ("calibration", "python-loop")
CALIBRATION_PASSES = 50
CALIBRATION_ROUNDS = 5


def emit_json(row: dict) -> None:
    """Print one JSON result row; also append it to ``BENCH_JSON_OUT``
    when set (how CI collects rows as workflow artifacts)."""
    line = json.dumps(row)
    print(line)
    path = os.environ.get("BENCH_JSON_OUT")
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


def run_report(benchmark, fn, **kwargs):
    """Run ``fn`` under pytest-benchmark and print its Report."""
    report = benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)
    print()
    print(report.render())
    return report


def cell(report, row: int, col: int) -> str:
    return report.rows[row][col]


def as_float(text: str) -> float:
    return float(text.replace(",", ""))


def _calibration_pass() -> int:
    """One pass of the calibration loop: heap, dict and set traffic and
    float arithmetic over a fixed input (a logistic-map sequence), the
    operation mix of a search loop with no ``repro`` code in it — so a
    change to the engine moves every search row against it."""
    heap: list = []
    best: dict[int, float] = {}
    seen: set[int] = set()
    x = 0.5
    for i in range(4000):
        x = 3.9 * x * (1.0 - x)
        node = int(x * 997)
        if x > best.get(node, 0.0):
            best[node] = x
            heapq.heappush(heap, (-x, i, node))
        if i % 3 == 0 and heap:
            seen.add(heapq.heappop(heap)[2])
    return len(seen)


def emit_calibration_row() -> None:
    """Time the calibration loop (best of ``CALIBRATION_ROUNDS`` rounds
    of ``CALIBRATION_PASSES`` passes) and emit its row; ``qps`` is
    passes per second."""
    best = 0.0
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        for _ in range(CALIBRATION_PASSES):
            _calibration_pass()
        best = max(best, CALIBRATION_PASSES / (time.perf_counter() - start))
    experiment, mode = CALIBRATION
    emit_json({"experiment": experiment, "mode": mode, "qps": best})
