"""Telemetry overhead: QPS with tracing and accounting on vs off.

Two observability bars:

* end-to-end tracing (a span per stage; the per-pop trajectory is
  sampled only by an ``explain=True`` search) must cost the
  serving path **less than 5% QPS** against the untraced arm.  Spans
  are a handful of dict writes around a graph search that costs
  milliseconds; if this budget ever fails, a span crept into a per-pop
  loop;
* per-query resource accounting (cost counters + fingerprint sketch,
  explain **off**) must cost **less than 3% QPS** against the untraced
  arm.  The counters are plain int adds on paths that already touch
  the stats object and the sketch is one dict update per request; if
  this fails, accounting leaked into a per-pop loop.

The workload: ``NUM_QUERIES`` uncached single-shot searches against a
thread-tier ``QueryService`` over synthetic DBLP, a pool of
mid-frequency multi-keyword queries sampled the same way as
``bench_search_micro``.  All arms run the identical query stream; a
round is cut into ``SLICES`` short slices and the arms take turns slice
by slice (the order rotates, so no arm always runs first).

Every budget is asserted on the **median over slices of the paired
ratio** ``1 - arm/reference`` taken inside one turn: a noisy neighbour
or a clock-speed shift hits both sides of a pair or neither.  Measured
on an A/A pair (one service against its twin, 360 queries per arm):
whole 120-query rounds scored best-against-best or paired read up to
30% apart (stdev 8.6%) — the old gate, whose 3% budgets flaked; the
same queries as 72 slices of 5 read within 0.9% (stdev 0.4%).  The
emitted rows are what they always were — ``qps`` is the arm's best of
``ROUNDS`` rounds of ``NUM_QUERIES`` queries.  The run also emits the
``calibration/python-loop`` row ``perf_trend`` divides this module's
rows by (``conftest.emit_calibration_row``: a fixed loop that runs no
``repro`` code), timed first, before the dataset is built.

A sample span tree from the traced arm is written to
``TELEMETRY_SPAN_OUT`` (JSON) when set — CI uploads it as an artifact,
so every PR carries a real trace to eyeball.

Env knobs: ``REPRO_SCALE`` scales the dataset; ``BENCH_JSON_OUT``
appends JSON rows; ``TELEMETRY_SPAN_OUT`` writes the sample span tree;
``BENCH_ACCOUNTING_OUT`` writes the accounting arm's workload-sketch
export (JSON) — CI uploads it so every PR carries a real
``/debug/queries`` payload to eyeball.

Run directly (``python benchmarks/bench_telemetry_overhead.py``) or
under pytest-benchmark.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import Report, build_bench, fmt, workload_rng
from repro.service import QueryRequest, QueryService

from conftest import as_float, cell, emit_calibration_row, emit_json, run_report

NUM_QUERIES = 120
ROUNDS = 3
#: Slices per round: the budgets pair the arms slice by slice.
SLICES = 24
QUERY_POOL = 8
#: The acceptance bar: tracing may cost at most this QPS fraction.
MAX_OVERHEAD = 0.05
#: The accounting bar: cost counters + the fingerprint sketch (explain
#: off) may cost at most this QPS fraction against the untraced arm.
ACCOUNTING_MAX_OVERHEAD = 0.03

#: Arm name -> QueryService telemetry kwargs.  Every arm isolates one
#: feature against "untraced" (all telemetry off), so each budget
#: measures its own feature only.
ARMS = {
    "untraced": {"tracing": False, "accounting": False},
    "accounting": {"tracing": False, "accounting": True},
    "traced": {"tracing": True, "accounting": False},
}


def _query_pool(bench) -> list[list[str]]:
    rng = workload_rng(31337)
    queries: list[list[str]] = []
    attempts = 0
    while len(queries) < QUERY_POOL and attempts < 200:
        attempts += 1
        query = bench.generator.sample_query(
            rng,
            n_keywords=3,
            result_size=4,
            band_combo=("T", "S", "L"),
        )
        if query is not None:
            queries.append(list(query.keywords))
    assert len(queries) >= 2, "dataset too small; raise REPRO_SCALE"
    return queries


def _run_slice(service: QueryService, queries: list[list[str]], turn: int) -> float:
    """Time slice ``turn`` of the fixed query stream; returns seconds."""
    per_slice = NUM_QUERIES // SLICES
    start = time.perf_counter()
    for i in range(turn * per_slice, (turn + 1) * per_slice):
        response = service.search(
            QueryRequest("dblp", queries[i % len(queries)], use_cache=False)
        )
        response.raise_for_error()
    return time.perf_counter() - start


def _paired_overhead(arm: list[float], reference: list[float]) -> float:
    """Median over slices of the QPS fraction ``arm`` loses to
    ``reference``, each pair of slice times measured back to back."""
    return statistics.median(1.0 - r / a for a, r in zip(arm, reference))


def _round_qps(seconds: list[float]) -> list[float]:
    """Per-round QPS of one arm's slice times (``SLICES`` per round)."""
    return [
        NUM_QUERIES / sum(seconds[start : start + SLICES])
        for start in range(0, len(seconds), SLICES)
    ]


def _dump_sample_span_tree(service: QueryService, queries: list[list[str]]) -> None:
    path = os.environ.get("TELEMETRY_SPAN_OUT")
    if not path:
        return
    response = service.search(QueryRequest("dblp", queries[0], use_cache=False))
    response.raise_for_error()
    tree = service.trace(response.trace_id)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tree, handle, indent=2)


def _dump_accounting(service: QueryService) -> None:
    path = os.environ.get("BENCH_ACCOUNTING_OUT")
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(service.query_stats(), handle, indent=2)


def run_telemetry_overhead() -> Report:
    emit_calibration_row()
    bench = build_bench("dblp", 0.4)
    queries = _query_pool(bench)
    arms = {}
    for mode, kwargs in ARMS.items():
        service = QueryService(max_workers=1, **kwargs)
        service.register_engine("dblp", bench.engine)
        arms[mode] = {"service": service, "seconds": []}
        for turn in range(SLICES):  # warm the engine-side caches
            _run_slice(service, queries, turn)

    order = list(arms)
    for turn in range(ROUNDS * SLICES):
        shift = turn % len(order)
        for mode in order[shift:] + order[:shift]:
            arms[mode]["seconds"].append(
                _run_slice(arms[mode]["service"], queries, turn)
            )

    _dump_sample_span_tree(arms["traced"]["service"], queries)
    _dump_accounting(arms["accounting"]["service"])
    for arm in arms.values():
        arm["service"].close(wait=False)

    slices = {mode: arm["seconds"] for mode, arm in arms.items()}
    overhead = _paired_overhead(slices["traced"], slices["untraced"])
    accounting_overhead = _paired_overhead(slices["accounting"], slices["untraced"])
    rounds = {mode: _round_qps(seconds) for mode, seconds in slices.items()}
    best = {mode: max(qps) for mode, qps in rounds.items()}

    report = Report(
        experiment="telemetry-overhead",
        title=(
            f"{NUM_QUERIES} uncached searches x {ROUNDS} rounds on "
            f"synthetic DBLP ({bench.engine.graph.num_nodes} nodes): "
            f"tracing and accounting on vs off"
        ),
        headers=["mode", "best QPS", "rounds"],
    )
    for mode, kwargs in ARMS.items():
        qps = best[mode]
        row = {
            "experiment": "telemetry-overhead",
            "mode": mode,
            "tracing": kwargs.get("tracing", False),
            "accounting": kwargs.get("accounting", False),
            "queries": NUM_QUERIES,
            "rounds": ROUNDS,
            "qps": qps,
            "qps_rounds": rounds[mode],
        }
        emit_json(row)
        report.rows.append(
            [
                mode,
                fmt(qps),
                ", ".join(fmt(value) for value in row["qps_rounds"]),
            ]
        )
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead:.1%} exceeds the {MAX_OVERHEAD:.0%} "
        f"budget ({best['traced']:.0f} vs {best['untraced']:.0f} QPS)"
    )
    assert accounting_overhead < ACCOUNTING_MAX_OVERHEAD, (
        f"accounting overhead {accounting_overhead:.1%} exceeds the "
        f"{ACCOUNTING_MAX_OVERHEAD:.0%} budget "
        f"({best['accounting']:.0f} vs {best['untraced']:.0f} QPS)"
    )
    report.notes.append(
        f"tracing QPS overhead at default sampling: {overhead:+.1%} "
        f"(budget < {MAX_OVERHEAD:.0%})"
    )
    report.notes.append(
        f"accounting QPS overhead with explain off: "
        f"{accounting_overhead:+.1%} (budget < {ACCOUNTING_MAX_OVERHEAD:.0%})"
    )
    report.notes.append(
        f"dataset scale knob REPRO_SCALE={os.environ.get('REPRO_SCALE', '1.0')}"
    )
    return report


def test_telemetry_overhead(benchmark):
    report = run_report(benchmark, run_telemetry_overhead)
    for row in range(len(report.rows)):
        assert as_float(cell(report, row, 1)) > 0


if __name__ == "__main__":
    print(run_telemetry_overhead().render())
