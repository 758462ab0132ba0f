"""Cooperative cancellation: capacity under deadline traffic.

The serving question this answers: when a slice of traffic carries
deadlines it cannot meet, what does the rest of the workload get?  An
expired search stops at its next token check and frees its thread,
instead of returning an error at the deadline and burning the thread
until the search would have finished.

The workload: ``NUM_REQUESTS`` uncached queries, 20% of which are
deliberately expensive (``mi-backward`` over broad high-frequency
terms, the paper's worst case) carrying a deadline far below their
natural runtime.  The other 80% are cheap bidirectional queries with no
deadline.  The stream runs through one thread-tier ``QueryService``;
one JSON row (plus ``BENCH_JSON_OUT`` for CI artifacts) reports QPS and
how far past their deadlines the cancelled searches ran in total.

Assertions:

* every deadline-flagged response is structured
  (``DeadlineExceededError``) and, having opted in, carries a
  ``complete=False`` partial result;
* a cancelled search stops within 2 cancellation-check intervals of
  pops (the responsiveness bound the token guarantees).

Env knobs: ``REPRO_SCALE`` scales the dataset; ``BENCH_JSON_OUT``
appends JSON rows to a file.

Run directly (``python benchmarks/bench_cancellation.py``) or under
pytest-benchmark.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.errors import DeadlineExceededError
from repro.experiments.common import Report, build_bench, fmt
from repro.service import QueryRequest, QueryService

from conftest import as_float, cell, emit_json, run_report

NUM_REQUESTS = 30
EXPENSIVE_EVERY = 5  # 1 in 5 -> the 20% tight-deadline slice
TIGHT_DEADLINE = 0.05
CHECK_INTERVAL = 16
#: Caps an expensive search that slips past its deadline, so the bench
#: stays CI-sized.
EXPENSIVE_BUDGET = 30_000


def _pick_queries(engine) -> tuple[str, list[str]]:
    """(expensive query, cheap mid-frequency queries).

    The expensive shape is the paper's MI-Backward worst case: one very
    frequent term (huge origin set, one iterator per origin) joined
    with two uncommon ones (the connection is far away, so iterators
    grind) — "database james john" on DBLP.  Top-frequency terms
    *together* would be cheap: they co-occur, answers fall out at the
    roots.
    """
    by_freq = engine.index.terms_by_frequency()
    broad = by_freq[0][0]
    rareish = [term for term, freq in by_freq if 5 <= freq <= 20]
    mids = [term for term, freq in by_freq if 5 <= freq <= 60]
    pairs = min(8, len(mids) // 2)
    assert len(rareish) >= 2 and pairs > 0, (
        f"dataset too small ({len(by_freq)} terms); raise REPRO_SCALE"
    )
    expensive = f"{broad} {rareish[-1]} {rareish[-2]}"
    cheap = [f"{mids[i]} {mids[i + pairs]}" for i in range(pairs)]
    return expensive, cheap


def _mixed_requests(expensive: str, cheap: list[str]) -> list[QueryRequest]:
    expensive_params = SearchParams(
        node_budget=EXPENSIVE_BUDGET, cancel_check_interval=CHECK_INTERVAL
    )
    requests = []
    for i in range(NUM_REQUESTS):
        if i % EXPENSIVE_EVERY == 0:
            requests.append(
                QueryRequest(
                    "dblp",
                    expensive,
                    algorithm="mi-backward",
                    k=40,
                    params=expensive_params,
                    timeout=TIGHT_DEADLINE,
                    allow_partial=True,
                    use_cache=False,
                )
            )
        else:
            requests.append(
                QueryRequest(
                    "dblp", cheap[i % len(cheap)], k=5, use_cache=False
                )
            )
    return requests


def _check_responsiveness(engine, expensive: str) -> int:
    """A pre-fired token must stop the search within 2 check intervals."""
    token = CancellationToken(check_every=CHECK_INTERVAL)
    token.cancel()
    result = engine.search(
        expensive,
        algorithm="mi-backward",
        params=SearchParams(cancel_check_interval=CHECK_INTERVAL),
        token=token,
    )
    assert result.complete is False
    assert result.stats.nodes_explored <= 2 * CHECK_INTERVAL, (
        f"cancelled search ran {result.stats.nodes_explored} pops, "
        f"over the 2x{CHECK_INTERVAL} responsiveness bound"
    )
    return result.stats.nodes_explored


def _run(engine, requests) -> dict:
    with QueryService(max_workers=4) as service:
        service.register_engine("dblp", engine)
        start = time.perf_counter()
        responses = service.search_many(requests)
        seconds = time.perf_counter() - start
        metrics = service.metrics()

    misses = [
        response
        for response in responses
        if response.error_type == DeadlineExceededError.__name__
    ]
    served = [response for response in responses if response.ok]
    assert misses, "no deadline ever fired; tighten TIGHT_DEADLINE"
    assert len(served) + len(misses) == len(responses)
    for response in misses:
        assert response.result is not None, "allow_partial lost its result"
        assert response.result.complete is False
    return {
        "mode": "cooperative",
        "workers": 4,
        "requests": len(responses),
        "deadline_misses": len(misses),
        "seconds": round(seconds, 4),
        "qps": round(len(responses) / seconds, 2),
        "reclaimed_seconds": round(
            metrics["cancellations"]["reclaimed_seconds"], 4
        ),
        "overrun_seconds": round(
            metrics["cancellations"]["overrun_seconds"], 4
        ),
    }


def run_cancellation() -> Report:
    bench = build_bench("dblp", 0.25)
    expensive, cheap = _pick_queries(bench.engine)
    stop_pops = _check_responsiveness(bench.engine, expensive)
    requests = _mixed_requests(expensive, cheap)

    report = Report(
        experiment="cancellation",
        title=(
            f"{NUM_REQUESTS} uncached queries, 20% expensive with "
            f"{TIGHT_DEADLINE}s deadlines (synthetic DBLP, "
            f"{os.cpu_count()} cores)"
        ),
        headers=["mode", "seconds", "QPS", "deadline misses", "overrun s"],
    )

    row = _run(bench.engine, requests)
    emit_json(row)
    report.rows.append(
        [
            row["mode"],
            fmt(row["seconds"], 3),
            fmt(row["qps"]),
            str(row["deadline_misses"]),
            fmt(row["overrun_seconds"], 3),
        ]
    )
    report.notes.append(
        f"pre-fired cancel stopped after {stop_pops} pops "
        f"(bound: 2x{CHECK_INTERVAL})"
    )
    return report


def test_cancellation(benchmark):
    report = run_report(benchmark, run_cancellation)
    for row in range(len(report.rows)):
        assert as_float(cell(report, row, 2)) > 0


if __name__ == "__main__":
    print(run_cancellation().render())
