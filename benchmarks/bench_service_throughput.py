"""Service throughput: QPS cold vs. cached vs. batched on synthetic DBLP.

Three ways of pushing the same mixed query stream through a
:class:`repro.service.QueryService`:

* **cold** — every request bypasses the result cache (``use_cache=False``):
  the raw sequential search rate.
* **cached** — the same stream with the cache warm: the steady-state a
  traffic mix with repeats converges to.
* **batched** — ``search_many`` over the cold stream with 8 workers.
  Search is pure Python holding the GIL, so batching is about overlap
  and deadline handling, not a core-count speedup; the table makes that
  honest rather than hiding it.

Loose shape assertions (cache >= 10x cold, batch == sequential results)
keep a silently broken service layer from benchmarking plausibly.

A second experiment compares the snapshot **residency modes**
(docs/STORAGE.md): the load cost of ``ram`` (bytes read into process
memory and fully verified) and ``mapped`` (``np.memmap``, header checks
only) — both materialize only the pin set — against building the same
engine with ``from_database``, and the steady-state query rate of both
modes once warm.  The bars: each load at least 5x faster than the
build, steady-state QPS within 10% — the mode trades nothing at
runtime, only at load.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.common import Report, build_bench, fmt
from repro.service import QueryRequest, QueryService

from conftest import as_float, cell, emit_calibration_row, emit_json, run_report

NUM_REQUESTS = 50
SEED_TERMS = 8


def _mixed_queries(engine) -> list[str]:
    """Mid-frequency two-keyword queries, deterministic from the index.

    Degrades to fewer distinct queries on a scaled-down dataset
    (REPRO_SCALE < 1) rather than indexing past the term list.
    """
    mids = [
        term
        for term, freq in engine.index.terms_by_frequency()
        if 5 <= freq <= 60
    ]
    pairs = min(SEED_TERMS, len(mids) // 2)
    assert pairs > 0, (
        f"dataset too small: only {len(mids)} mid-frequency terms; "
        f"raise REPRO_SCALE"
    )
    return [f"{mids[i]} {mids[i + pairs]}" for i in range(pairs)]


def run_throughput() -> Report:
    emit_calibration_row()
    bench = build_bench("dblp", 0.4)
    queries = _mixed_queries(bench.engine)
    stream = [queries[i % len(queries)] for i in range(NUM_REQUESTS)]

    with QueryService(cache_capacity=256, max_workers=8) as service:
        service.register_engine("dblp", bench.engine)

        def requests(use_cache: bool) -> list[QueryRequest]:
            return [
                QueryRequest("dblp", query, k=5, use_cache=use_cache)
                for query in stream
            ]

        start = time.perf_counter()
        cold = [service.search(r) for r in requests(use_cache=False)]
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        cached = [service.search(r) for r in requests(use_cache=True)]
        cached_s = time.perf_counter() - start

        start = time.perf_counter()
        batched = service.search_many(requests(use_cache=False))
        batched_s = time.perf_counter() - start

        hit_rate = service.metrics()["cache_hit_rate"]

    assert all(r.ok for r in cold + cached + batched)
    for sequential, batch in zip(cold, batched):
        assert batch.result.scores() == sequential.result.scores()
        assert batch.result.signatures() == sequential.result.signatures()

    report = Report(
        experiment="service-throughput",
        title=f"{NUM_REQUESTS} mixed queries over {len(queries)} distinct "
        f"(synthetic DBLP, k=5)",
        headers=["mode", "seconds", "QPS", "vs cold"],
    )
    for mode, label, seconds in (
        ("cold", "cold (uncached)", cold_s),
        ("cached", "cached", cached_s),
        ("batched", "batched x8 (uncached)", batched_s),
    ):
        emit_json(
            {
                "experiment": "service-throughput",
                "mode": mode,
                "requests": NUM_REQUESTS,
                "seconds": seconds,
                "qps": NUM_REQUESTS / seconds,
                "speedup_vs_cold": cold_s / seconds,
            }
        )
        report.rows.append(
            [
                label,
                fmt(seconds, 3),
                fmt(NUM_REQUESTS / seconds),
                fmt(cold_s / seconds, 2),
            ]
        )
    report.notes.append(
        f"cache hit rate over the run: {hit_rate:.2f}; cached mode repeats "
        f"the cold stream, so steady-state hit rate approaches 1"
    )
    report.notes.append(
        "batched uses threads: pure-Python search holds the GIL, so expect "
        "overlap benefits (and executor overhead), not a core-count speedup"
    )
    return report


def run_storage_tiers() -> Report:
    import tempfile

    from repro.core.engine import KeywordSearchEngine
    from repro.service.snapshot import load_snapshot, save_engine

    # Full scale: a load costs a per-file constant (header, pin-set
    # materialization), so its ratio to the build is only meaningful
    # when the build is big enough to dominate it.
    bench = build_bench("dblp", 1.0)
    queries = _mixed_queries(bench.engine)
    stream = [queries[i % len(queries)] for i in range(NUM_REQUESTS)]

    def best_of(loader, repeats: int):
        # Best-of-N: the *minimum* is the least-noisy estimator of a
        # deterministic cost.
        best_s, best = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            loaded = loader()
            elapsed = time.perf_counter() - start
            if elapsed < best_s:
                best_s, best = elapsed, loaded
        return best_s, best

    build_s, _ = best_of(lambda: KeywordSearchEngine.from_database(bench.db), 2)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dblp.snap"
        save_engine(path, bench.engine)
        warm_s, engines = {}, {}
        for tier in ("ram", "mapped"):
            warm_s[tier], (graph, index) = best_of(
                lambda: load_snapshot(path, storage_mode=tier), 5
            )
            engines[tier] = KeywordSearchEngine(graph, index)

        answers = {}
        for engine in engines.values():
            for query in stream:  # fault the working set in before timing
                engine.search(query, k=5)
        # Interleave the tiers' timed passes (machine-load drift over a
        # minutes-long run would otherwise bias whichever tier is
        # measured last) and keep each *query's* minimum across passes:
        # a whole-pass minimum only filters noise if an entire pass
        # dodges it at once, per-query minimums filter it per query.
        best = {tier: [float("inf")] * len(stream) for tier in engines}
        for _ in range(3):
            for tier, engine in engines.items():
                timed = []
                for j, query in enumerate(stream):
                    start = time.perf_counter()
                    timed.append(engine.search(query, k=5))
                    elapsed = time.perf_counter() - start
                    best[tier][j] = min(best[tier][j], elapsed)
                answers[tier] = timed
        qps = {tier: NUM_REQUESTS / sum(mins) for tier, mins in best.items()}

    # Identical answers, not just similar speed.
    for ram_result, map_result in zip(answers["ram"], answers["mapped"]):
        assert map_result.scores() == ram_result.scores()
        assert map_result.signatures() == ram_result.signatures()
    report = Report(
        experiment="storage-tiers",
        title=f"snapshot load + steady state, {NUM_REQUESTS} queries "
        f"(synthetic DBLP, k=5; from_database build {build_s:.3f} s)",
        headers=["tier", "load s", "steady QPS", "build / load", "resident"],
    )
    for tier, engine in engines.items():
        storage = engine.graph.storage
        emit_json(
            {
                "experiment": "storage-tiers",
                "tier": tier,
                "warmup_seconds": warm_s[tier],
                "qps": qps[tier],
                "build_seconds": build_s,
                "warmup_speedup": build_s / warm_s[tier],
            }
        )
        report.rows.append(
            [
                tier,
                fmt(warm_s[tier], 4),
                fmt(qps[tier]),
                fmt(build_s / warm_s[tier], 1),
                f"{storage.resident_bytes / 1024:.0f} KiB est",
            ]
        )
    storage = engines["mapped"].graph.storage
    report.notes.append(
        f"both modes materialize the pin set only ({storage.pinned_nodes} rows, "
        f"{storage.pinned_terms} posting lists); ram also reads and "
        f"checksums every byte"
    )
    report.notes.append(
        "steady-state rates converge once the query working set is "
        "materialized; the mode trades load cost, not query cost"
    )
    return report


def test_service_throughput(benchmark):
    report = run_report(benchmark, run_throughput)
    qps_cold = as_float(cell(report, 0, 2))
    qps_cached = as_float(cell(report, 1, 2))
    assert qps_cold > 0
    # The acceptance bar: repeated queries answered from cache must be
    # at least 10x faster than uncached search.
    assert qps_cached >= 10 * qps_cold


def test_storage_tier_warmup_and_qps(benchmark):
    report = run_report(benchmark, run_storage_tiers)
    ram_qps = as_float(cell(report, 0, 2))
    map_qps = as_float(cell(report, 1, 2))
    # The acceptance bars: either load must skip nearly all of the
    # build, and the mode must cost nothing at steady state.
    for row, tier in enumerate(("ram", "mapped")):
        speedup = as_float(cell(report, row, 3))
        assert speedup >= 5, (
            f"{tier} load only {speedup:.1f}x faster than from_database"
        )
    assert map_qps >= 0.9 * ram_qps and ram_qps >= 0.9 * map_qps, (
        f"steady-state rates differ by more than 10%: mapped "
        f"{map_qps:.1f} QPS, ram {ram_qps:.1f} QPS"
    )


if __name__ == "__main__":
    print(run_throughput().render())
    print(run_storage_tiers().render())
