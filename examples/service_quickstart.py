"""Quickstart for the query service layer (:mod:`repro.service`).

The production-facing tier above :class:`repro.KeywordSearchEngine`:

1. register a dataset with a :class:`repro.QueryService` and warm it up,
2. snapshot the built graph + prestige + index to disk, then start a
   *second* service straight from the snapshot (no ``from_database``),
3. watch a repeated query come back from the LRU+TTL result cache,
4. run a mixed batch through ``search_many`` and check it agrees with
   sequential calls,
5. export the service metrics dict,
6. miss a deadline on purpose — cooperative cancellation stops the
   search, frees the thread, and (with ``allow_partial=True``) hands
   back the answers the Section 4.5 bound had already certified.

Deadline semantics in one paragraph: ``QueryRequest.timeout`` (seconds,
or ``deadline_ms`` if you think in milliseconds) arms a cancellation
token that the search's pop loop checks every
``SearchParams.cancel_check_interval`` pops.  On expiry the response is
a structured ``error_type="DeadlineExceededError"`` — and because the
search stopped cooperatively, the worker thread is free again within a
couple of check intervals instead of grinding to the end.  With
``allow_partial=True`` the response also carries ``result`` with
``complete=False``: a *prefix* of what the full run would have
returned, in the same order — a deadline can cost you answers, never
reorder them.  Partial results are never cached.  Requests with a
``request_id`` can be cancelled mid-flight via ``cancel(request_id)``
(HTTP: ``DELETE /search/<id>``).

Run:  python examples/service_quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro import KeywordSearchEngine, QueryRequest, QueryService, SearchParams
from repro.datasets import DblpConfig, make_dblp

QUERIES = [
    ("paper stream", "bidirectional"),
    ("paper stream", "mi-backward"),
    ("graph query", "si-backward"),
    ("graph query", "bidirectional"),
]


def main() -> None:
    db = make_dblp(DblpConfig())

    # ------------------------------------------------------------------
    # 1. cold service: the engine is built from the database
    # ------------------------------------------------------------------
    with QueryService(cache_capacity=256, cache_ttl=300.0, max_workers=8) as service:
        start = time.perf_counter()
        service.register_engine("dblp", KeywordSearchEngine.from_database(db))
        cold_build = time.perf_counter() - start
        print(f"cold build (from_database): {cold_build * 1000:.1f} ms")

        # --------------------------------------------------------------
        # 2. snapshot the built state, restart from disk
        # --------------------------------------------------------------
        with tempfile.TemporaryDirectory() as tmp:
            snap = Path(tmp) / "dblp.snap"
            service.save_snapshot("dblp", snap)
            print(f"snapshot written: {snap.stat().st_size / 1024:.0f} KiB")

            with QueryService(cache_capacity=256, cache_ttl=300.0) as warm:
                warm.register_snapshot("dblp", snap)
                warm_build = warm.warmup()["dblp"]
                print(
                    f"warm load (snapshot):       {warm_build * 1000:.1f} ms "
                    f"({cold_build / max(warm_build, 1e-9):.1f}x faster; the gap "
                    f"widens with dataset size — prestige iteration is the "
                    f"cost a snapshot skips)"
                )

                # ------------------------------------------------------
                # 3. repeated query: second hit comes from the cache
                # ------------------------------------------------------
                start = time.perf_counter()
                first = warm.search("dblp", "paper stream", k=5)
                uncached_s = time.perf_counter() - start
                start = time.perf_counter()
                second = warm.search("dblp", "paper  stream", k=5)
                cached_s = time.perf_counter() - start
                print(
                    f"query 'paper stream': uncached {uncached_s * 1000:.2f} ms, "
                    f"cached {cached_s * 1000:.3f} ms "
                    f"({uncached_s / max(cached_s, 1e-9):.0f}x faster), "
                    f"cached-flag={second.cached}, "
                    f"same answers={second.result.scores() == first.result.scores()}"
                )

                # ------------------------------------------------------
                # 4. concurrent batch == sequential results
                # ------------------------------------------------------
                requests = [
                    QueryRequest("dblp", query, algorithm=algorithm, k=5)
                    for query, algorithm in QUERIES
                ] * 3
                responses = warm.search_many(requests)
                engine = warm.engine("dblp")
                agree = all(
                    response.ok
                    and response.result.scores()
                    == engine.search(
                        request.query, algorithm=request.algorithm, k=5
                    ).scores()
                    for request, response in zip(requests, responses)
                )
                print(
                    f"search_many: {len(responses)} responses, "
                    f"all match sequential search: {agree}"
                )

                # ------------------------------------------------------
                # 5. metrics: one plain dict, ready for JSON
                # ------------------------------------------------------
                metrics = warm.metrics()
                print(
                    "metrics: "
                    f"requests={metrics['requests_total']}, "
                    f"cache_hit_rate={metrics['cache_hit_rate']:.2f}, "
                    f"errors={metrics['errors_total']}, "
                    "p50(bidirectional)="
                    f"{metrics['algorithms']['bidirectional']['latency_p50'] * 1000:.2f} ms"
                )

                # ------------------------------------------------------
                # 6. deadlines: cooperative cancellation + partials
                # ------------------------------------------------------
                doomed = QueryRequest(
                    "dblp",
                    "paper stream",
                    algorithm="mi-backward",
                    timeout=0.002,  # far below this query's runtime
                    allow_partial=True,
                    use_cache=False,
                    # Check the token every pop: tightest responsiveness,
                    # for demonstration (default is every 32 pops).
                    params=SearchParams(cancel_check_interval=1),
                )
                response = warm.search(doomed)
                if response.ok:
                    print("deadline demo: query beat its 2 ms deadline")
                else:
                    # Note `is not None`: an empty partial result is
                    # falsy (SearchResult has __len__), but it is still
                    # a result.
                    partial = response.result
                    have = partial is not None
                    print(
                        f"deadline demo: [{response.error_type}] with "
                        f"{len(partial.answers) if have else 0} partial "
                        f"answers (complete="
                        f"{partial.complete if have else '-'}); the "
                        f"worker thread was freed at the next check, not "
                        f"at search end"
                    )
                cancel_stats = warm.metrics()["cancellations"]
                print(
                    f"cancellation metrics: "
                    f"deadline_exceeded={cancel_stats['deadline_exceeded']}, "
                    f"cancelled={cancel_stats['cancelled']}, "
                    f"overrun={cancel_stats['overrun_seconds'] * 1000:.1f} ms"
                )


if __name__ == "__main__":
    main()
