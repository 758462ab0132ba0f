"""The traced run: per-layer metrics, measured from outside the layers.

Nothing inside ``src/`` is instrumented.  The same requests are replayed
at every entry depth of the stack — a *staircase* — and each call is
recorded as an in-memory span ``{name, request_id, depth, start, end,
parent}`` (written to ``ledger/out/trace-<workload>.json`` at exit):

====  ==============================================================
D0    HTTP round trip to the workload's own server subprocess
D1    ``ShardedQueryService.search`` in this process (2 spawn workers)
D2    ``QueryService.search`` in this process
D3    ``KeywordSearchEngine.search``
D4    ``engine.resolve``
wire  ``request_from_dict`` and ``response_to_dict`` + ``json.dumps``
====  ==============================================================

A layer's self time is its depth's duration minus the next depth's for
the same request id.  Counts come from what the public API already
returns (``SearchStats``, ``metrics()``, ``cache.stats()``,
``MutationLog.stats()``, ``StorageStats``).  Beside the staircase a
battery of direct probes times single public functions of the layers
that are not on the search path (``live``, ``wal``, ``snapshot``,
``storage``, ``graph``, ``index``, ``telemetry``).

Every probe is wrapped: a symbol, keyword argument or enum value that a
later PR deletes turns that probe's rows into ``null`` plus the reason,
never into a failed run.  All count rows come from fixed request lists,
so they repeat exactly for a given ``--seed``.
"""

import contextlib
import json
import os
import random
import statistics
import time

import metrics as m
import workloads as w
from stack import OUT_DIR, http_request, scratch_dir

#: What a deleted symbol, kwarg, enum value or metrics key raises.
DRIFT_ERRORS = (ImportError, AttributeError, TypeError, ValueError, KeyError)

TRACED_REQUESTS = 12  # distinct requests walked down the staircase
CACHED_REPEATS = 5  # repeats per request at depths that only hit the cache
REPLAY_OPS = 60  # ops of the workload's own stream replayed for cache counters
COMMITS = 30  # live / wal probe batches


class Recorder:
    """In-memory spans; ``enabled`` off is the untraced control arm."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._latest: dict[tuple, int] = {}

    def call(self, name: str, request_id: str, depth: int, fn, *args):
        """``(result, seconds)`` of ``fn(*args)``, recorded as one span."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        if self.enabled:
            self._latest[(request_id, depth)] = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "request_id": request_id,
                    "depth": depth,
                    "start": start,
                    "end": end,
                    "parent": self._latest.get((request_id, depth - 1)),
                }
            )
        return result, end - start


class Rows:
    """Metric name -> value, or ``None`` plus the reason it is missing."""

    def __init__(self) -> None:
        self.values: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}
        self.attempted = self.failed = 0

    def probe(self, names, fn) -> None:
        """Run one probe; API drift nulls exactly the rows it feeds."""
        try:
            self.values.update(fn())
        except DRIFT_ERRORS as exc:
            for name in names:
                self.values[name] = None
                self.reasons[name] = f"{type(exc).__name__}: {exc}"


def timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def timed_p50(fn, inputs, scale: float) -> float:
    return statistics.median([timed(fn, item) * scale for item in inputs])


def build_request(raw: dict, use_cache: bool):
    from repro.service.wire import request_from_dict

    return request_from_dict({**raw, "use_cache": use_cache})


# ----------------------------------------------------------------------
# the staircase
# ----------------------------------------------------------------------
class Staircase:
    """Per-request durations (seconds) at each entry depth.

    The serving layers above the cache — ``http``, ``wire``, ``cluster``
    and the cached half of ``service`` — run the same code whether or not
    a search follows, so their self times are taken from *cached* calls:
    milliseconds subtracted from milliseconds.  Subtracting two 80 ms
    uncached calls made in different processes would bury a 2 ms layer
    under scheduler noise.  ``core`` and the uncached half of ``service``
    come from uncached calls made back to back in this process.
    """

    def __init__(self, world, traced, recorder, rows) -> None:
        self.world = world
        self.traced = traced
        self.recorder = recorder
        self.rows = rows
        self.seconds = {
            key: []
            for key in ("d0c", "d0c_plain", "d0u", "d1c", "d2c", "d2u", "d3")
        }

    def _repeat(self, name, rid, depth, fn, *args) -> float:
        return statistics.median(
            [
                self.recorder.call(name, rid, depth, fn, *args)[1]
                for _ in range(CACHED_REPEATS)
            ]
        )

    def walk_server_and_service(self, address, service, engine) -> None:
        """D0, D2, D3, D4 and the wire functions (no in-process fleet is
        alive yet: its supervisor's sampling profiler would tax every
        in-process call below)."""
        from repro.service.wire import request_from_dict, response_to_dict

        world, recorder, rows = self.world, self.recorder, self.rows
        decode_s, encode_s, sizes, stats_rows = [], [], [], []
        for i, raw in enumerate(self.traced):
            rid = f"r{i}"
            expected = world.oracle[w.oracle_key(raw)]
            cached_body = json.dumps({**raw, "use_cache": True}).encode()
            cold_body = json.dumps({**raw, "use_cache": False}).encode()
            cached = build_request(raw, True)

            def post(body):
                status, payload = http_request(address, "POST", "/search", body)
                rows.attempted += 1
                rows.failed += not w.answer_matches(status, payload, expected)

            post(cached_body)  # prime the server's cache
            service.search(cached)
            # Untraced control arm interleaved with the traced one, so
            # drift cancels in their ratio.
            arms = {False: [], True: []}
            for repeat in range(2 * CACHED_REPEATS):
                recorder.enabled = (repeat + i) % 4 in (1, 2)  # off on on off ...
                arms[recorder.enabled].append(
                    recorder.call("http", rid, 0, post, cached_body)[1]
                )
            recorder.enabled = True
            plain, traced_s = arms[False], arms[True]
            self.seconds["d0c_plain"].append(statistics.median(plain))
            self.seconds["d0c"].append(statistics.median(traced_s))
            self.seconds["d2c"].append(self._repeat("service", rid, 2, service.search, cached))
            self.seconds["d0u"].append(recorder.call("http", rid, 0, post, cold_body)[1])
            response, seconds = recorder.call(
                "service", rid, 2, service.search, build_request(raw, False)
            )
            self.seconds["d2u"].append(seconds)
            recorder.call("core.resolve", rid, 4, engine.resolve, raw["query"])
            result, seconds = recorder.call("core", rid, 3, w.run_engine, engine, raw)
            self.seconds["d3"].append(seconds)
            stats_rows.append(result.stats)
            decode_s.append(
                self._repeat("wire.decode", rid, 1, request_from_dict, {**raw})
            )
            encoded, seconds = recorder.call(
                "wire.encode", rid, 1, lambda: json.dumps(response_to_dict(response))
            )
            encode_s.append(seconds)
            sizes.append(len(encoded))
        self.wire_s = [d + e for d, e in zip(decode_s, encode_s)]
        rows.values.update(
            {
                "wire.decode_us_p50": statistics.median(decode_s) * 1e6,
                "wire.encode_us_p50": statistics.median(encode_s) * 1e6,
                "wire.response_bytes_p50": statistics.median(sizes),
                "service.cached_us_p50": statistics.median(self.seconds["d2c"]) * 1e6,
                "service.self_us_p50": statistics.median(self._minus("d2u", "d3")) * 1e6,
                "trace.overhead_frac": statistics.median(self.seconds["d0c"])
                / statistics.median(self.seconds["d0c_plain"])
                - 1.0,
            }
        )
        rows.probe(CORE_COUNT_ROWS, lambda: core_counts(stats_rows, self.seconds["d3"]))

    def walk_fleet(self, fleet) -> None:
        """D1: the in-process supervisor and its two spawn workers."""
        for i, raw in enumerate(self.traced):
            request = build_request(raw, True)
            fleet.search(request)  # prime the routed worker's cache
            self.seconds["d1c"].append(
                self._repeat("cluster", f"r{i}", 1, fleet.search, request)
            )

    def _minus(self, outer: str, inner: str) -> list[float]:
        """Per-request self time: one depth minus the next."""
        return [a - b for a, b in zip(self.seconds[outer], self.seconds[inner])]

    def close(self) -> None:
        """The rows that need every depth: http, cluster, closure."""
        spec = self.world.spec
        on_fleet = spec.tier == "fleet"
        http_self = [
            value - wire
            for value, wire in zip(
                self._minus("d0c", "d1c" if on_fleet else "d2c"), self.wire_s
            )
        ]
        hop = self._minus("d1c", "d2c")
        if spec.use_cache:
            top = statistics.median(self.seconds["d0c"])
            core = 0.0
            service = statistics.median(self.seconds["d2c"])
        else:
            top = statistics.median(self.seconds["d0u"])
            core = statistics.median(self.seconds["d3"])
            service = statistics.median(self._minus("d2u", "d3"))
        serving = (
            statistics.median(http_self)
            + statistics.median(self.wire_s)
            + (statistics.median(hop) if on_fleet else 0.0)
            + service
        )
        self.rows.values.update(
            {
                "http.self_ms_p50": statistics.median(http_self) * 1e3,
                "cluster.hop_ms_p50": statistics.median(hop) * 1e3,
                "closure.d0_ms_p50": top * 1e3,
                "closure.core_frac": core / top,
                "closure.serving_frac": serving / top,
                "closure.unattributed_frac": (top - serving - core) / top,
            }
        )


CORE_COUNT_FIELDS = (
    "nodes_explored", "nodes_touched", "edges_explored", "heap_ops",
    "cascade_touches", "emit_attempts", "answers_generated", "answers_output",
    "duplicates_discarded",
)
CORE_COUNT_ROWS = tuple(f"core.{name}" for name in CORE_COUNT_FIELDS) + (
    "core.emit_useful_ratio", "core.us_per_pop",
)


def core_counts(stats_rows, seconds) -> dict:
    """Exact-repeat sums over the traced list."""
    out = {
        f"core.{name}": sum(getattr(stats, name) for stats in stats_rows)
        for name in CORE_COUNT_FIELDS
    }
    out["core.emit_useful_ratio"] = out["core.answers_output"] / max(
        1, out["core.emit_attempts"]
    )
    out["core.us_per_pop"] = sum(seconds) * 1e6 / max(1, out["core.nodes_explored"])
    return out


# ----------------------------------------------------------------------
# direct probes, one per layer off the search path
# ----------------------------------------------------------------------
def algorithm_probes(world, traced, engine, snapshot, rows) -> None:
    """Each algorithm over the same traced queries (whatever mix the
    workload itself runs), and SI vs bidirectional explored counts:
    the paper's Fig. 6b headline as a count ratio."""
    from repro import SearchParams

    def explored(algorithm: str, subset):
        total, samples = 0, []
        for raw in subset:
            began = time.perf_counter()
            result = w.run_engine(engine, {**raw, "algorithm": algorithm})
            samples.append((time.perf_counter() - began) * 1e3)
            total += result.stats.nodes_explored
        return total, samples

    def run() -> dict:
        bidir, bidir_ms = explored("bidirectional", traced)
        si, si_ms = explored("si-backward", traced)
        # MI-Backward only where it is affordable: the pool's first
        # stratum, small-origin 2-keyword queries.
        _, mi_ms = explored("mi-backward", world.pool[:4])
        return {
            "core.explored_si_over_bidir": si / max(1, bidir),
            "core.search_ms_p50.bidirectional": statistics.median(bidir_ms),
            "core.search_ms_p50.si-backward": statistics.median(si_ms),
            "core.search_ms_p50.mi-backward": statistics.median(mi_ms),
        }

    rows.probe(
        ["core.explored_si_over_bidir"]
        + [f"core.search_ms_p50.{a}" for a in ("bidirectional", "si-backward", "mi-backward")],
        run,
    )

    def kernels() -> dict:
        params = SearchParams(**{**world.spec.params, "expansion_backend": "vectorized"})
        samples, stats_rows = [], []
        for raw in traced:
            began = time.perf_counter()
            result = engine.search(raw["query"], k=raw.get("k"), params=params)
            samples.append((time.perf_counter() - began) * 1e3)
            stats_rows.append(result.stats)
        total = lambda name: sum(getattr(s, name) for s in stats_rows)  # noqa: E731
        return {
            "kernels.search_ms_p50.vectorized": statistics.median(samples),
            "kernels.kernel_batches": total("kernel_batches"),
            "kernels.candidates_generated": total("candidates_generated"),
            "kernels.candidates_surviving": total("candidates_surviving"),
            "kernels.survival_ratio": total("candidates_surviving")
            / max(1, total("candidates_generated")),
        }

    def csr() -> dict:
        from repro.core.kernels.csr import graph_csr
        from repro.service.snapshot import load_snapshot

        fresh_graph, _ = load_snapshot(snapshot)  # graph_csr caches on the graph
        return {"kernels.csr_build_ms": timed(graph_csr, fresh_graph) * 1e3}

    rows.probe(
        [
            r["name"]
            for r in m.PER_LAYER
            if r["name"].startswith("kernels.") and r["name"] != "kernels.csr_build_ms"
        ],
        kernels,
    )
    rows.probe(["kernels.csr_build_ms"], csr)


def build_probes(world, traced, engine, rows) -> None:
    def graph() -> dict:
        from repro.graph import build_search_graph, compute_prestige

        began = time.perf_counter()
        bare = build_search_graph(world.db, compute_prestige=False)
        built = time.perf_counter()
        compute_prestige(bare)
        return {
            "graph.build_ms": (built - began) * 1e3,
            "graph.prestige_ms": (time.perf_counter() - built) * 1e3,
        }

    def index() -> dict:
        terms = [term for raw in traced for term in raw["query"]]
        return {"index.lookup_us_p50": timed_p50(engine.index.lookup, terms, 1e6)}

    def resolve() -> dict:
        # A fresh engine: the first resolve of each query misses the
        # engine's own resolve cache, which is the cost a cold query pays.
        from repro import KeywordSearchEngine

        fresh = KeywordSearchEngine(engine.graph, engine.index)
        queries = [raw["query"] for raw in traced]
        return {"core.resolve_us_p50": timed_p50(fresh.resolve, queries, 1e6)}

    rows.probe(["graph.build_ms", "graph.prestige_ms"], graph)
    rows.probe(["index.lookup_us_p50"], index)
    rows.probe(["core.resolve_us_p50"], resolve)


def cache_probes(world, traced, engine, rows) -> None:
    def run() -> dict:
        from repro import SearchParams
        from repro.service.cache import ResultCache, canonical_cache_key

        cache = ResultCache(1024)
        keys = [
            canonical_cache_key(
                w.DATASET, raw["query"], raw.get("algorithm", "bidirectional"),
                SearchParams(**world.spec.params),
            )
            for raw in traced
        ]
        value = w.run_engine(engine, traced[0])
        puts = [timed(cache.put, key, value) * 1e6 for key in keys]
        gets = [timed(cache.get, key) * 1e6 for key in keys for _ in range(CACHED_REPEATS)]
        return {"cache.put_us_p50": statistics.median(puts), "cache.get_us_p50": statistics.median(gets)}

    rows.probe(["cache.put_us_p50", "cache.get_us_p50"], run)


def cluster_probes(world, traced, fleet, rows) -> None:
    def route() -> dict:
        keys = [(tuple(raw["query"]), raw.get("algorithm")) for raw in traced]
        return {
            "cluster.route_us_p50": timed_p50(
                lambda key: fleet.router.route(w.DATASET, key), keys, 1e6
            )
        }

    def broadcast() -> dict:
        samples = [
            timed(fleet.apply, w.DATASET, world.mutation_batch(sequence)) * 1e3
            for sequence in range(1, 11)
        ]
        return {"cluster.apply_broadcast_ms_p50": statistics.median(samples)}

    rows.probe(["cluster.route_us_p50"], route)
    rows.probe(["cluster.apply_broadcast_ms_p50"], broadcast)  # mutates: run last


def live_wal_probes(world, traced, engine, workdir, rows) -> None:
    batches = [world.mutation_batch(sequence) for sequence in range(1, COMMITS + 1)]

    def live() -> dict:
        from repro.live import MutableDataset

        # compact_ratio=None: the overlay must still be an overlay when
        # the same queries are timed over it.
        dataset = MutableDataset.from_engine(engine, compact_ratio=None)
        commits = [timed(dataset.mutate, batch) * 1e3 for batch in batches]
        base = sum(timed(w.run_engine, engine, raw) for raw in traced)
        overlay = sum(timed(w.run_engine, dataset.engine, raw) for raw in traced)
        return {
            "live.commit_ms_p50": statistics.median(commits),
            "live.overlay_search_ratio": overlay / base,
            "live.compact_ms": timed(dataset.compact) * 1e3,
        }

    def wal(sync: str):
        from repro.wal import MutationLog

        def run() -> dict:
            log = MutationLog(workdir / f"probe-{sync}.wal", sync=sync)
            try:
                appends = [timed(log.append, batch) * 1e6 for batch in batches]
                stats = log.stats()
            finally:
                log.close()
            out = {f"wal.append_us_p50.{sync}": statistics.median(appends)}
            if sync == "batched":
                out["wal.bytes_per_commit"] = stats["appended_bytes"] / stats["appends"]
                out["wal.fsyncs"] = stats["fsyncs"]
            return out

        return run

    def replay() -> dict:
        from repro.live import MutableDataset

        seconds = timed(
            MutableDataset.replay,
            workdir / "probe-batched.wal",
            graph=engine.graph,
            index=engine.index,
        )
        return {"wal.replay_ms_per_100": seconds * 1e3 * 100 / COMMITS}

    rows.probe(
        ["live.commit_ms_p50", "live.overlay_search_ratio", "live.compact_ms"], live
    )
    rows.probe(
        ["wal.append_us_p50.batched", "wal.bytes_per_commit", "wal.fsyncs"],
        wal("batched"),
    )
    rows.probe(["wal.append_us_p50.commit"], wal("commit"))
    rows.probe(["wal.replay_ms_per_100"], replay)


def storage_probes(world, traced, engine, workdir, rows) -> None:
    from repro.service.snapshot import load_snapshot, save_engine

    def save(label: str, **kwargs):
        def run() -> dict:
            path = workdir / f"probe-{label}.snap"
            seconds = timed(save_engine, path, engine, **kwargs)
            return {
                f"snapshot.save_ms.{label}": seconds * 1e3,
                f"snapshot.bytes.{label}": os.path.getsize(path),
            }

        return run

    def load_ram() -> dict:
        seconds = timed(load_snapshot, workdir / "probe-default.snap", storage_mode="ram")
        return {"storage.load_ms.ram": seconds * 1e3}

    def load_mapped() -> dict:
        from repro import KeywordSearchEngine

        began = time.perf_counter()
        graph, index = load_snapshot(workdir / "probe-mapped.snap", storage_mode="mapped")
        loaded = time.perf_counter() - began
        mapped = KeywordSearchEngine(graph, index)
        first = sum(timed(w.run_engine, mapped, raw) for raw in traced)
        again = sum(timed(w.run_engine, mapped, raw) for raw in traced)
        storage = graph.storage.snapshot()
        return {
            "storage.load_ms.mapped": loaded * 1e3,
            "storage.fault_ins": storage["row_faults"] + storage["posting_faults"],
            "storage.pinned_rows": storage["pinned_nodes"],
            "storage.resident_mb": storage["resident_bytes"] / 2**20,
            "storage.first_touch_ratio": first / again,
        }

    rows.probe(["snapshot.save_ms.default", "snapshot.bytes.default"], save("default"))
    rows.probe(
        ["snapshot.save_ms.mapped", "snapshot.bytes.mapped"],
        save("mapped", format="mapped"),
    )
    rows.probe(["storage.load_ms.ram"], load_ram)
    rows.probe(
        ["storage.load_ms.mapped", "storage.fault_ins", "storage.pinned_rows",
         "storage.resident_mb", "storage.first_touch_ratio"],
        load_mapped,
    )


def telemetry_probes(traced, service, snapshot, rows) -> None:
    def overhead() -> dict:
        from repro.service import QueryService

        bare = QueryService(tracing=False, accounting=False, slo_objectives=())
        try:
            bare.register_snapshot(w.DATASET, snapshot)
            bare.warmup()
            out = {}
            for label, use_cache, repeats in (
                ("cached", True, CACHED_REPEATS), ("cold", False, 1),
            ):
                requests = [build_request(raw, use_cache) for raw in traced]
                for request in requests:  # prime both caches alike
                    bare.search(request)
                    service.search(request)
                # Interleaved, so machine drift lands on both arms.
                on, off = [], []
                for request in requests * repeats:
                    off.append(timed(bare.search, request))
                    on.append(timed(service.search, request))
                out[f"telemetry.overhead_frac.{label}"] = (
                    statistics.median(on) / statistics.median(off) - 1.0
                )
            return out
        finally:
            bare.close()

    def export() -> dict:
        from repro.telemetry.metrics import render_prometheus

        began = time.perf_counter()
        exported = service.metrics()
        done = time.perf_counter()
        render_prometheus(exported["registry"])
        return {
            "service.metrics_export_ms": (done - began) * 1e3,
            "telemetry.prometheus_render_ms": (time.perf_counter() - done) * 1e3,
        }

    rows.probe(
        ["telemetry.overhead_frac.cached", "telemetry.overhead_frac.cold"], overhead
    )
    rows.probe(["service.metrics_export_ms", "telemetry.prometheus_render_ms"], export)


def replay_stream(world, stack, rows) -> None:
    """Replay a fixed prefix of the workload's own op stream, then read
    the server's cache and fleet counters: what the hit rate *is* on
    this workload, not what a probe could make it."""
    spec = world.spec
    tally = w.Tally()
    before = w.http_metrics(stack)
    if spec.wal:
        w.measure_mutating(stack, tally, None, max_ops=REPLAY_OPS)
    else:
        w.measure_searches(stack, tally, None, max_ops=REPLAY_OPS)
    rows.attempted += tally.attempted
    rows.failed += tally.failed

    def counters() -> dict:
        after = w.http_metrics(stack)
        cache_before, cache_after = before["cache"], after["cache"]
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        restarts = after.get("cluster", {}).get("restarts", {})
        return {
            "cache.hit_rate": hits / max(1, hits + misses),
            "cache.evictions": cache_after["evictions"],
            "cluster.restarts": sum(restarts.values()),
        }

    rows.probe(["cache.hit_rate", "cache.evictions", "cluster.restarts"], counters)


# ----------------------------------------------------------------------
def run_traced(name: str, seed: int, quick: bool = False) -> dict:
    from repro.cluster import ShardedQueryService
    from repro.service import QueryService

    spec = w.SPECS[name]
    world = w.World(spec, seed)
    order = list(world.pool)
    random.Random(seed).shuffle(order)
    traced = order[: 3 if quick else TRACED_REQUESTS]
    rows = Rows()
    recorder = Recorder()
    with scratch_dir() as workroot, contextlib.ExitStack() as cleanup:
        # The cycle tier has no server of its own: its searches enter at
        # QueryService, so its staircase runs behind the thread tier.
        stack = w.Stack(
            world,
            workroot / "traced",
            tier_override="thread" if spec.tier == "cycle" else None,
        )
        cleanup.callback(stack.close)
        stack.prefill(w.Tally())
        service = cleanup.enter_context(QueryService())
        service.register_snapshot(w.DATASET, stack.snapshot)
        service.warmup()
        engine = service.engine(w.DATASET)

        stairs = Staircase(world, traced, recorder, rows)
        stairs.walk_server_and_service(stack.server.address, service, engine)
        algorithm_probes(world, traced, engine, stack.snapshot, rows)
        build_probes(world, traced, engine, rows)
        cache_probes(world, traced, engine, rows)
        live_wal_probes(world, traced, engine, workroot, rows)
        storage_probes(world, traced, engine, workroot, rows)
        telemetry_probes(traced, service, stack.snapshot, rows)

        began = time.perf_counter()
        with ShardedQueryService(
            {w.DATASET: stack.snapshot}, num_workers=2, default_replicas=2
        ) as fleet:
            fleet.warmup()
            rows.values["cluster.worker_spawn_s"] = time.perf_counter() - began
            stairs.walk_fleet(fleet)
            stairs.close()
            cluster_probes(world, traced, fleet, rows)
        replay_stream(world, stack, rows)

    with open(OUT_DIR / f"trace-{name}.json", "w") as handle:
        json.dump({"workload": name, "seed": seed, "spans": recorder.spans}, handle)

    cells = {}
    for row in m.PER_LAYER:
        cell = {"value": rows.values.get(row["name"]), "unit": row["unit"]}
        if cell["value"] is None:
            cell["reason"] = rows.reasons.get(row["name"], "probe did not report it")
        cells[row["name"]] = cell
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "attempted": rows.attempted,
        "failed": rows.failed,
        "samples": {"traced_requests": len(traced), "spans": len(recorder.spans)},
        "metrics": cells,
    }
