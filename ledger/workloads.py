"""The four ledger workloads: inputs, set-up, measured loop, answer checks.

Every workload is closed-loop (the callers are programs that wait for a
reply; an open-loop generator beside three server processes on two
shared cores would measure the scheduler).  The op stream comes from
``--seed`` alone: the same seed gives the same requests in the same
order.  The stream is endless and the loop stops on the clock, so a run
measures for ``--seconds`` whatever the machine's speed.

The query *population* each stream draws from is sampled once per
workload from ``POOL_SEED``, not from ``--seed``.  Drawing 24 queries
afresh per seed moved ``search_p50_ms`` by 15 % and ``search_p95_ms`` by
30 % between seeds on identical code (quartile spread over six seeds),
on top of the machine's own wander; with a fixed population and a
seeded stream the seed adds nothing to it.

End-to-end paths use only HTTP, the two service constructors (inside
``serve.py``), ``save_engine`` and default ``SearchParams`` fields —
never a backend or snapshot-format selector — so the measurements
survive the deletions ROADMAP plans.
"""

import itertools
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from stack import ClosedLoopClient, ServerProcess, http_json

DATASET = "dblp"
POOL_SEED = 2005
RESULT_SIZE = 4  # planted answer-tree size of generated queries (paper 5.4)
ZIPF_S = 1.1


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    tier: str  # serve.py tier: thread | fleet | cycle
    scale: float  # DblpConfig().scaled(scale)
    slots: int  # closed-loop connections
    pool: int  # distinct queries (a multiple of 4: one quarter per stratum)
    use_cache: bool
    wal: bool = False
    params: dict = field(default_factory=dict)  # non-default SearchParams fields
    k: int | None = None


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="cold_expand",
            why=(
                "uncached searches on the thread tier: core does nearly all the "
                "work, so engine changes show here and serving changes must not"
            ),
            tier="thread",
            scale=0.15,
            slots=1,
            pool=24,
            use_cache=False,
        ),
        Spec(
            name="cached_fleet",
            why=(
                "prefilled cache on the 2-worker fleet: no search runs, so http, "
                "wire, cluster and cache do all the work and core must not move it"
            ),
            tier="fleet",
            scale=0.1,
            slots=2,
            pool=64,
            use_cache=True,
        ),
        Spec(
            name="mutating_fleet",
            why=(
                "reads beside WAL-journalled commits on the fleet: commits shred "
                "the version-keyed cache and reads run over live overlays"
            ),
            tier="fleet",
            scale=0.1,
            slots=1,
            pool=32,
            use_cache=True,
            wal=True,
            k=5,
        ),
        Spec(
            name="snapshot_cycle",
            why=(
                "service life cycles alternating ram and mapped tiers on a larger "
                "graph: snapshot load and first-touch faults are the measured work"
            ),
            tier="cycle",
            scale=4.0,
            slots=1,
            pool=16,
            use_cache=False,
            params={"node_budget": 10},
        ),
    )
}

#: Ops per block on ``mutating_fleet``: reads, then one mutate + its probe.
READS_PER_MUTATE = 3
#: Exact mirror checks of mid-run reads happen at every N-th epoch.
MIRROR_EPOCH_STRIDE = 8


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def build_engine(scale: float):
    from repro import KeywordSearchEngine
    from repro.datasets import DblpConfig, make_dblp

    db = make_dblp(DblpConfig().scaled(scale))
    return db, KeywordSearchEngine.from_database(db)


def oracle_key(request: dict) -> str:
    return json.dumps(
        [request["query"], request.get("algorithm"), request.get("params"),
         request.get("k")]
    )


def run_engine(engine, request: dict):
    """One request straight on an in-process engine -> ``SearchResult``."""
    from repro import SearchParams

    params = request.get("params")
    return engine.search(
        request["query"],
        algorithm=request.get("algorithm", "bidirectional"),
        k=request.get("k"),
        params=SearchParams(**params) if params else None,
    )


def reference(engine, request: dict):
    """``(scores, signatures)`` the request must come back with."""
    result = run_engine(engine, request)
    return result.scores(), result.signatures()


class World:
    """One workload's inputs: dataset, query pool, reference answers."""

    def __init__(self, spec: Spec, seed: int) -> None:
        from repro.workload.generator import WorkloadGenerator

        self.spec = spec
        self.seed = seed
        self.db, self.engine = build_engine(spec.scale)
        generator = WorkloadGenerator(self.db, self.engine.graph, self.engine.index)
        self.pool = self._sample_pool(generator, random.Random(POOL_SEED))
        self.oracle = {
            oracle_key(request): reference(self.engine, request)
            for request in self.pool
        }
        graph = self.engine.graph
        self.author = next(n for n in graph.nodes() if graph.table(n) == "author")
        self.conference = next(
            n for n in graph.nodes() if graph.table(n) == "conference"
        )

    def _sample_pool(self, generator, rng) -> list[dict]:
        """``spec.pool`` distinct queries, a quarter from each stratum of
        {small, large origin} x {2, 3 keywords} (paper 5.4)."""
        spec = self.spec
        per_stratum = spec.pool // 4
        pool, seen = [], set()
        for origin, n_keywords in itertools.product(("small", "large"), (2, 3)):
            wanted = len(pool) + per_stratum
            for _ in range(per_stratum * 50):
                if len(pool) == wanted:
                    break
                query = generator.sample_query(
                    rng,
                    n_keywords=n_keywords,
                    result_size=RESULT_SIZE,
                    origin_class=origin,
                )
                if query is None or query.keywords in seen:
                    continue
                seen.add(query.keywords)
                request = {
                    "dataset": DATASET,
                    "query": list(query.keywords),
                    "algorithm": "bidirectional",
                    "use_cache": spec.use_cache,
                }
                if spec.params:
                    request["params"] = dict(spec.params)
                if spec.k is not None:
                    request["k"] = spec.k
                pool.append(request)
            if len(pool) != wanted:
                raise RuntimeError(
                    f"{spec.name}: could not sample {per_stratum} {origin}-origin "
                    f"{n_keywords}-keyword queries at scale {spec.scale}"
                )
        if spec.name == "cold_expand":
            # The first stratum sampled is small-origin, 2 keywords.
            self._mix_algorithms(pool, pool[:per_stratum], rng)
        return pool

    @staticmethod
    def _mix_algorithms(pool: list[dict], mi_eligible: list[dict], rng) -> None:
        """Roughly bidirectional 60 / si-backward 25 / mi-backward 15.

        MI-Backward runs only on 2-keyword small-origin queries: elsewhere
        one query costs tens of seconds and would be the whole run.
        """
        mi = rng.sample(mi_eligible, min(len(mi_eligible), round(0.15 * len(pool))))
        for request in mi:
            request["algorithm"] = "mi-backward"
        rest = [r for r in pool if r["algorithm"] == "bidirectional"]
        for request in rng.sample(rest, round(0.25 * len(pool))):
            request["algorithm"] = "si-backward"

    # ------------------------------------------------------------------
    def mutation_batch(self, sequence: int) -> list[dict]:
        """One paper + its ``writes`` tuple + 3 edges, as wire dicts."""
        title = f"{unique_term(sequence)} incremental overlays"
        return [
            {"op": "add_node", "label": title, "table": "paper", "text": title},
            {"op": "add_edge", "u": -1, "v": self.conference},
            {"op": "add_node", "label": f"writes:{sequence}", "table": "writes"},
            {"op": "add_edge", "u": -2, "v": -1},
            {"op": "add_edge", "u": -2, "v": self.author},
        ]

    def probe_request(self, sequence: int) -> dict:
        return {"dataset": DATASET, "query": unique_term(sequence), "k": 5}

    def search_op(self, request: dict, kind: str = "search", **extra) -> dict:
        """One ``POST /search`` op; ``expected`` is None off the pool
        (probes: what they must contain is only known at run time)."""
        return {
            "kind": kind,
            "path": "/search",
            "body": json.dumps(request).encode(),
            "request": request,
            "expected": self.oracle.get(oracle_key(request)),
            **extra,
        }


def unique_term(sequence: int) -> str:
    return f"ledgerpaper{sequence}"


def zipf_stream(pool: list, rng):
    weights = list(
        itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, len(pool) + 1))
    )
    while True:
        yield rng.choices(pool, cum_weights=weights)[0]


def shuffled_passes(pool: list, rng):
    """Endless passes over the pool, each in a fresh order, so every
    distinct query is attempted equally often whatever the seed."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
def decode(body: bytes):
    from repro.service.wire import response_from_dict

    return response_from_dict(json.loads(body))


def payload_matches(payload: dict, expected) -> bool:
    """A well-formed wire response carrying the reference scores +
    signatures."""
    from repro.service.wire import response_from_dict

    try:
        response = response_from_dict(payload)
    except (ValueError, KeyError, TypeError):
        return False
    if not response.ok or response.result is None:
        return False
    scores, signatures = expected
    return (
        response.result.scores() == scores
        and response.result.signatures() == signatures
    )


def answer_matches(status, body: bytes, expected) -> bool:
    """HTTP 200 and a body that ``payload_matches``."""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return payload_matches(payload, expected)


def answer_nodes(body: bytes) -> set:
    response = decode(body)
    if not response.ok or response.result is None:
        return set()
    return {
        node
        for answer in response.result.answers
        for path in answer.tree.paths
        for node in path
    }


class Tally:
    """Attempted / failed op counts plus per-kind latency samples (ms)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}

    def record(self, kind: str, ok: bool, seconds: float | None = None) -> None:
        self.attempted += 1
        self.failed += not ok
        if seconds is not None:
            self.samples.setdefault(kind, []).append(seconds * 1000.0)


# ----------------------------------------------------------------------
# set-up (timed as setup_s) and the measured loops
# ----------------------------------------------------------------------
class Stack:
    """A built dataset on disk plus the running server over it."""

    def __init__(self, world: World, workdir: Path, tier_override=None) -> None:
        from repro.service.snapshot import save_engine

        spec = world.spec
        self.world = world
        self.tier = tier_override or spec.tier
        self.workdir = workdir
        workdir.mkdir(parents=True)
        _, engine = build_engine(spec.scale)
        self.snapshot = save_engine(workdir / "dblp.snap", engine)
        self.wal_dir = workdir / "wal" if spec.wal else None
        # What ``measure_mutating`` leaves for ``crash_and_verify``:
        self.batches = []  # acked (sequence, batch, new paper node), commit order
        self.reads_by_epoch = {}  # epoch -> {body: (request, scores, signatures)}
        self.server = None
        self.start_server()

    def start_server(self) -> None:
        began = time.perf_counter()
        self.server = ServerProcess(self.tier, self.snapshot, self.wal_dir)
        self.server.wait_ready()
        self.ready_seconds = time.perf_counter() - began

    def prefill(self, tally: Tally) -> None:
        """Fill what a long-running deployment has already filled: the
        whole pool on the cached tiers (so no measured read runs a
        search it need not), one answer elsewhere (lazy builds)."""
        world, spec = self.world, self.world.spec
        if self.tier == "cycle":
            for mode in ("ram", "mapped"):  # the mapped pass writes the sidecar
                reply = self.server.cycle(
                    {"storage_mode": mode, "requests": world.pool[:1]}
                )
                check_cycle(world, world.pool[:1], reply, tally, mode, timed=False)
            return
        requests = world.pool if spec.use_cache else world.pool[:1]
        client = ClosedLoopClient(self.server.address, spec.slots)

        def on_done(op, status, body, began_at, seconds):
            tally.record("prefill", answer_matches(status, body, op["expected"]))

        client.run([world.search_op(r) for r in requests], on_done)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


def check_cycle(world, requests, reply, tally, mode, timed=True) -> None:
    for request, search in zip(requests, reply["searches"]):
        ok = payload_matches(search["response"], world.oracle[oracle_key(request)])
        tally.record("search", ok, search["seconds"] if timed else None)
    if timed:
        tally.record(f"load_{mode}", True, reply["load_seconds"])
        if mode == "mapped":
            tally.samples.setdefault("first_answer", []).append(
                reply["first_answer_seconds"] * 1000.0
            )


def stop_time(seconds):
    return None if seconds is None else time.perf_counter() + seconds


def measure_searches(stack: Stack, tally: Tally, seconds, max_ops=None) -> float:
    """``cold_expand`` and ``cached_fleet``: searches only, for
    ``seconds`` or (the traced run's exact-repeat prefix) ``max_ops``."""
    world, spec = stack.world, stack.world.spec
    rng = random.Random(world.seed)
    ops = [world.search_op(request) for request in world.pool]
    stream = zipf_stream(ops, rng) if spec.use_cache else shuffled_passes(ops, rng)

    def on_done(op, status, body, began_at, seconds_taken):
        ok = answer_matches(status, body, op["expected"])
        tally.record("search", ok, seconds_taken)

    client = ClosedLoopClient(stack.server.address, spec.slots)
    return client.run(
        itertools.islice(stream, max_ops), on_done, stop_at=stop_time(seconds)
    )


def measure_mutating(stack: Stack, tally: Tally, seconds, max_ops=None) -> float:
    """Blocks of reads, then a ``/mutate`` and a probe for its unique term."""
    world = stack.world
    reads = zipf_stream(
        [world.search_op(r, kind="read") for r in world.pool], random.Random(world.seed)
    )
    state = {"epoch": 0, "mutate_began": None, "new_node": None}

    def ops():
        for sequence in itertools.count(1):
            yield from itertools.islice(reads, READS_PER_MUTATE)
            batch = world.mutation_batch(sequence)
            yield {
                "kind": "mutate",
                "path": "/mutate",
                "body": json.dumps({"dataset": DATASET, "mutations": batch}).encode(),
                "sequence": sequence,
                "batch": batch,
            }
            yield world.search_op(world.probe_request(sequence), kind="probe")

    def on_done(op, status, body, began_at, seconds_taken):
        if op["kind"] == "mutate":
            ok = status == 200
            if ok:
                reply = json.loads(body)
                state["epoch"] = reply["version"]
                state["new_node"] = reply["new_nodes"][0]
                state["mutate_began"] = began_at
                stack.batches.append((op["sequence"], op["batch"], state["new_node"]))
            tally.record("mutate", ok, seconds_taken)
        elif op["kind"] == "probe":
            ok = status == 200 and state["new_node"] in answer_nodes(body)
            tally.record("search", ok, seconds_taken)
            if ok and state["mutate_began"] is not None:
                tally.samples.setdefault("visible", []).append(
                    (began_at + seconds_taken - state["mutate_began"]) * 1000.0
                )
            state["mutate_began"] = None
        else:
            ok = status == 200
            if ok:
                result = decode(body).result
                ok = result is not None and bool(result.answers)
            if ok and state["epoch"] == 0:
                ok = answer_matches(status, body, op["expected"])
            elif ok and state["epoch"] % MIRROR_EPOCH_STRIDE == 0:
                stack.reads_by_epoch.setdefault(state["epoch"], {})[op["body"]] = (
                    op["request"], result.scores(), result.signatures()
                )
            tally.record("search", ok, seconds_taken)

    client = ClosedLoopClient(stack.server.address, 1)
    return client.run(
        itertools.islice(ops(), max_ops), on_done, stop_at=stop_time(seconds)
    )


def crash_and_verify(stack: Stack, tally: Tally) -> dict:
    """``kill -9`` the fleet, restart it from snapshot + WAL, then check
    that every acked insert is still there and that the replayed state
    answers exactly like an in-process replay of the same batches.

    A process kill leaves the OS page cache intact, so this tests that
    acked commits were flushed, not that they were fsynced.
    """
    from repro.live import MutableDataset

    world = stack.world
    stack.server.kill()
    stack.start_server()
    restart_seconds = stack.ready_seconds

    # Mid-run reads at sampled epochs, and the final state, against a
    # mirror that replays the acked batches in-process.
    mirror = MutableDataset.from_engine(world.engine)
    for epoch, (_, batch, _) in enumerate(stack.batches, start=1):
        mirror.mutate(batch)
        for request, scores, signatures in stack.reads_by_epoch.get(epoch, {}).values():
            ok = reference(mirror.engine, request) == (scores, signatures)
            tally.record("mirror", ok)

    lost = 0
    client = ClosedLoopClient(stack.server.address, 1)

    def on_probe(op, status, body, began_at, seconds_taken):
        nonlocal lost
        ok = status == 200 and op["new_node"] in answer_nodes(body)
        lost += not ok
        tally.record("reprobe", ok)

    client.run(
        [
            world.search_op(world.probe_request(sequence), new_node=new_node)
            for sequence, _, new_node in stack.batches
        ],
        on_probe,
    )

    def on_read(op, status, body, began_at, seconds_taken):
        expected = reference(mirror.engine, op["request"])
        tally.record("replayed_read", answer_matches(status, body, expected))

    client.run([world.search_op(r) for r in world.pool[:8]], on_read)
    return {"acked_lost": lost, "restart_s": restart_seconds}


def measure_cycles(stack: Stack, tally: Tally, seconds: float) -> float:
    """``ram`` then ``mapped`` life cycles, in pairs, until the clock runs
    out: however short the run, it has a sample of each tier.

    Every cycle searches the whole pool, in a fresh order.  Even under a
    pop budget one query costs 1 ms and another 170 ms (a hub node's
    cascade), so cycles that drew different queries would not be
    comparable, and neither would runs.
    """
    world = stack.world
    stream = shuffled_passes(world.pool, random.Random(world.seed))
    start = time.perf_counter()
    while True:
        for mode in ("ram", "mapped"):
            requests = list(itertools.islice(stream, len(world.pool)))
            reply = stack.server.cycle({"storage_mode": mode, "requests": requests})
            check_cycle(world, requests, reply, tally, mode)
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def http_metrics(stack: Stack) -> dict:
    """The server's own ``GET /metrics`` dict."""
    status, payload = http_json(stack.server.address, "GET", "/metrics")
    return payload if status == 200 else {}
