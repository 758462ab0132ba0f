"""The release contract: search and serving state is freed by refcount.

No object on the search or serving path may sit in a reference cycle
(docs/PERFORMANCE.md "Memory"): a finished search, a closed service, a
replaced dataset must die with their last reference, not wait for a
gen-2 pass of the cyclic collector.  Every case runs under
``assert_no_cyclic_garbage`` — collector off, ``DEBUG_SAVEALL`` — and
the replaced-dataset cases hold a weakref to the old graph and watch it
die with the collector disabled.

CI runs this module with ``-W error::ResourceWarning``: a snapshot file
handle or WAL segment left to the finalizer fails it too.
"""

import gc
import threading
import weakref

import pytest

from repro.cluster import ShardedQueryService
from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode, mutation_to_dict
from repro.service import QueryRequest, QueryService
from repro.service.snapshot import load_engine, save_engine
from repro.telemetry.trace import Tracer, use_span

from tests.helpers import assert_no_cyclic_garbage

ALGORITHMS = ("bidirectional", "si-backward", "mi-backward")
RESIDENCIES = ("built", "ram", "mapped")
QUERIES = ("gray transaction", "selinger vldb", '"jim gray" sigmod')
MUTATION = [
    AddNode(label="Live Paper", table="paper", text="liveterm topic"),
    AddEdge(u=-1, v=3),
]


@pytest.fixture
def no_gc():
    """The weakref cases must see refcount death, not a lucky
    collection: keep the cyclic collector off for the test body."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# searches
# ----------------------------------------------------------------------
def run_complete(engine, query, algorithm, params):
    result = engine.search(query, algorithm=algorithm, params=params)
    assert result.complete


def run_cancelled(engine, query, algorithm, params):
    token = CancellationToken(cancel_at_tick=2)
    result = engine.search(query, algorithm=algorithm, params=params, token=token)
    assert not result.complete and token.fired


def run_budget(engine, query, algorithm, params):
    result = engine.search(
        query, algorithm=algorithm, params=params.with_(node_budget=2)
    )
    assert result.stats.nodes_explored <= 2


def run_explain(engine, query, algorithm, params):
    result = engine.search(query, algorithm=algorithm, params=params, explain=True)
    assert result.explain is not None


def run_traced(engine, query, algorithm, params):
    tracer = Tracer()
    span = tracer.start_span("request")
    with use_span(span):
        engine.search(query, algorithm=algorithm, params=params, explain=True)
    span.end()
    names = {s["name"] for s in tracer.spans_for(span.trace_id)}
    assert {"resolve", "emit"} <= names


SCENARIOS = {
    "complete": run_complete,
    "cancelled": run_cancelled,
    "node_budget": run_budget,
    "explain": run_explain,
    "traced": run_traced,
}


@pytest.fixture(params=RESIDENCIES)
def engine(request, toy_engine, tmp_path):
    """The toy engine as built, or loaded back from its snapshot in one
    storage mode (lazy rows that materialize during the search)."""
    if request.param == "built":
        return toy_engine
    path = save_engine(tmp_path / "toy.snap", toy_engine)
    return load_engine(path, storage_mode=request.param)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_search_leaves_no_cyclic_garbage(engine, algorithm, scenario):
    params = SearchParams()
    run = SCENARIOS[scenario]

    def searches():
        for query in QUERIES:
            run(engine, query, algorithm, params)

    assert_no_cyclic_garbage(searches)


def test_the_census_catches_a_search_cycle(toy_engine):
    """The harness itself: tie a knot the searches no longer tie (a
    state holding a bound method of its search — what the change
    callbacks were) and the census must see the search."""
    from repro.core.backward_si import SingleIteratorBackwardSearch

    def leaky():
        keywords, sets = toy_engine.resolve("gray transaction")
        search = SingleIteratorBackwardSearch(toy_engine.graph, keywords, sets)
        search.run()
        search._state.on_change = search._frontier_sizes

    with pytest.raises(AssertionError, match="SingleIteratorBackwardSearch"):
        assert_no_cyclic_garbage(leaky)


# ----------------------------------------------------------------------
# services
# ----------------------------------------------------------------------
@pytest.fixture
def snapshots(toy_engine, dblp_small_engine, tmp_path):
    """Two snapshots with different content (so a reload is not a no-op)."""
    return (
        save_engine(tmp_path / "toy.snap", toy_engine),
        save_engine(tmp_path / "dblp.snap", dblp_small_engine),
    )


@pytest.mark.parametrize("wal", [False, True], ids=["no-wal", "wal"])
@pytest.mark.parametrize("mode", ["ram", "mapped"])
def test_service_life_cycle_leaves_no_cyclic_garbage(snapshots, tmp_path, mode, wal):
    toy, dblp = snapshots

    def life_cycle():
        with QueryService(storage_mode=mode, max_workers=2) as service:
            service.register_snapshot("d", toy)
            service.warmup()
            if wal:
                service.attach_wal("d", tmp_path / f"{mode}.wal")
            for query in QUERIES:
                assert service.search("d", query).ok  # miss
                assert service.search("d", query).ok  # hit
                request = QueryRequest(
                    dataset="d", query=query, use_cache=False, explain=True
                )
                assert service.search(request).ok
                assert service.search("d", query, timeout=30.0).ok  # executor path
            assert service.apply("d", MUTATION).version == 1
            assert service.search("d", "liveterm").ok
            service._datasets["d"].live.compact()
            assert service.search("d", QUERIES[0]).ok
            service.save_snapshot("d", tmp_path / f"saved-{mode}.snap")
            assert service.reload("d", dblp)["reloaded"]
            assert service.engine("d").graph.storage.mode == mode
            service.metrics()
            service.registry.export()
            service.query_stats()
            service.slo_status()

    assert_no_cyclic_garbage(life_cycle)


def test_service_that_ends_mutable_with_a_wal(snapshots, tmp_path):
    """A commit journalled through the service's log must not tie
    dataset and service together."""
    toy, _ = snapshots

    def life_cycle():
        with QueryService() as service:
            service.register_snapshot("d", toy)
            service.attach_wal("d", tmp_path / "d.wal")
            service.apply("d", MUTATION)
            assert service.search("d", "liveterm").ok

    assert_no_cyclic_garbage(life_cycle)


def test_sharded_supervisor_start_close_leaves_no_cyclic_garbage(snapshots, tmp_path):
    toy, _ = snapshots

    def life_cycle():
        with ShardedQueryService(
            {"d": toy}, num_workers=1, wal_dir=tmp_path / "wals"
        ) as service:
            service.warmup()
            assert service.search("d", QUERIES[0]).ok
            service.apply("d", MUTATION)
            service.metrics()

    assert_no_cyclic_garbage(life_cycle)


def test_worker_loop_leaves_no_cyclic_garbage(snapshots):
    """``worker_main`` driven in-process: what a fleet worker's private
    service accumulates over warmup/search/mutate/reload dies at exit."""
    from repro.cluster.worker import worker_main
    from repro.service.wire import request_to_dict

    toy, dblp = snapshots

    class Conn:
        """The supervisor's side of the channel, scripted."""

        def __init__(self, incoming):
            self.recv = iter(incoming).__next__
            self.sent = []

        def send(self, item):
            self.sent.append(item)

    def loop():
        request = request_to_dict(QueryRequest(dataset="d", query=QUERIES[0]))
        mutations = [mutation_to_dict(m) for m in MUTATION]
        jobs = [
            ("state", None),
            ("request", request),
            ("request", request),
            ("mutate", {"dataset": "d", "mutations": mutations}),
            ("request", {**request, "use_cache": False}),
            ("reload", {"dataset": "d", "path": str(dblp)}),
            ("metrics", None),
        ]
        conn = Conn(
            [(0, {"d": str(toy)}, {})]
            + [(kind, job, payload) for job, (kind, payload) in enumerate(jobs)]
            + [("stop",)]
        )
        worker_main(conn)
        assert [job for _, job, _ in conn.sent] == list(range(7))
        errors = [p for _, _, p in conn.sent if p.get("error_type")]
        assert not errors, errors
        # The metrics reply is the registry export alone — families, with
        # the latency window the supervisor's merged view needs — and no
        # second, pre-digested copy of the same numbers.
        reply = conn.sent[-1][2]
        assert all(name.startswith("repro_") for name in reply)
        assert all({"type", "samples"} <= set(family) for family in reply.values())
        # A worker runs no result cache: each of the three requests searched.
        (latency,) = reply["repro_request_latency_seconds"]["samples"]
        assert len(latency["window"]) == latency["count"] == 3

    assert_no_cyclic_garbage(loop)


def test_collectors_do_not_keep_a_dropped_service_alive(no_gc, toy_engine):
    service = QueryService()
    service.register_engine("toy", toy_engine)
    registry, ref = service.registry, weakref.ref(service)
    service.close()
    del service
    assert ref() is None
    registry.export()  # the orphaned collector is a no-op, not a crash


# ----------------------------------------------------------------------
# replaced datasets die with their last reference
# ----------------------------------------------------------------------
class _Gate:
    """Parks a search mid-run: an ``external_check`` that blocks the
    first time it is probed, until :meth:`release`."""

    def __init__(self):
        self.entered = threading.Event()
        self._open = threading.Event()

    def __call__(self) -> bool:
        self.entered.set()
        assert self._open.wait(30.0)
        return False

    def release(self) -> None:
        self._open.set()


def in_flight_search(service, name, query):
    """Start ``query`` on a thread and park it mid-search."""
    gate = _Gate()
    token = CancellationToken(external_check=gate, check_every=1)
    params = SearchParams(cancel_check_interval=1)
    done = []
    thread = threading.Thread(
        target=lambda: done.append(
            service.search(name, query, params=params, use_cache=False, token=token)
        )
    )
    thread.start()
    assert gate.entered.wait(30.0)
    return gate, thread, done


def test_reloaded_dataset_dies_with_its_last_search(no_gc, snapshots):
    toy, dblp = snapshots
    with QueryService() as service:
        service.register_snapshot("d", toy)
        old_graph = weakref.ref(service.engine("d").graph)
        old_index = weakref.ref(service.engine("d").index)
        gate, thread, done = in_flight_search(service, "d", QUERIES[0])
        assert service.reload("d", dblp)["reloaded"]
        assert old_graph() is not None  # the parked search still reads it
        gate.release()
        thread.join(30.0)
        assert not thread.is_alive() and done[0].ok
        del done[:]
        assert old_graph() is None and old_index() is None


def test_reregistered_snapshot_frees_the_old_engine(no_gc, snapshots):
    toy, dblp = snapshots
    with QueryService() as service:
        service.register_snapshot("d", toy)
        assert service.search("d", QUERIES[0]).ok
        assert service.search("d", QUERIES[0], use_cache=False, timeout=30.0).ok
        old_graph = weakref.ref(service.engine("d").graph)
        service.register_snapshot("d", dblp)
        assert old_graph() is None
        assert service.engine("d").graph.num_nodes > 50


def test_retired_epoch_dies_with_its_last_search(no_gc, toy_engine):
    dataset = MutableDataset.from_engine(toy_engine)
    with QueryService() as service:
        service.register_mutable("d", dataset)
        service.apply("d", MUTATION)
        old_graph = weakref.ref(dataset.graph)  # epoch 1's overlay view
        assert old_graph() is not toy_engine.graph
        gate, thread, done = in_flight_search(service, "d", QUERIES[0])
        service.apply("d", [AddNode(label="Another", table="paper", text="second")])
        assert old_graph() is not None
        gate.release()
        thread.join(30.0)
        assert not thread.is_alive() and done[0].ok
        del done[:]
        assert old_graph() is None
