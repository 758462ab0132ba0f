"""ShardRouter: placement, replica fan-out, deterministic routing."""

import pytest

from repro.cluster.router import ShardRouter
from repro.errors import UnknownDatasetError

DATASETS = ["dblp", "imdb", "patents", "toy"]


def test_every_dataset_is_placed():
    router = ShardRouter(DATASETS, num_workers=3)
    assignments = router.assignments()
    placed = {name for names in assignments.values() for name in names}
    assert placed == set(DATASETS)
    assert set(assignments) == {0, 1, 2}


def test_single_replica_balances_load():
    router = ShardRouter(DATASETS, num_workers=2)
    sizes = sorted(len(names) for names in router.assignments().values())
    assert sizes == [2, 2]


def test_replica_overrides_fan_out():
    router = ShardRouter(DATASETS, num_workers=4, replicas={"dblp": 3})
    assert len(router.replicas_for("dblp")) == 3
    assert len(router.replicas_for("imdb")) == 1


def test_replicas_capped_at_worker_count():
    router = ShardRouter(["only"], num_workers=2, default_replicas=8)
    assert router.replicas_for("only") == (0, 1)


def test_placement_is_deterministic_across_instances_and_order():
    a = ShardRouter(DATASETS, num_workers=3, replicas={"imdb": 2})
    b = ShardRouter(list(reversed(DATASETS)), num_workers=3, replicas={"imdb": 2})
    assert a.assignments() == b.assignments()


def test_routing_is_deterministic_and_stays_on_replicas():
    router = ShardRouter(DATASETS, num_workers=4, default_replicas=2)
    fresh = ShardRouter(DATASETS, num_workers=4, default_replicas=2)
    for name in DATASETS:
        replicas = set(router.replicas_for(name))
        for key in [("gray", "transaction"), ("a",), ("b", "c", "d")]:
            worker = router.route(name, key)
            assert worker in replicas
            # Same inputs, same worker — across calls and instances.
            assert router.route(name, key) == worker
            assert fresh.route(name, key) == worker


def test_routing_spreads_distinct_keys_over_replicas():
    router = ShardRouter(["hot"], num_workers=4, default_replicas=4)
    hits = {router.route("hot", (f"kw{i}",)) for i in range(64)}
    assert len(hits) > 1  # fan-out actually fans out


def test_least_busy_takes_the_idlest_replica_and_ties_go_to_route():
    router = ShardRouter(["hot"], num_workers=4, default_replicas=4)
    keys = [(f"kw{i}",) for i in range(16)]
    for key in keys:
        # An idle fleet is one tie: the hash decides, as route() does.
        assert router.least_busy("hot", key, {}) == router.route("hot", key)
        hashed = router.route("hot", key)
        busy = {w: 1 for w in range(4) if w != hashed}
        assert router.least_busy("hot", key, busy) == hashed
        idle = (hashed + 1) % 4
        assert router.least_busy("hot", key, {hashed: 2, idle: 0}) in {
            w for w in range(4) if w != hashed
        }
        loaded = {**{w: 3 for w in range(4)}, idle: 1}
        assert router.least_busy("hot", key, loaded) == idle
    # A tie among some replicas is broken by the hash over those alone.
    tied = {router.least_busy("hot", key, {0: 5, 1: 5}) for key in keys}
    assert tied == {2, 3}


def test_unknown_dataset_raises():
    router = ShardRouter(["a"], num_workers=1)
    with pytest.raises(UnknownDatasetError):
        router.route("missing", ("x",))
    with pytest.raises(UnknownDatasetError):
        router.replicas_for("missing")


def test_validation():
    with pytest.raises(ValueError):
        ShardRouter([], num_workers=1)
    with pytest.raises(ValueError):
        ShardRouter(["a"], num_workers=0)
    with pytest.raises(ValueError):
        ShardRouter(["a"], num_workers=1, default_replicas=0)
    with pytest.raises(ValueError):
        ShardRouter(["a"], num_workers=1, replicas={"b": 1})
    with pytest.raises(ValueError):
        ShardRouter(["a"], num_workers=1, replicas={"a": 0})
