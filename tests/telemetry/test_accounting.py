"""Unit + property tests for per-query accounting primitives:
fingerprints, the explain store, and the space-saving workload sketch.

The property suite pins the sketch's three counter invariants —
``true <= est``, ``est - err <= true``, and absent keys bounded by
``absent_bound()`` — across arbitrary streams *and* arbitrary replica
splits folded back with :func:`merge_sketch_exports`, because the
supervisor's ``/debug/queries`` is exactly that merge.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.accounting import (
    ExplainStore,
    SpaceSavingSketch,
    WorkloadAnalytics,
    merge_sketch_exports,
    query_fingerprint,
)


class TestFingerprint:
    def test_term_order_folded_away(self):
        assert query_fingerprint(["paper", "stream"]) == query_fingerprint(
            ["stream", "paper"]
        )

    def test_case_and_whitespace_folded_away(self):
        assert query_fingerprint(["Paper", " stream "]) == query_fingerprint(
            ["paper", "stream"]
        )

    def test_algorithm_distinguishes(self):
        assert query_fingerprint(
            ["a"], algorithm="bidirectional"
        ) != query_fingerprint(["a"], algorithm="si-backward")

    def test_params_distinguish(self):
        assert query_fingerprint(["a"], params={"k": 5}) != query_fingerprint(
            ["a"], params={"k": 10}
        )

    def test_human_scannable_shape(self):
        fingerprint = query_fingerprint(
            ["stream", "paper"], algorithm="bidirectional"
        )
        algorithm, terms, digest = fingerprint.split("|")
        assert algorithm == "bidirectional"
        assert terms == "paper stream"
        assert len(digest) == 8

    def test_digest_is_crc32_of_the_canonical_params(self):
        """Eight hex digits that label a workload shape: ``zlib.crc32``
        (what ``ShardRouter`` keys by), not a ``hashlib`` digest that
        maps OpenSSL into every serving process."""
        import zlib

        assert query_fingerprint(["a"]).split("|")[2] == "%08x" % zlib.crc32(b"{}")
        assert query_fingerprint(["a"], params={"k": 5, "b": 1}).split("|")[2] == (
            "%08x" % zlib.crc32(b'{"b":1,"k":5}')
        )
        assert query_fingerprint(["a"]) == "bidirectional|a|a3a6bf43"

    def test_string_query_kept_whole(self):
        assert query_fingerprint("paper stream").split("|")[1] == "paper stream"


class TestExplainStore:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ExplainStore(0)

    def test_put_get_roundtrip(self):
        store = ExplainStore(4)
        store.put("req-1", {"canonical": {"algorithm": "bidirectional"}})
        assert store.get("req-1") == {
            "canonical": {"algorithm": "bidirectional"}
        }
        assert store.get("unknown") is None

    def test_keeps_last_n(self):
        store = ExplainStore(3)
        for i in range(5):
            store.put(f"req-{i}", {"i": i})
        assert len(store) == 3
        assert [i for i in range(5) if store.get(f"req-{i}")] == [2, 3, 4]
        assert store.get("req-0") is None
        assert store.get("req-4") == {"i": 4}

    def test_rewrite_refreshes_recency(self):
        store = ExplainStore(2)
        store.put("a", {})
        store.put("b", {})
        store.put("a", {"v": 2})  # refreshed: "b" is now the oldest
        store.put("c", {})
        assert store.get("b") is None
        assert store.get("a") == {"v": 2}


class TestSketchUnit:
    def test_exact_under_capacity(self):
        sketch = SpaceSavingSketch(8)
        for key, count in [("a", 3), ("b", 1)]:
            for _ in range(count):
                sketch.offer(key, elapsed=0.5, costs={"pops_in": 10})
        (top, second) = sketch.top()
        assert top == {
            "key": "a",
            "count": 3,
            "error": 0,
            "elapsed_total": pytest.approx(1.5),
            "costs": {"pops_in": 30},
        }
        assert second["key"] == "b"
        assert sketch.total == 4
        assert sketch.absent_bound() == 0  # not full: absent means zero seen

    def test_eviction_inherits_victim_count(self):
        sketch = SpaceSavingSketch(2)
        for _ in range(5):
            sketch.offer("a")
        sketch.offer("b")
        sketch.offer("c")  # evicts "b" (min est 1): c enters with est 2
        assert "b" not in sketch
        (entry,) = [row for row in sketch.top() if row["key"] == "c"]
        assert entry["count"] == 2
        assert entry["error"] == 1
        assert sketch.absent_bound() >= 1

    def test_export_roundtrip(self):
        sketch = SpaceSavingSketch(4)
        sketch.offer("a", elapsed=0.25, costs={"heap_ops": 7})
        restored = SpaceSavingSketch.from_dict(sketch.to_dict())
        assert restored.to_dict() == sketch.to_dict()

    def test_merge_sums_aggregates(self):
        left, right = SpaceSavingSketch(4), SpaceSavingSketch(4)
        left.offer("a", elapsed=1.0, costs={"pops_in": 5})
        right.offer("a", elapsed=2.0, costs={"pops_in": 7, "pops_out": 1})
        right.offer("b")
        left.merge(right)
        assert left.total == 3
        (a_row,) = [row for row in left.top() if row["key"] == "a"]
        assert a_row["count"] == 2
        assert a_row["elapsed_total"] == pytest.approx(3.0)
        assert a_row["costs"] == {"pops_in": 12, "pops_out": 1}

    def test_merge_exports_empty(self):
        merged = merge_sketch_exports([])
        assert merged["total"] == 0
        assert merged["entries"] == []

    def test_analytics_is_locked_facade(self):
        analytics = WorkloadAnalytics(capacity=4)
        analytics.record("fp", elapsed=0.1, costs={"pops_in": 2})
        export = analytics.export()
        assert export["total"] == 1
        assert analytics.top(1)[0]["key"] == "fp"


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
KEYS = st.sampled_from([f"q{i}" for i in range(12)])
streams = st.lists(KEYS, min_size=0, max_size=120)


def _check_invariants(sketch_dict: dict, true_counts: Counter) -> None:
    tracked = {row["key"]: row for row in sketch_dict["entries"]}
    assert sketch_dict["total"] == sum(true_counts.values())
    absent_bound = max(
        [sketch_dict["floor"]]
        + ([min(row["count"] for row in tracked.values())] if len(tracked) >= sketch_dict["capacity"] else [])
    )
    for key, true in true_counts.items():
        row = tracked.get(key)
        if row is None:
            assert true <= absent_bound, (
                f"{key}: true {true} > absent bound {absent_bound}"
            )
        else:
            assert true <= row["count"], f"{key}: underestimated"
            assert row["count"] - row["error"] <= true, f"{key}: bad error bound"
    # No phantom mass: a tracked key never existed in no stream at all
    # unless it inherited an eviction floor (error covers it).
    for key, row in tracked.items():
        assert true_counts.get(key, 0) >= row["count"] - row["error"]


class TestSketchProperties:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams, capacity=st.integers(min_value=1, max_value=6))
    def test_single_sketch_invariants(self, stream, capacity):
        sketch = SpaceSavingSketch(capacity)
        for key in stream:
            sketch.offer(key)
        _check_invariants(sketch.to_dict(), Counter(stream))

    @settings(max_examples=150, deadline=None)
    @given(
        stream=streams,
        cuts=st.lists(st.integers(min_value=0), min_size=0, max_size=3),
        capacity=st.integers(min_value=1, max_value=6),
    )
    def test_merged_replica_invariants(self, stream, cuts, capacity):
        """Split the stream across replicas, sketch each independently,
        fold the exports — the fleet view keeps every guarantee."""
        bounds = sorted(cut % (len(stream) + 1) for cut in cuts)
        replicas, start = [], 0
        for cut in bounds + [len(stream)]:
            replicas.append(stream[start:cut])
            start = cut
        exports = []
        for part in replicas:
            sketch = SpaceSavingSketch(capacity)
            for key in part:
                sketch.offer(key)
            exports.append(sketch.to_dict())
        _check_invariants(merge_sketch_exports(exports), Counter(stream))

    @settings(max_examples=100, deadline=None)
    @given(stream=streams, capacity=st.integers(min_value=1, max_value=6))
    def test_merge_matches_single_stream_total_and_heaviest(
        self, stream, capacity
    ):
        """Merging per-replica sketches never loses a heavy hitter that
        a single sketch of the whole stream would have kept: any key
        whose true count exceeds the merged absent bound is tracked."""
        half = len(stream) // 2
        exports = []
        for part in (stream[:half], stream[half:]):
            sketch = SpaceSavingSketch(capacity)
            for key in part:
                sketch.offer(key)
            exports.append(sketch.to_dict())
        merged = merge_sketch_exports(exports)
        tracked = {row["key"] for row in merged["entries"]}
        bound = max(
            [merged["floor"]]
            + (
                [min(row["count"] for row in merged["entries"])]
                if len(merged["entries"]) >= merged["capacity"]
                else []
            )
        )
        for key, true in Counter(stream).items():
            if true > bound:
                assert key in tracked, (
                    f"heavy hitter {key} (true {true} > bound {bound}) lost"
                )
