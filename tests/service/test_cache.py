"""ResultCache: LRU eviction order, key canonicalization."""

import threading

import pytest

from repro.core.params import SearchParams
from repro.errors import EmptyQueryError
from repro.service.cache import ResultCache, canonical_cache_key


# ----------------------------------------------------------------------
# LRU semantics
# ----------------------------------------------------------------------
class TestLru:
    def test_get_and_put(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42
        assert "a" in cache and "missing" not in cache

    def test_eviction_is_least_recently_used_first(self):
        cache = ResultCache(capacity=3)
        for key in "abc":
            cache.put(key, key.upper())
        # Touch 'a' so 'b' becomes the LRU entry.
        assert cache.get("a") == "A"
        cache.put("d", "D")
        assert "b" not in cache
        assert all(key in cache for key in "acd")
        assert cache.stats()["evictions"] == 1

    def test_eviction_order_follows_access_sequence(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        assert list(cache._entries) == ["b", "c"]
        cache.get("b")  # c is now LRU
        cache.put("d", 4)  # evicts c
        assert list(cache._entries) == ["b", "d"]

    def test_put_refreshes_recency_and_value(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh: b becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_capacity_one(self):
        cache = ResultCache(capacity=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" not in cache and cache.get("b") == 2
        assert len(cache) == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


# ----------------------------------------------------------------------
# stats and concurrency
# ----------------------------------------------------------------------
class TestStatsAndThreads:
    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_concurrent_mixed_access_stays_consistent(self):
        cache = ResultCache(capacity=64)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(500):
                    key = (seed * 31 + i) % 100
                    cache.put(key, key)
                    got = cache.get(key)
                    assert got is None or got == key
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64


# ----------------------------------------------------------------------
# canonical keys
# ----------------------------------------------------------------------
class TestCanonicalKey:
    def test_whitespace_and_sequence_forms_collide(self):
        params = SearchParams()
        a = canonical_cache_key("dblp", "gray  transaction", "bidirectional", params)
        b = canonical_cache_key("dblp", " gray transaction ", "bidirectional", params)
        c = canonical_cache_key("dblp", ("gray", "transaction"), "bidirectional", params)
        assert a == b == c
        assert hash(a) == hash(c)

    def test_distinct_dimensions_do_not_collide(self):
        params = SearchParams()
        base = canonical_cache_key("dblp", "gray transaction", "bidirectional", params)
        assert base != canonical_cache_key("imdb", "gray transaction", "bidirectional", params)
        assert base != canonical_cache_key("dblp", "transaction gray", "bidirectional", params)
        assert base != canonical_cache_key("dblp", "gray transaction", "si-backward", params)
        assert base != canonical_cache_key(
            "dblp", "gray transaction", "bidirectional", params.with_(max_results=3)
        )

    def test_quoted_keywords_are_preserved(self):
        params = SearchParams()
        quoted = canonical_cache_key("d", '"jim gray" vldb', "bidirectional", params)
        split = canonical_cache_key("d", "jim gray vldb", "bidirectional", params)
        assert quoted != split

    def test_empty_query_raises(self):
        with pytest.raises(EmptyQueryError):
            canonical_cache_key("d", "   ", "bidirectional", SearchParams())
