"""Engine-level memoization: one scorer and the resolve cache."""

import pytest

from repro.core.scoring import Scorer
from repro.errors import KeywordNotFoundError


class TestOneScorer:
    def test_searches_reuse_the_engine_scorer(self, toy_engine, monkeypatch):
        constructed = []
        original_init = Scorer.__init__

        def counting_init(self, graph):
            constructed.append(graph)
            original_init(self, graph)

        monkeypatch.setattr(Scorer, "__init__", counting_init)
        for algorithm in ("bidirectional", "si-backward", "mi-backward"):
            toy_engine.search("gray transaction", algorithm=algorithm)
        assert constructed == []  # every search scores with engine.scorer


class TestResolveCache:
    def test_repeat_resolve_skips_index_lookups(self, toy_engine, monkeypatch):
        keywords, sets_first = toy_engine.resolve("gray transaction")
        lookups = []
        original = type(toy_engine.index).lookup

        def counting_lookup(self, term):
            lookups.append(term)
            return original(self, term)

        monkeypatch.setattr(type(toy_engine.index), "lookup", counting_lookup)
        keywords2, sets_second = toy_engine.resolve("gray  transaction")
        assert lookups == []  # cache hit: the frozen index was not touched
        assert keywords2 == keywords
        assert sets_second == sets_first

    def test_cached_list_is_a_fresh_copy(self, toy_engine):
        _, first = toy_engine.resolve("gray transaction")
        first.append(frozenset({999}))  # caller mutates its copy...
        _, second = toy_engine.resolve("gray transaction")
        assert len(second) == 2  # ...the cache is unaffected

    def test_failed_resolutions_are_not_cached(self, toy_engine):
        for _ in range(2):
            with pytest.raises(KeywordNotFoundError):
                toy_engine.resolve("zzz_not_a_word")
        assert ("zzz_not_a_word",) not in toy_engine._resolve_cache

    def test_cache_is_bounded(self, toy_engine, monkeypatch):
        monkeypatch.setattr(type(toy_engine), "_RESOLVE_CACHE_SIZE", 3)
        terms = list(toy_engine.index.terms())[:6]
        for term in terms:
            toy_engine.resolve(term)
        assert len(toy_engine._resolve_cache) <= 3
        # Most recent entries survive (LRU discards the oldest).
        assert (terms[-1],) in toy_engine._resolve_cache

    def test_sequence_and_string_forms_share_entries(self, toy_engine):
        toy_engine._resolve_cache.clear()
        toy_engine.resolve("gray transaction")
        toy_engine.resolve(("gray", "transaction"))
        assert len(toy_engine._resolve_cache) == 1

    def test_origin_sizes_still_correct(self, toy_engine):
        first = toy_engine.origin_sizes("gray transaction")
        second = toy_engine.origin_sizes("gray transaction")
        assert first == second
        assert all(size >= 1 for size in first)
