"""Tuple sets: exact keyword-subset partition per relation."""

import pytest

from repro.sparse.tuple_sets import TupleSets


@pytest.fixture
def tuple_sets(toy_db) -> TupleSets:
    return TupleSets(toy_db, ("transaction", "gray"))


class TestMatching:
    def test_matched_keywords_per_tuple(self, tuple_sets):
        assert tuple_sets.matched("paper", 1) == {"transaction"}
        assert tuple_sets.matched("paper", 2) == frozenset()
        assert tuple_sets.matched("author", 1) == {"gray"}

    def test_partition_is_exact(self, tuple_sets):
        transaction_papers = tuple_sets.members("paper", frozenset({"transaction"}))
        assert sorted(transaction_papers) == [1, 4]
        both = tuple_sets.members("paper", frozenset({"transaction", "gray"}))
        assert both == []

    def test_free_members_are_all_tuples(self, tuple_sets, toy_db):
        assert len(tuple_sets.free_members("paper")) == toy_db.count("paper")

    def test_has(self, tuple_sets):
        assert tuple_sets.has("paper", frozenset({"transaction"}))
        assert not tuple_sets.has("paper", frozenset({"gray"}))

    def test_in_tuple_set(self, tuple_sets):
        assert tuple_sets.in_tuple_set("paper", 1, frozenset({"transaction"}))
        assert not tuple_sets.in_tuple_set("paper", 2, frozenset({"transaction"}))
        # Free tuple sets admit everything.
        assert tuple_sets.in_tuple_set("paper", 2, frozenset())

    def test_relation_name_matches_all_tuples(self, toy_db):
        ts = TupleSets(toy_db, ("paper", "gray"))
        papers = ts.members("paper", frozenset({"paper"}))
        assert len(papers) == toy_db.count("paper")

    def test_duplicate_keywords_rejected(self, toy_db):
        with pytest.raises(ValueError):
            TupleSets(toy_db, ("gray", "Gray"))
