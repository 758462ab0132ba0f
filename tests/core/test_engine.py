"""KeywordSearchEngine facade and query parsing."""

import pytest

from repro.core.engine import KeywordSearchEngine, parse_query
from repro.core.params import SearchParams
from repro.errors import EmptyQueryError, KeywordNotFoundError


class TestParseQuery:
    def test_splits_on_whitespace(self):
        assert parse_query("gray transaction") == ("gray", "transaction")

    def test_quoted_phrase_is_one_keyword(self):
        assert parse_query('"David Fernandez" parametric') == (
            "David Fernandez",
            "parametric",
        )

    def test_sequence_passthrough(self):
        assert parse_query(["a", " b "]) == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(EmptyQueryError):
            parse_query("   ")
        with pytest.raises(EmptyQueryError):
            parse_query([])

    def test_empty_quotes_dropped(self):
        assert parse_query('"" x') == ("x",)


class TestResolve:
    def test_single_word_keywords(self, toy_engine):
        keywords, sets = toy_engine.resolve("gray transaction")
        assert keywords == ("gray", "transaction")
        assert len(sets[0]) == 1
        assert len(sets[1]) == 2

    def test_phrase_keyword_intersects_words(self, toy_engine):
        _, sets = toy_engine.resolve('"jim gray"')
        assert len(sets[0]) == 1

    def test_unknown_keyword_raises(self, toy_engine):
        with pytest.raises(KeywordNotFoundError):
            toy_engine.resolve("gray warphog")

    def test_phrase_with_no_joint_match_raises(self, toy_engine):
        with pytest.raises(KeywordNotFoundError):
            toy_engine.resolve('"jim selinger"')

    def test_origin_sizes(self, toy_engine):
        assert toy_engine.origin_sizes("transaction gray") == (2, 1)


class TestSearch:
    def test_default_algorithm_is_bidirectional(self, toy_engine):
        result = toy_engine.search("gray transaction")
        assert result.algorithm == "bidirectional"
        assert result.answers

    @pytest.mark.parametrize("algorithm", ["bidirectional", "si-backward", "mi-backward"])
    def test_all_algorithms_reachable(self, toy_engine, algorithm):
        result = toy_engine.search("gray transaction", algorithm=algorithm)
        assert result.algorithm == algorithm
        assert result.answers

    def test_unknown_algorithm_rejected(self, toy_engine):
        with pytest.raises(ValueError, match="unknown algorithm"):
            toy_engine.search("gray", algorithm="quantum")

    def test_k_override(self, toy_engine):
        result = toy_engine.search("transaction", k=1)
        assert len(result.answers) == 1

    def test_params_override(self, toy_engine):
        params = SearchParams(max_results=2, dmax=4)
        result = toy_engine.search("transaction", params=params)
        assert len(result.answers) <= 2

    def test_relation_name_query(self, toy_engine):
        # 'paper' matches all paper tuples via the relation name rule.
        result = toy_engine.search("paper vldb", k=3)
        assert result.answers

    def test_lambda_rescores(self, toy_engine, monkeypatch):
        scores = {}
        for lam in (0.0, 1.0):
            monkeypatch.setattr("repro.core.scoring.LAMBDA", lam)
            engine = KeywordSearchEngine(toy_engine.graph, toy_engine.index)
            scores[lam] = engine.search("gray transaction")
        flat, steep = scores[0.0], scores[1.0]
        assert flat.answers and steep.answers
        assert flat.best().score != steep.best().score


class TestExhaustiveFacade:
    def test_matches_search(self, toy_engine):
        oracle = toy_engine.exhaustive("gray transaction")
        result = toy_engine.search("gray transaction", k=len(oracle) or 1)
        assert oracle
        assert result.best().score == pytest.approx(oracle[0].score)

    def test_respects_max_results(self, toy_engine):
        answers = toy_engine.exhaustive("transaction", max_results=1)
        assert len(answers) == 1


class TestFromDatabase:
    def test_prestige_computed_by_default(self, toy_db):
        engine = KeywordSearchEngine.from_database(toy_db)
        prestige = engine.graph.prestige
        assert prestige.max() > prestige.min()

    def test_uniform_prestige_option(self, toy_db):
        engine = KeywordSearchEngine.from_database(toy_db, compute_prestige=False)
        prestige = engine.graph.prestige
        assert prestige.max() == pytest.approx(prestige.min())
