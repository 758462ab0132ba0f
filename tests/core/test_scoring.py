"""Tree scoring: E, N, overall relevance (paper Section 2.3)."""

import pytest

from repro.core.scoring import LAMBDA, Scorer, edge_score, overall_score

from tests.helpers import build_graph


class TestEdgeScore:
    def test_sums_per_keyword_path_scores(self):
        assert edge_score([1.0, 2.5, 0.0]) == pytest.approx(3.5)

    def test_empty_is_zero(self):
        assert edge_score([]) == 0.0


class TestOverallScore:
    def test_decreases_with_edge_score(self):
        # Larger E must rank strictly lower (Section 4.5 depends on it).
        scores = [overall_score(e, 1.0, 0.2) for e in (0.0, 1.0, 5.0, 50.0)]
        assert scores == sorted(scores, reverse=True)

    def test_increases_with_node_score(self):
        scores = [overall_score(1.0, n, 0.2) for n in (0.1, 0.5, 1.0, 2.0)]
        assert scores == sorted(scores)

    def test_lambda_zero_ignores_prestige(self):
        assert overall_score(1.0, 0.123, 0.0) == pytest.approx(0.5)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            overall_score(-1.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            overall_score(1.0, -1.0, 0.2)


class TestScorer:
    def test_node_score_root_plus_leaves(self):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.5, 0.3, 0.2])
        scorer = Scorer(g)
        tree = scorer.build_tree(0, [(0, 1), (0, 2)], [1.0, 1.0])
        assert tree.node_score == pytest.approx(0.5 + 0.3 + 0.2)

    def test_root_counted_once_in_single_node_tree(self):
        g = build_graph(2, [(0, 1)], prestige=[0.6, 0.4])
        scorer = Scorer(g)
        tree = scorer.build_tree(0, [(0,)], [0.0])
        assert tree.node_score == pytest.approx(0.6)

    def test_internal_keyword_node_not_counted(self):
        # N sums the root and *leaf* nodes only (paper Section 2.3).
        g = build_graph(3, [(1, 0), (2, 1)], prestige=[0.5, 0.3, 0.2])
        scorer = Scorer(g)
        tree = scorer.build_tree(0, [(0, 1), (0, 1, 2)], [1.0, 2.0])
        assert tree.node_score == pytest.approx(0.5 + 0.2)

    def test_build_tree_validates_roots(self):
        g = build_graph(2, [(0, 1)])
        scorer = Scorer(g)
        with pytest.raises(ValueError):
            scorer.build_tree(0, [(1, 0)], [1.0])
        with pytest.raises(ValueError):
            scorer.build_tree(0, [(0, 1)], [1.0, 2.0])

    def test_score_formula(self, monkeypatch):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.5, 0.3, 0.2])
        monkeypatch.setattr("repro.core.scoring.LAMBDA", 0.5)
        scorer = Scorer(g)
        tree = scorer.build_tree(0, [(0, 1), (0, 2)], [1.0, 2.0])
        assert tree.edge_score == pytest.approx(3.0)
        assert tree.score == pytest.approx((1.0 ** 0.5) / 4.0)

    def test_default_lambda_is_the_papers(self):
        assert Scorer(build_graph(2, [(0, 1)])).lam == LAMBDA == 0.2


class TestBounds:
    def test_node_score_upper_bound(self):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.5, 0.3, 0.2])
        scorer = Scorer(g)
        assert scorer.node_score_upper_bound(2) == pytest.approx(0.5 * 3)

    def test_score_upper_bound_dominates_real_trees(self):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.5, 0.3, 0.2])
        scorer = Scorer(g)
        tree = scorer.build_tree(0, [(0, 1), (0, 2)], [1.0, 1.0])
        bound = scorer.score_upper_bound(tree.edge_score, 2)
        assert bound >= tree.score

    def test_infinite_edge_bound_gives_zero(self):
        g = build_graph(2, [(0, 1)])
        scorer = Scorer(g)
        assert scorer.score_upper_bound(float("inf"), 3) == 0.0
