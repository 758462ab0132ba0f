"""Exhaustive oracle: keyword distances and full enumeration."""

from math import inf

import pytest

from repro.core.exhaustive import exhaustive_answers, keyword_distances
from repro.core.scoring import Scorer

from tests.helpers import build_graph, validate_answer_tree


class TestKeywordDistances:
    def test_chain(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        dist, sp = keyword_distances(g, frozenset({2}))
        assert dist[2] == 0.0
        assert dist[1] == pytest.approx(1.0)
        assert dist[0] == pytest.approx(2.0)
        assert sp[1][0] == 2
        assert sp[0][0] == 1

    def test_multi_source_takes_nearest(self):
        g = build_graph(4, [(0, 1), (0, 2), (2, 3)])
        dist, _ = keyword_distances(g, frozenset({1, 3}))
        assert dist[0] == pytest.approx(1.0)

    def test_agrees_with_networkx(self):
        import networkx as nx
        import random

        from tests.helpers import random_data_graph

        rng = random.Random(7)
        g = random_data_graph(rng, n_nodes=25, n_edges=60)
        targets = frozenset({0, 5})
        dist, _ = keyword_distances(g, targets)

        nxg = nx.MultiDiGraph()
        nxg.add_nodes_from(range(g.num_nodes))
        for u in g.nodes():
            for v, w, _ in g.out_edges(u):
                nxg.add_edge(u, v, weight=w)
        lengths = {}
        for node in nxg.nodes:
            best = inf
            for target in targets:
                try:
                    best = min(
                        best,
                        nx.shortest_path_length(
                            nxg, node, target, weight="weight"
                        ),
                    )
                except nx.NetworkXNoPath:
                    pass
            lengths[node] = best
        for node in range(g.num_nodes):
            ours = dist.get(node, inf)
            assert ours == pytest.approx(lengths[node])


class TestExhaustiveAnswers:
    def test_finds_connecting_tree(self):
        # 1 <- 0 -> 2; keywords at 1 and 2; best root is 0.
        g = build_graph(3, [(0, 1), (0, 2)])
        answers = exhaustive_answers(g, [frozenset({1}), frozenset({2})])
        assert answers
        best = answers[0]
        assert best.root == 0
        assert best.nodes() == {0, 1, 2}

    def test_sorted_by_score(self):
        g = build_graph(5, [(0, 1), (0, 2), (3, 1), (3, 2), (3, 4)])
        answers = exhaustive_answers(g, [frozenset({1}), frozenset({2})])
        scores = [t.score for t in answers]
        assert scores == sorted(scores, reverse=True)

    def test_rotations_deduplicated(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        answers = exhaustive_answers(g, [frozenset({1}), frozenset({2})])
        signatures = [t.signature() for t in answers]
        assert len(signatures) == len(set(signatures))

    def test_all_trees_valid(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        sets = [frozenset({1, 4}), frozenset({5})]
        for tree in exhaustive_answers(g, sets):
            validate_answer_tree(g, sets, tree)

    def test_max_results(self):
        g = build_graph(4, [(0, 1), (2, 1), (3, 1), (0, 3)])
        sets = [frozenset({1})]
        full = exhaustive_answers(g, sets)
        capped = exhaustive_answers(g, sets, max_results=1)
        assert len(capped) == 1
        assert capped[0].signature() == full[0].signature()

    def test_max_edge_score_filters(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        sets = [frozenset({0}), frozenset({2})]
        all_answers = exhaustive_answers(g, sets)
        cheap_only = exhaustive_answers(g, sets, max_edge_score=1.0)
        assert len(cheap_only) <= len(all_answers)
        assert all(t.edge_score <= 1.0 for t in cheap_only)

    def test_disconnected_keywords_no_answers(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert exhaustive_answers(g, [frozenset({0}), frozenset({3})]) == []

    def test_custom_scorer_used(self, monkeypatch):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.8, 0.1, 0.1])
        monkeypatch.setattr("repro.core.scoring.LAMBDA", 1.0)
        answers = exhaustive_answers(g, [frozenset({1}), frozenset({2})], Scorer(g))
        assert answers[0].score == pytest.approx((0.8 + 0.1 + 0.1) / 3.0)
