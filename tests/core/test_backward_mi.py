"""MI-Backward specifics: per-origin iterators, combo emission."""

import pytest

from repro.core.backward_mi import BackwardExpandingSearch, ShortestPathIterator
from repro.core.params import SearchParams
from repro.core.stats import SearchStats

from tests.helpers import build_graph, combo_cap


class TestShortestPathIterator:
    def test_settles_in_distance_order(self):
        g = build_graph(4, [(1, 0, 1.0), (2, 0, 2.0), (3, 2, 1.0)])
        it = ShortestPathIterator(g, origin=0, keyword_indices=(0,), stats=SearchStats())
        order = []
        while True:
            node = it.settle_next(dmax=10)
            if node is None:
                break
            order.append((node, it.settled[node]))
        dists = [d for _, d in order]
        assert dists == sorted(dists)
        assert order[0] == (0, 0.0)

    def test_reverse_traversal_follows_in_edges(self):
        # Forward chain 0 -> 1 -> 2: from origin 2, backward reaches 1 then 0.
        g = build_graph(3, [(0, 1), (1, 2)])
        it = ShortestPathIterator(g, origin=2, keyword_indices=(0,), stats=SearchStats())
        settled = []
        while (node := it.settle_next(dmax=10)) is not None:
            settled.append(node)
        assert set(settled) == {0, 1, 2}
        assert it.settled[0] == pytest.approx(2.0)

    def test_path_to_origin(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        it = ShortestPathIterator(g, origin=2, keyword_indices=(0,), stats=SearchStats())
        while it.settle_next(dmax=10) is not None:
            pass
        assert it.path_to_origin(0) == (0, 1, 2)
        assert it.path_to_origin(2) == (2,)

    def test_peek_is_next_distance(self):
        g = build_graph(2, [(0, 1, 2.5)])
        it = ShortestPathIterator(g, origin=1, keyword_indices=(0,), stats=SearchStats())
        assert it.peek() == 0.0
        it.settle_next(dmax=10)
        assert it.peek() == pytest.approx(2.5)

    def test_dmax_stops_expansion(self):
        edges = [(i, i + 1) for i in range(5)]
        g = build_graph(6, edges)
        it = ShortestPathIterator(g, origin=5, keyword_indices=(0,), stats=SearchStats())
        settled = []
        while (node := it.settle_next(dmax=2)) is not None:
            settled.append(node)
        assert len(settled) == 3  # origin + 2 hops


class TestMultiIterator:
    def test_one_iterator_per_origin_node(self):
        g = build_graph(4, [(0, 1), (2, 1), (3, 1)])
        sets = [frozenset({0, 2}), frozenset({3})]
        search = BackwardExpandingSearch(g, ("a", "b"), sets)
        assert len(search._iterators) == 3

    def test_origin_matching_both_keywords_shares_iterator(self):
        g = build_graph(3, [(0, 1), (2, 1)])
        sets = [frozenset({0}), frozenset({0, 2})]
        search = BackwardExpandingSearch(g, ("a", "b"), sets)
        origins = {(it.origin, it.keyword_indices) for it in search._iterators}
        assert (0, (0, 1)) in origins
        assert (2, (1,)) in origins
        assert len(search._iterators) == 2

    def test_multiple_origin_combinations_emitted(self):
        # Node 1 is reachable from two origins of keyword 0 and one of
        # keyword 1 -> two distinct trees rooted at 1's ancestors.
        g = build_graph(4, [(1, 0), (1, 2), (1, 3)])
        sets = [frozenset({0, 2}), frozenset({3})]
        result = BackwardExpandingSearch(
            g, ("a", "b"), sets, params=SearchParams(max_results=100)
        ).run()
        matched = {tuple(sorted(a.tree.matched_nodes())) for a in result.answers}
        assert (0, 3) in matched
        assert (2, 3) in matched

    def test_combo_cap_limits_emissions(self):
        # A hub with many origins: the per-node combo cap must bound the
        # cross product.
        center = 0
        leaves = list(range(1, 9))
        g = build_graph(9, [(center, leaf) for leaf in leaves])
        sets = [frozenset(leaves[:4]), frozenset(leaves[4:])]
        params = SearchParams(max_results=1000)
        with combo_cap(2):
            capped = BackwardExpandingSearch(g, ("a", "b"), sets, params=params).run()
        full = BackwardExpandingSearch(g, ("a", "b"), sets, params=params).run()
        assert len(capped.answers) < len(full.answers)
        assert full.stats.answers_generated == 16  # 4 x 4 combos at the hub

    def test_touched_counts_per_iterator(self):
        # Each origin's iterator touches nodes independently (the MI
        # space blowup the paper describes).
        g = build_graph(3, [(0, 1), (0, 2)])
        sets = [frozenset({1}), frozenset({2})]
        result = BackwardExpandingSearch(
            g, ("a", "b"), sets, params=SearchParams(max_results=100)
        ).run()
        assert result.stats.nodes_touched > g.num_nodes
