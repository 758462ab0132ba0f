"""Bound computation helpers (Section 4.5)."""

from math import inf
from unittest import mock

import pytest

from repro.core.bidirectional import BidirectionalSearch
from repro.core.driver import frontier_minima, nra_edge_bound
from repro.core.params import SearchParams
from repro.core.scoring import Scorer

from tests.helpers import build_graph


class TestNraEdgeBound:
    def test_sum_of_minima_without_seen_nodes(self):
        assert nra_edge_bound([1.0, 2.0], []) == pytest.approx(3.0)

    def test_seen_incomplete_node_tightens_bound(self):
        # A seen node already has dist 0.5 to keyword 0; with m_1 = 2.0
        # its best completion is 2.5, above... no: 0.5 + 2.0 = 2.5 < 3.0.
        bound = nra_edge_bound([1.0, 2.0], [(0.5, inf)])
        assert bound == pytest.approx(2.5)

    def test_known_distances_trusted(self):
        bound = nra_edge_bound([5.0, 5.0], [(1.0, 2.0)])
        assert bound == pytest.approx(3.0)

    def test_worse_seen_nodes_ignored(self):
        bound = nra_edge_bound([1.0, 1.0], [(10.0, inf)])
        assert bound == pytest.approx(2.0)

    def test_infinite_frontier_handled(self):
        # Keyword 1's frontier is exhausted: unseen roots are impossible
        # and incomplete nodes missing keyword 1 can never finish.
        bound = nra_edge_bound([1.0, inf], [(2.0, inf)])
        assert bound == inf
        # ...but a node that already knows keyword 1 can still finish.
        bound = nra_edge_bound([1.0, inf], [(inf, 3.0)])
        assert bound == pytest.approx(4.0)

    def test_empty_ms(self):
        assert nra_edge_bound([], []) == 0


class TestFrontierMinima:
    def test_minimum_per_keyword(self):
        # Rows as the searches keep them: row[node], inf for unknown.
        rows = [
            {1: 3.0, 2: 1.0, 3: inf},
            {1: inf, 2: 7.0, 3: 2.0},
        ]
        assert frontier_minima(rows, [1, 2, 3]) == [1.0, 2.0]
        assert frontier_minima(rows, [1]) == [3.0, inf]

    def test_empty_frontier_gives_inf(self):
        assert frontier_minima([[0.0], [0.0]], []) == [inf, inf]


class TestEmissionGate:
    """``BaseSearch._gate_blocks``: the one place emission is pruned."""

    def _search(self, **params):
        # 0 <- 1 <- 2 with node 2 the prestigious one.
        graph = build_graph(3, [(1, 0), (2, 1)], prestige=[0.1, 0.1, 0.8])
        return BidirectionalSearch(
            graph,
            ("a", "b"),
            [frozenset({0}), frozenset({1})],
            params=SearchParams(**params),
        )

    def test_open_until_the_output_buffer_has_a_floor(self):
        search = self._search(max_results=1)
        assert not search._gate_blocks(2, 1e12)
        assert search.stats.gate_skips == 0

    def test_blocks_what_cannot_reach_the_floor_and_counts_it(self):
        search = self._search(max_results=1)
        search.output.release_floor = 0.5
        assert search._gate_blocks(2, 1e12)
        assert not search._gate_blocks(2, 0.0)
        assert search.stats.gate_skips == 1

    def test_bound_uses_the_root_and_the_keyword_sets_not_the_graph_maximum(self):
        search = self._search(max_results=1)
        # Leaves come from S_0 = {0}, S_1 = {1}: at most 0.1 + 0.1.
        assert search._leaf_prestige_cap == pytest.approx(0.2)
        lam = search.scorer.lam
        low_root = search.scorer.tree_score_bound(0, 0.2, 1.0)
        high_root = search.scorer.tree_score_bound(2, 0.2, 1.0)
        assert low_root == pytest.approx(0.3**lam / 2.0)
        assert high_root == pytest.approx(1.0**lam / 2.0)
        search.output.release_floor = (low_root + high_root) / 2.0
        assert search._gate_blocks(0, 1.0)
        assert not search._gate_blocks(2, 1.0)

    def test_explicit_leaf_prestige_overrides_the_per_keyword_cap(self):
        search = self._search(max_results=1)
        search.output.release_floor = search.scorer.tree_score_bound(0, 0.15, 1.0)
        assert not search._gate_blocks(0, 1.0)
        assert search._gate_blocks(0, 1.0, 0.1)


class TestEmissionMemo:
    """An exact repeat of a tree already handed to the output is counted,
    not rebuilt: it can only come back ``"duplicate"``."""

    def _search(self):
        graph = build_graph(3, [(2, 0), (2, 1)])
        return BidirectionalSearch(
            graph, ("a", "b"), [frozenset({0}), frozenset({1})]
        )

    def test_an_exact_repeat_is_built_once_and_counted_as_a_duplicate(self):
        search = self._search()
        with mock.patch.object(
            Scorer, "build_tree", autospec=True, side_effect=Scorer.build_tree
        ) as build:
            search._emit_tree(2, [(2, 0), (2, 1)], [1.0, 1.0])
            search._emit_tree(2, [(2, 0), (2, 1)], [1.0, 1.0])
        assert build.call_count == 1
        stats = search.stats
        assert (stats.emit_attempts, stats.answers_generated) == (2, 1)
        assert stats.duplicates_discarded == 1
        assert len(search.output) == 1

    def test_other_dists_or_a_non_minimal_tree_are_not_repeats(self):
        search = self._search()
        search._emit_tree(2, [(2, 0), (2, 1)], [1.0, 1.0])
        search._emit_tree(2, [(2, 0), (2, 1)], [1.0, 0.5])  # improves it
        search._emit_tree(2, [(2, 0, 1)], [2.0])  # one child: not minimal
        search._emit_tree(2, [(2, 0, 1)], [2.0])
        stats = search.stats
        assert stats.emit_attempts == 4
        assert (stats.answers_generated, stats.duplicates_discarded) == (1, 0)
