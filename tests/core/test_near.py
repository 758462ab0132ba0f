"""Near queries and sum-combining activation (paper footnote 6)."""

import pytest

from repro.core.near import NearSearch
from repro.core.state import ActivationState

from tests.helpers import build_graph, reloaded


class TestSumCombine:
    """On the built graph; ``TestSumCombineMapped`` reruns it on the same
    graph reloaded from a mapped snapshot."""

    mapped = False

    def graph(self, *args, **kwargs):
        graph = build_graph(*args, **kwargs)
        return reloaded(graph) if self.mapped else graph

    @staticmethod
    def spread_forward(act, u):
        act.expanded_out.add(u)
        act.spread(u, act.graph.out_edges(u), act.graph.out_inv_weight_sum(u))

    def test_sum_accumulates_multiple_edges(self):
        # 0 -> 2 and 1 -> 2 both seeded: node 3 with edges to both
        # receives the sum of both contributions in sum mode, the max
        # in max mode.
        g = self.graph(3, [(0, 2), (1, 2)], prestige=[0.25, 0.25, 0.5])
        for combine in ("max", "sum"):
            act = ActivationState(
                g,
                [frozenset({0}), frozenset({1})],
                set(),
                set(),
                mu=0.5,
                combine=combine,
            )
            act.seed_all()
            self.spread_forward(act, 0)
            self.spread_forward(act, 1)
            if combine == "sum":
                assert act.act_rows[0][2] > 0 and act.act_rows[1][2] > 0
            total_sum = act.total[2]
        # Re-spreading in sum mode adds again (event semantics)...
        self.spread_forward(act, 0)
        assert act.total[2] > total_sum

    def test_max_mode_respreading_is_idempotent(self):
        g = self.graph(2, [(0, 1)], prestige=[0.6, 0.4])
        act = ActivationState(g, [frozenset({0})], set(), set(), mu=0.5, combine="max")
        act.seed_all()
        self.spread_forward(act, 0)
        once = act.total[1]
        self.spread_forward(act, 0)
        assert act.total[1] == pytest.approx(once)

    def test_sum_cascade_terminates_on_cycle(self, monkeypatch):
        # 0 <-> 1 cycle through forward+backward edges, both nodes
        # expanded: the cascade must decay below the contribution floor
        # and stop.
        g = self.graph(2, [(0, 1), (1, 0)], prestige=[0.5, 0.5])
        monkeypatch.setattr("repro.core.state.MIN_CONTRIBUTION", 1e-6)
        act = ActivationState(
            g, [frozenset({0})], {0, 1}, set(), mu=0.9, combine="sum"
        )
        act.seed_all()
        act.spread(0, g.in_edges(0), g.in_inv_weight_sum(0))  # must return
        assert act.total[1] > 0.0
        assert act.cascade_touches > 2  # the mass went round the cycle

    def test_combine_validation(self):
        g = self.graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            ActivationState(g, [frozenset({0})], set(), set(), combine="avg")

    def test_min_contribution_floors_the_seed_and_the_spread(self, monkeypatch):
        g = self.graph(2, [(0, 1)], prestige=[0.75, 0.25])
        monkeypatch.setattr("repro.core.state.MIN_CONTRIBUTION", 0.5)
        act = ActivationState(
            g, [frozenset({0}), frozenset({1})], set(), set(), combine="sum"
        )
        act.seed_all()
        assert act.total[0] == 0.75 and act.total[1] == 0.0  # 0.25 is under the floor
        self.spread_forward(act, 0)  # carries 0.5 * 0.75 = 0.375: dropped
        assert act.total[1] == 0.0


class TestSumCombineMapped(TestSumCombine):
    mapped = True


class TestNearSearch:
    def graph(self):
        # Chain: k1 - a - b - k2, plus an outlier z hanging off k1.
        #   0(k1) -> 1(a) -> 2(b) -> 3(k2); 4(z) -> 0
        return build_graph(5, [(0, 1), (1, 2), (2, 3), (4, 0)])

    def test_nodes_between_keywords_rank_high(self):
        g = self.graph()
        search = NearSearch(g, [frozenset({0}), frozenset({3})])
        result = search.run(k=3)
        assert result.ranking
        top_nodes = result.nodes()
        # a and b sit between both keywords; z touches only one.
        assert set(top_nodes[:2]) == {1, 2}

    def test_keyword_nodes_excluded_by_default(self):
        g = self.graph()
        result = NearSearch(g, [frozenset({0})]).run(k=10)
        assert 0 not in result.nodes()

    def test_scores_sorted_descending(self):
        g = self.graph()
        result = NearSearch(g, [frozenset({0}), frozenset({3})]).run(k=None)
        scores = [score for _, score in result.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_node_budget_respected(self):
        g = self.graph()
        search = NearSearch(g, [frozenset({0})], node_budget=2)
        result = search.run()
        assert result.stats.nodes_explored <= 2

    def test_validation(self):
        g = self.graph()
        with pytest.raises(ValueError):
            NearSearch(g, [])
        with pytest.raises(ValueError):
            NearSearch(g, [frozenset({0})], node_budget=0)


class TestEngineNear:
    def test_near_via_engine(self, toy_engine):
        result = toy_engine.near("gray vldb", k=5)
        assert len(result) <= 5
        assert all(score > 0 for _, score in result)
        # Gray's VLDB papers sit between the keywords and should appear.
        graph = toy_engine.graph
        tables = {graph.table(node) for node in result.nodes()}
        assert "paper" in tables or "writes" in tables
