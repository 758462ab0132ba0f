"""Bidirectional-specific behaviour: forward search, activation order."""

import pytest

from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.params import SearchParams

from tests.helpers import build_graph


def figure4_like(n_papers=30, n_john=14):
    """A small Figure 4 shape: frequent keyword + two authors."""
    from repro.graph.digraph import DataGraph

    g = DataGraph()
    papers = [g.add_node(f"p{i}") for i in range(n_papers)]
    james = g.add_node("james")
    john = g.add_node("john")
    w_james = g.add_node("w_james")
    g.add_edge(w_james, james)
    g.add_edge(w_james, papers[-1])
    for paper in papers[n_papers - n_john:]:
        w = g.add_node(f"w_{paper}")
        g.add_edge(w, john)
        g.add_edge(w, paper)
    sets = [
        frozenset(papers),
        frozenset({james}),
        frozenset({john}),
    ]
    return g.freeze(), sets, papers[-1]


class TestForwardSearch:
    def test_generates_result_before_backward_exhaustion(self):
        graph, sets, co_paper = figure4_like()
        params = SearchParams(max_results=1)
        bidi = BidirectionalSearch(
            graph, ("db", "james", "john"), sets, params=params
        ).run()
        si = SingleIteratorBackwardSearch(
            graph, ("db", "james", "john"), sets, params=params
        ).run()
        assert bidi.answers and si.answers
        assert co_paper in bidi.best().tree.nodes()
        # The headline claim: Bidirectional generates the answer far
        # earlier than distance-ordered backward search.
        assert bidi.best().generated_pops < si.best().generated_pops / 3

    def test_same_best_answer_as_si(self):
        graph, sets, _ = figure4_like()
        params = SearchParams(max_results=1)
        bidi = BidirectionalSearch(graph, ("a", "b", "c"), sets, params=params).run()
        si = SingleIteratorBackwardSearch(
            graph, ("a", "b", "c"), sets, params=params
        ).run()
        assert bidi.best().tree.signature() == si.best().tree.signature()

    def test_forward_only_reachable_root(self):
        # Root 1 is *between* the keywords: 1 -> 0 and 1 -> 2, so the
        # backward search from {0} and {2} touches 1 immediately; the
        # answer needs both directed paths out of 1.
        g = build_graph(3, [(1, 0), (1, 2)])
        sets = [frozenset({0}), frozenset({2})]
        result = BidirectionalSearch(
            g, ("a", "b"), sets, params=SearchParams(max_results=10)
        ).run()
        assert result.answers
        assert result.best().tree.root == 1


class TestActivationOrdering:
    @staticmethod
    def _switches(graph, keywords, sets, **params):
        """The explain timeline's ``switch`` events: the top activation
        of each queue whenever the scheduled side changes."""
        search = BidirectionalSearch(
            graph, keywords, sets, params=SearchParams(**params)
        )
        search.EXPLAIN_EVERY = 1
        search.enable_explain()
        search.run()
        return [e for e in search.explain_events if e["event"] == "switch"]

    def test_rare_keyword_expanded_first(self):
        graph, sets, _ = figure4_like()
        # A rare keyword's lone node is seeded with its whole prestige;
        # each of the 30 papers with a thirtieth of its own.
        rare = max(graph.node_prestige(node) for nodes in sets[1:] for node in nodes)
        assert rare > max(graph.node_prestige(node) / len(sets[0]) for node in sets[0])
        switches = self._switches(graph, ("db", "james", "john"), sets, max_results=1)
        # The first pop comes off Qin at that activation, and Qin's top
        # never exceeds it again.
        assert switches[0]["chose"] == "in"
        assert switches[0]["pin"] == rare
        assert all(e["pin"] is None or e["pin"] <= rare for e in switches)

    def test_mu_zero_spreads_nothing(self):
        graph, sets, _ = figure4_like()
        result = BidirectionalSearch(
            graph,
            ("db", "james", "john"),
            sets,
            params=SearchParams(mu=0.0, max_results=1),
        ).run()
        # Still correct, just differently ordered.
        assert result.answers

    def test_queue_priorities_track_activation_increases(self):
        # 2 <- 1 <- 0 and 2 <- 3: popping 2 pushes 1 and 3 at zero
        # activation, then spreads to them.  The pop after must see
        # the raised priorities: Qin's top at the next switch is the
        # spread share, not the zero they were pushed with.
        g = build_graph(4, [(0, 1), (1, 2), (3, 2)], prestige=[0.1, 0.1, 0.7, 0.1])
        switches = self._switches(g, ("x",), [frozenset({2})], mu=0.5)
        assert switches[0]["pin"] == pytest.approx(0.7)
        # In-edges of 2 weigh 1 each: a half of 0.7, split in two.
        assert switches[1]["pin"] == pytest.approx(0.5 * 0.7 / 2)


class TestBothQueuesCount:
    def test_explored_counts_both_queues(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        sets = [frozenset({1}), frozenset({2})]
        result = BidirectionalSearch(
            g, ("a", "b"), sets, params=SearchParams(max_results=100)
        ).run()
        # At exhaustion every node is popped from Qin and again from
        # Qout, so explored exceeds the node count.
        assert result.stats.nodes_explored > g.num_nodes
