"""SI-Backward specifics: distance ordering, single iterator."""

from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.params import SearchParams

from tests.helpers import build_graph


class TestDistanceOrdering:
    def test_pops_in_nondecreasing_distance(self):
        g = build_graph(
            6, [(0, 5, 1.0), (1, 5, 2.0), (2, 1, 1.5), (3, 0, 4.0), (4, 3, 1.0)]
        )
        sets = [frozenset({5})]
        search = SingleIteratorBackwardSearch(
            g, ("x",), sets, params=SearchParams(max_results=100)
        )
        popped_priorities = []
        original_pop = search._queue.pop

        def spy_pop():
            item, priority = original_pop()
            popped_priorities.append(priority)
            return item, priority

        search._queue.pop = spy_pop
        search.run()
        cleaned = [p for p in popped_priorities]
        assert cleaned == sorted(cleaned)

    def test_each_node_explored_once(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sets = [frozenset({4})]
        result = SingleIteratorBackwardSearch(
            g, ("x",), sets, params=SearchParams(max_results=100)
        ).run()
        assert result.stats.nodes_explored <= g.num_nodes

    def test_no_forward_iterator(self):
        # SI must never find the between-keywords root that only forward
        # search discovers: 1 -> 0, 1 -> 2 with keywords {0} and {2}.
        g = build_graph(3, [(1, 0), (1, 2)])
        sets = [frozenset({0}), frozenset({2})]
        result = SingleIteratorBackwardSearch(
            g, ("a", "b"), sets, params=SearchParams(max_results=10)
        ).run()
        # Backward exploration still reaches node 1 via in-edge
        # relaxations of 0 and 2... through *backward* edges 0->1, 2->1
        # which exist in the search graph; so the answer IS found.  The
        # distinguishing fact is cost, covered by the bidirectional
        # tests; here we assert correctness only.
        assert result.answers
        assert result.best().tree.root == 1

    def test_distance_priority_updates_on_improvement(self):
        # X (2) is first reached straight from the keyword at distance
        # 5, then at 2 through A (1) before it is popped; Y (3) sits at
        # 2.5.  If X's queue priority drops with its distance it pops
        # third, ahead of Y — visible in the explain timeline, whose
        # per-pop samples count the nodes touched so far: expanding X
        # touches its three parents, expanding Y its one.
        g = build_graph(
            9,
            [
                (1, 0, 1.0),
                (3, 0, 2.5),
                (2, 0, 5.0),
                (2, 1, 1.0),
                (4, 2, 1.0),
                (5, 2, 1.0),
                (6, 2, 1.0),
                (7, 3, 1.0),
            ],
        )
        sets = [frozenset({0})]
        search = SingleIteratorBackwardSearch(
            g, ("x",), sets, params=SearchParams(max_results=100)
        )
        search.EXPLAIN_EVERY = 1
        search.enable_explain()
        search.run()
        touched = [
            e["touched"] for e in search.explain_events if e["event"] == "sample"
        ]
        # Sampled at each pop, before its expansion: the keyword,
        # A (after 0 touched A, Y, X), the third pop, the fourth.
        assert touched[:4] == [1, 4, 4, 7]

    def test_emits_when_complete_on_pop(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        sets = [frozenset({1}), frozenset({2})]
        result = SingleIteratorBackwardSearch(
            g, ("a", "b"), sets, params=SearchParams(max_results=10)
        ).run()
        assert result.answers
        assert result.best().tree.root == 0
