"""PathState: distances, sp pointers, ATTACH propagation.

Every case runs on both graph residencies: the built graph here, the
same graph reloaded from a mapped snapshot (lazy adjacency rows) in the
``...Mapped`` subclasses.  ``tests.helpers.expand`` drives one node
expansion the way the search loops do: mark the node expanded, then
explore its edge list.
"""

from math import inf

import pytest

from repro.core.state import PathState

from tests.helpers import build_graph, expand, reloaded


def chain_graph():
    # 0 -> 1 -> 2 (plus derived backward edges), every weight 1.
    return build_graph(3, [(0, 1), (1, 2)])


class _BothResidencies:
    mapped = False

    def state(self, graph, keyword_sets) -> PathState:
        return PathState(reloaded(graph) if self.mapped else graph, keyword_sets)


class TestSeeding(_BothResidencies):
    def test_seed_all(self):
        state = self.state(chain_graph(), [frozenset({2}), frozenset({0, 1})])
        assert state.seed_all() == [0, 1, 2]
        assert state.dist_rows[0][2] == 0.0
        assert state.dist_rows[1][0] == 0.0
        assert state.dist_rows[1][1] == 0.0
        assert state.dist_rows[0][0] == inf
        assert sorted(state.seen) == [0, 1, 2]

    def test_seed_returns_matched_indices(self):
        # A node matching two keywords is seeded in both rows.
        state = self.state(chain_graph(), [frozenset({2}), frozenset({2})])
        assert state.seed_all() == [2]
        assert [row[2] for row in state.dist_rows] == [0.0, 0.0]
        assert state.is_complete(2)
        assert state.finite[0] == 0 and not state.is_complete(0)
        state.seed_all()  # seeding twice counts nothing twice
        assert state.finite[2] == 2 and state.seen == [2]

    def test_requires_a_keyword(self):
        with pytest.raises(ValueError):
            self.state(chain_graph(), [])


class TestExploreEdge(_BothResidencies):
    def test_simple_relax(self):
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        state.expanded_in.add(2)
        emitted = []
        state.explore_edge(1, 2, 1.0, emitted.append)
        assert state.dist_rows[0][1] == pytest.approx(1.0)
        assert state.sp[0][1] == (2, 1.0)
        assert emitted == [1]
        assert state.is_complete(1)

    def test_no_improvement_no_completion(self):
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        assert expand(state, 2) == [1]
        emitted = []
        state.explore_edge(1, 2, 5.0, emitted.append)
        assert emitted == []
        assert state.dist_rows[0][1] == pytest.approx(1.0)

    def test_better_parallel_edge_improves(self):
        g = build_graph(2, [(1, 0, 3.0), (1, 0, 1.5)])
        state = self.state(g, [frozenset({0})])
        state.seed_all()
        # Both parallel edges are explored, heavier first: the node
        # completes on the first and is re-emitted on the improvement.
        assert expand(state, 0) == [1, 1]
        assert state.dist_rows[0][1] == pytest.approx(1.5)
        assert state.sp[0][1] == (0, 1.5)

    def test_attach_propagates_to_ancestors(self):
        # Expand 1 first (its distance unknown), then 2: node 0 must be
        # updated transitively through the explored edge (0, 1).
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        assert expand(state, 1) == []
        assert state.dist_rows[0][0] == inf
        assert expand(state, 2) == [0, 1]  # one cascade, emitted ascending
        assert state.dist_rows[0][0] == pytest.approx(2.0)
        assert state.sp[0][0] == (1, 1.0)

    def test_propagation_chooses_best_path(self):
        # Diamond: 0->1->3, 0->2->3, with 0->2->3 cheaper overall.
        g = build_graph(4, [(0, 1, 1.0), (1, 3, 5.0), (0, 2, 1.0), (2, 3, 1.0)])
        state = self.state(g, [frozenset({3})])
        state.seed_all()
        expand(state, 1)
        expand(state, 2)
        state.expanded_in.add(3)
        state.explore_edge(1, 3, 5.0, lambda node: None)
        assert state.dist_rows[0][0] == pytest.approx(6.0)
        state.explore_edge(2, 3, 1.0, lambda node: None)
        assert state.dist_rows[0][0] == pytest.approx(2.0)
        assert state.build_paths(0)[0] == [(0, 2, 3)]

    def test_rejects_nonpositive_weight(self):
        state = self.state(chain_graph(), [frozenset({2})])
        with pytest.raises(ValueError):
            state.explore_edge(0, 1, 0.0, lambda node: None)

    @pytest.mark.parametrize("weight", [float("nan"), inf])
    def test_rejects_nonfinite_weight(self, weight):
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        with pytest.raises(ValueError, match="finite"):
            state.explore_edge(1, 2, weight, lambda node: None)
        assert state.dist_rows[0][1] == inf

    def test_changed_nodes_are_drained_once(self):
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        expand(state, 2)
        expand(state, 1)
        assert state.drain_changed() == [0, 1]
        assert state.drain_changed() == []

    def test_forward_exploration_pulls_the_neighbours_distance(self):
        # Expanding 0 forward explores (0, 1): 0 learns 1's distance,
        # and later improvements of 1 reach 0 through expanded_out.
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        assert expand(state, 0, forward=True) == []
        assert expand(state, 2) == [0, 1]
        assert state.dist_rows[0][0] == pytest.approx(2.0)


class TestCompleteness(_BothResidencies):
    def test_multi_keyword(self):
        state = self.state(chain_graph(), [frozenset({0}), frozenset({2})])
        state.seed_all()
        assert not state.is_complete(1)
        assert expand(state, 2) == []
        assert not state.is_complete(1)
        # Backward edge 1 -> 0 gives the path to keyword 0.
        assert expand(state, 0) == [1]
        assert state.is_complete(1)
        assert state.finite[1] == 2
        assert state.complete_nodes() == [1]

    def test_min_dist(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
        state = self.state(g, [frozenset({0}), frozenset({2})])
        state.seed_all()
        expand(state, 2)
        assert state.min_dist(1) == pytest.approx(3.0)
        expand(state, 0)
        assert state.min_dist(1) == pytest.approx(1.0)

    def test_edge_bound_refines_over_seen_incomplete_nodes(self):
        state = self.state(chain_graph(), [frozenset({0}), frozenset({2})])
        state.seed_all()
        expand(state, 2)
        # Seen and incomplete: 0 = (0, ?), 2 = (?, 0), 1 = (?, 1).  With
        # frontier minima (5, 5) an unseen root costs 10, but seed 0
        # could still complete at 0 + 5.
        assert state.edge_bound([5.0, 5.0]) == 5.0
        assert state.edge_bound([0.5, 9.0]) == 0.5  # seed 2: 0.5 + 0
        assert state.edge_bound([inf, inf]) == inf
        expand(state, 0)
        # 1 is complete at 1 + 1 = 2 now: an answer already generated,
        # no longer a bound on future ones.
        assert state.is_complete(1)
        assert state.edge_bound([5.0, 5.0]) == 5.0


class TestBuildPaths(_BothResidencies):
    def test_paths_and_true_weights(self):
        state = self.state(chain_graph(), [frozenset({2}), frozenset({0})])
        state.seed_all()
        expand(state, 2)
        expand(state, 0)
        paths, weights = state.build_paths(1)
        assert paths == [(1, 2), (1, 0)]
        assert weights == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_seed_root_has_trivial_path(self):
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        paths, weights = state.build_paths(2)
        assert paths == [(2,)]
        assert weights == [0.0]

    def test_incomplete_root_rejected(self):
        state = self.state(chain_graph(), [frozenset({2}), frozenset({0})])
        state.seed_all()
        with pytest.raises(ValueError):
            state.build_paths(1)

    def test_unexplored_edges_carry_no_cascade(self):
        # The explored-parents map is implicit: (0, 1) counts only once
        # 1 was expanded backward or 0 forward.
        state = self.state(chain_graph(), [frozenset({2})])
        state.seed_all()
        expand(state, 2)
        assert state.dist_rows[0][1] == 1.0
        assert state.dist_rows[0][0] == inf


class TestHubRowsStayUnread:
    """A node reached but not expanded backward has no explored edge
    into it while nothing was expanded forward (always so under
    SI-Backward): no cascade may ask for its parent row."""

    class _Rows:
        def __init__(self, memo, allowed):
            self.memo = memo
            self.allowed = allowed

        def __getitem__(self, x):
            assert x in self.allowed, f"parent row of unexpanded node {x} read"
            return self.memo[x]

    def test_attach_skips_unexpanded_nodes(self):
        state = PathState(chain_graph(), [frozenset({2})])
        state._parents = self._Rows(state._parents, state.expanded_in)
        state.seed_all()
        assert expand(state, 2) == [1]  # improves 1, which is not expanded
        assert expand(state, 1) == [0]

    def test_activate_skips_unexpanded_nodes(self):
        from repro.core.state import ActivationState

        g = chain_graph()
        xin: set[int] = set()
        act = ActivationState(g, [frozenset({2})], xin, set())
        act._parents = self._Rows(act._parents, xin)
        act.seed_all()
        xin.add(2)
        act.spread(2, g.in_edges(2), g.in_inv_weight_sum(2))
        assert act.total[1] > 0.0 and act.total[0] == 0.0
        xin.add(1)
        act.spread(1, g.in_edges(1), g.in_inv_weight_sum(1))
        assert act.total[0] > 0.0


class TestParentRows:
    def test_parent_rows_dedup_to_min_weight(self):
        g = build_graph(2, [(1, 0, 3.0), (1, 0, 1.5)])  # parallel, lighter second
        state = PathState(g, [frozenset({0})])
        # Built per asked-for node, first-occurrence order, min weight,
        # with the graph's own normalizer; memoised on the graph.
        assert dict(state._parents) == {}
        assert state._parents[0] == (((1, 1.5),), g.in_inv_weight_sum(0))
        assert PathState(g, [frozenset({1})])._parents is state._parents
        assert list(state._parents) == [0]


class TestSeedingMapped(TestSeeding):
    mapped = True


class TestExploreEdgeMapped(TestExploreEdge):
    mapped = True


class TestCompletenessMapped(TestCompleteness):
    mapped = True


class TestBuildPathsMapped(TestBuildPaths):
    mapped = True
