"""Spreading activation (paper Section 4.3) on ``ActivationState``.

Every case runs on both graph residencies: the built graph here, the
same graph reloaded from a mapped snapshot (lazy adjacency rows) in the
``...Mapped`` subclasses.
"""

import pytest

from repro.core.state import ActivationState

from tests.helpers import build_graph, reloaded


class _Explored:
    mapped = False

    def act(self, graph, keyword_sets, **kwargs) -> ActivationState:
        """State over its own explored sets, kept as ``xin`` / ``xout``."""
        if self.mapped:
            graph = reloaded(graph)
        self.xin: set[int] = set()
        self.xout: set[int] = set()
        return ActivationState(graph, keyword_sets, self.xin, self.xout, **kwargs)

    def spread_backward(self, act, v):
        self.xin.add(v)
        act.spread(v, act.graph.in_edges(v), act.graph.in_inv_weight_sum(v))

    def spread_forward(self, act, u):
        self.xout.add(u)
        act.spread(u, act.graph.out_edges(u), act.graph.out_inv_weight_sum(u))


class TestSeeding(_Explored):
    def test_seed_divides_prestige_by_origin_size(self):
        g = build_graph(4, [(0, 1)], prestige=[0.4, 0.3, 0.2, 0.1])
        act = self.act(g, [frozenset({0, 1}), frozenset({2})])
        act.seed_all()
        assert act.act_rows[0][0] == pytest.approx(0.4 / 2)
        assert act.act_rows[0][1] == pytest.approx(0.3 / 2)
        assert act.act_rows[1][2] == pytest.approx(0.2)
        assert act.act_rows[0][3] == 0.0

    def test_total_sums_over_keywords(self):
        g = build_graph(2, [(0, 1)], prestige=[0.6, 0.4])
        act = self.act(g, [frozenset({0}), frozenset({0})])
        act.seed_all()
        assert act.total[0] == pytest.approx(0.6 + 0.6)

    def test_mu_validation(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            self.act(g, [frozenset({0})], mu=1.5)

    def test_reseeding_changes_nothing(self):
        g = build_graph(3, [(0, 1)], prestige=[0.5, 0.3, 0.2])
        act = self.act(g, [frozenset({0, 2}), frozenset({1})])
        act.seed_all()
        rows = [[row[v] for v in range(3)] for row in act.act_rows]
        totals = [act.total[v] for v in range(3)]
        act.seed_all()  # max-combine: the same seeds again
        assert [[row[v] for v in range(3)] for row in act.act_rows] == rows
        assert [act.total[v] for v in range(3)] == totals


class TestBackwardSpreading(_Explored):
    def test_spreads_mu_fraction_to_in_neighbours(self):
        # 0 -> 2, 1 -> 2; expanding 2 backward activates 0 and 1.
        g = build_graph(3, [(0, 2), (1, 2)], prestige=[0.2, 0.2, 0.6])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        self.spread_backward(act, 2)
        # In-edges of 2: forward 0->2 and 1->2, weight 1 each; norm = 2.
        assert act.act_rows[0][0] == pytest.approx(0.5 * 0.6 / 2)
        assert act.act_rows[0][1] == pytest.approx(0.5 * 0.6 / 2)

    def test_division_inverse_to_weight(self):
        g = build_graph(3, [(0, 2, 1.0), (1, 2, 3.0)], prestige=[0.2, 0.2, 0.6])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        self.spread_backward(act, 2)
        assert act.act_rows[0][0] / act.act_rows[0][1] == pytest.approx(3.0)

    def test_max_combine_keeps_larger(self):
        g = build_graph(3, [(0, 2), (1, 2)], prestige=[0.2, 0.2, 0.6])
        act = self.act(g, [frozenset({0, 2})], mu=0.5)
        act.seed_all()
        before = act.act_rows[0][0]  # seeded: 0.2 / 2 = 0.1
        self.spread_backward(act, 2)
        # Incoming spread is 0.5*0.3/2 = 0.075 < 0.1: keep the seed.
        assert act.act_rows[0][0] == pytest.approx(before)

    def test_no_in_edges_is_noop(self):
        act = self.act(build_graph(2, []), [frozenset({0})])
        act.seed_all()
        self.spread_backward(act, 0)  # must not raise
        assert act.drain_changed() == []

    def test_two_incoming_shares_combine_by_max_not_sum(self):
        # 0 -> 1 and 0 -> 2, both keyword nodes: 0 hears from each.
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.1, 0.6, 0.3])
        act = self.act(g, [frozenset({1, 2})], mu=0.5)
        act.seed_all()  # a(1) = 0.3, a(2) = 0.15
        self.spread_backward(act, 2)
        assert act.act_rows[0][0] == pytest.approx(0.5 * 0.15)
        self.spread_backward(act, 1)
        assert act.act_rows[0][0] == pytest.approx(0.5 * 0.3)
        assert act.total[0] == pytest.approx(0.5 * 0.3)

    def test_keyword_rows_spread_independently(self):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.2, 0.4, 0.4])
        act = self.act(g, [frozenset({2}), frozenset({1})], mu=0.5)
        act.seed_all()
        self.spread_backward(act, 2)
        assert act.act_rows[0][0] == pytest.approx(0.5 * 0.4)
        assert act.act_rows[1][0] == 0.0  # 2 holds nothing of keyword 1
        assert act.total[0] == pytest.approx(act.act_rows[0][0])


class TestForwardSpreading(_Explored):
    def test_spreads_to_out_neighbours(self):
        g = build_graph(3, [(0, 1), (0, 2)], prestige=[0.6, 0.2, 0.2])
        act = self.act(g, [frozenset({0})], mu=0.5)
        act.seed_all()
        self.spread_forward(act, 0)
        assert act.act_rows[0][1] > 0.0
        assert act.act_rows[0][2] > 0.0

    def test_respreading_is_idempotent(self):
        g = build_graph(2, [(0, 1)], prestige=[0.6, 0.4])
        act = self.act(g, [frozenset({0})], mu=0.5)
        act.seed_all()
        self.spread_forward(act, 0)
        once = act.total[1]
        self.spread_forward(act, 0)  # max-combine: the same shares again
        assert act.total[1] == pytest.approx(once)

    def test_forward_shares_are_inverse_to_weight_over_the_norm(self):
        # Out-edges of 0 weigh 1 and 2: norm = 1/1 + 1/2 = 1.5.
        g = build_graph(3, [(0, 1, 1.0), (0, 2, 2.0)], prestige=[0.6, 0.2, 0.2])
        act = self.act(g, [frozenset({0})], mu=0.5)
        act.seed_all()
        self.spread_forward(act, 0)
        assert act.act_rows[0][1] == pytest.approx(0.5 * 0.6 * 1.0 / 1.5)
        assert act.act_rows[0][2] == pytest.approx(0.5 * 0.6 * 0.5 / 1.5)


class TestActivatePropagation(_Explored):
    def test_cascades_through_explored_parents(self):
        # Chain 0 -> 1 -> 2 with 1 expanded backward before 2 spreads:
        # (0, 1) is explored, so 1's increase cascades on to 0.
        g = build_graph(3, [(0, 1), (1, 2)], prestige=[0.1, 0.1, 0.8])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        self.xin.add(1)
        self.spread_backward(act, 2)
        # 1 got mu * a(2) * share; 0 then got a cascaded share from 1.
        assert act.act_rows[0][1] > 0.0
        assert act.act_rows[0][0] > 0.0
        assert act.act_rows[0][0] < act.act_rows[0][1]

    def test_no_cascade_across_unexplored_edges(self):
        g = build_graph(3, [(0, 1), (1, 2)], prestige=[0.1, 0.1, 0.8])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        self.spread_backward(act, 2)
        assert act.act_rows[0][1] > 0.0
        assert act.act_rows[0][0] == 0.0
        # ...until 0 is expanded forward: (0, 1) then counts.
        self.xout.add(0)
        self.spread_backward(act, 2)  # max-combine: no increase, no cascade
        assert act.act_rows[0][0] == 0.0
        act._set(1, 0, 0.9)  # an increase at 1
        act._propagate_up(1, 0)
        assert act.act_rows[0][0] > 0.0

    def test_cascade_around_a_cycle_stops_at_the_max(self):
        # 0 <-> 1 is a cycle of explored nodes: 1's increase reaches 0,
        # whose smaller share back to 1 must not raise 1 any further.
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)], prestige=[0.1, 0.1, 0.8])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        self.xin.update({0, 1})
        self.xout.update({0, 1})
        self.spread_backward(act, 2)
        assert act.act_rows[0][1] == pytest.approx(0.5 * 0.8)
        assert 0.0 < act.act_rows[0][0] < act.act_rows[0][1]

    def test_cascade_touches_count_the_rows_written(self):
        g = build_graph(3, [(0, 1), (1, 2)], prestige=[0.1, 0.1, 0.8])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        self.xin.add(1)
        self.spread_backward(act, 2)
        assert act.drain_changed() == [0, 1]
        assert act.cascade_touches == 2  # a(1) by the spread, a(0) by ACTIVATE

    def test_drain_reports_increases_only(self):
        g = build_graph(3, [(0, 2), (1, 2)], prestige=[0.2, 0.2, 0.6])
        act = self.act(g, [frozenset({2})], mu=0.5)
        act.seed_all()
        assert act.drain_changed() == []  # seeds are pushed, not re-pushed
        self.spread_backward(act, 2)
        assert act.drain_changed() == [0, 1]
        self.spread_backward(act, 2)  # same values: max-combine no-op
        assert act.drain_changed() == []

    def test_attenuation_dies_out(self):
        # A long chain: activation decays geometrically, so far-away
        # ancestors receive (much) less.
        edges = [(i, i + 1) for i in range(5)]
        g = build_graph(6, edges, prestige=[0.1] * 5 + [0.5])
        act = self.act(g, [frozenset({5})], mu=0.5)
        act.seed_all()
        self.xin.update(range(1, 5))
        self.spread_backward(act, 5)
        values = [act.act_rows[0][i] for i in range(5)]
        assert all(values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] < values[4] / 4


class TestSeedingMapped(TestSeeding):
    mapped = True


class TestBackwardSpreadingMapped(TestBackwardSpreading):
    mapped = True


class TestForwardSpreadingMapped(TestForwardSpreading):
    mapped = True


class TestActivatePropagationMapped(TestActivatePropagation):
    mapped = True
