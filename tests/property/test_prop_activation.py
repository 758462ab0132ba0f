"""Property tests: spreading-activation invariants of ``ActivationState``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import ActivationState
from repro.graph.digraph import DataGraph


@st.composite
def activation_cases(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
            ),
            min_size=2,
            max_size=2 * n,
        )
    )
    dedup = {}
    for u, v, w in edges:
        if u != v:
            dedup[(u, v)] = w
    keyword_sets = [
        frozenset(
            draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3))
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    mu = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    spreads = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["backward", "forward"]),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
        )
    )
    return n, dedup, keyword_sets, mu, spreads


def build(n, edges):
    dg = DataGraph()
    for i in range(n):
        dg.add_node(str(i))
    for (u, v), w in edges.items():
        dg.add_edge(u, v, w)
    return dg.freeze()


def spread_all(act, graph, spreads):
    """Simulate exploration: each spreading node is expanded first, so
    its edges count as explored for the ACTIVATE cascades."""
    for direction, node in spreads:
        if direction == "backward":
            act.expanded_in.add(node)
            act.spread(node, graph.in_edges(node), graph.in_inv_weight_sum(node))
        else:
            act.expanded_out.add(node)
            act.spread(node, graph.out_edges(node), graph.out_inv_weight_sum(node))


@given(case=activation_cases())
@settings(max_examples=80, deadline=None)
def test_activation_bounded_and_consistent(case):
    n, edges, keyword_sets, mu, spreads = case
    graph = build(n, edges)
    act = ActivationState(graph, keyword_sets, set(), set(), mu=mu)
    act.seed_all()

    seed_max = [
        max(
            (graph.node_prestige(u) / len(nodes) for u in nodes),
            default=0.0,
        )
        for nodes in keyword_sets
    ]

    spread_all(act, graph, spreads)

    for i, row in enumerate(act.act_rows):
        for node in range(n):
            # Non-negative and never above the strongest seed of that
            # keyword (mu <= 1 and max-combine cannot amplify).
            assert row[node] >= 0.0
            assert row[node] <= seed_max[i] + 1e-9

    for node in range(n):
        total = sum(row[node] for row in act.act_rows)
        assert abs(total - act.total[node]) < 1e-9

    # Whatever moved is reported once.
    moved = act.drain_changed()
    assert moved == sorted(set(moved)) and act.drain_changed() == []


@given(case=activation_cases())
@settings(max_examples=40, deadline=None)
def test_spreading_is_monotone_nondecreasing(case):
    """Spreading can only raise activations (max-combine)."""
    n, edges, keyword_sets, mu, spreads = case
    graph = build(n, edges)
    act = ActivationState(graph, keyword_sets, set(), set(), mu=mu)
    act.seed_all()
    before = [[row[node] for node in range(n)] for row in act.act_rows]
    spread_all(act, graph, spreads)
    for row, previous in zip(act.act_rows, before):
        for node in range(n):
            assert row[node] >= previous[node] - 1e-12
