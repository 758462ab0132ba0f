"""Property tests: PathState converges to exact shortest paths.

After expanding every node (in any order), the ATTACH propagation must
leave ``dist[u][i]`` equal to the true shortest-path distance from
``u`` to keyword set ``S_i`` — the invariant both SI-Backward and
Bidirectional rely on at exhaustion.  And part-way there, after any
sequence of backward and forward expansions, it must equal the shortest
distance over exactly the explored edges: the explored-parents map is
implicit in the two expanded sets, so no cascade may cross an edge
whose head was not expanded backward and whose tail was not expanded
forward.
"""

import heapq
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exhaustive import keyword_distances
from repro.core.state import PathState

from tests.helpers import build_graph, expand


@st.composite
def table_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    raw_edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=2 * n,
        )
    )
    edges = {}
    for u, v, w in raw_edges:
        if u != v and (u, v) not in edges:
            edges[(u, v)] = w
    keyword_sets = [
        frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=2,
                )
            )
        )
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    # Exploration order is part of the property: any permutation works.
    order_seed = draw(st.randoms(use_true_random=False))
    return n, edges, keyword_sets, order_seed


def build(n, edges):
    return build_graph(n, [(u, v, w) for (u, v), w in edges.items()])


def assert_paths_realize_distances(state, graph):
    for node in graph.nodes():
        if state.is_complete(node):
            _, dists = state.build_paths(node)
            for row, d in zip(state.dist_rows, dists):
                assert abs(d - row[node]) < 1e-9


@given(case=table_cases())
@settings(max_examples=60, deadline=None)
def test_full_relaxation_matches_dijkstra(case):
    n, edges, keyword_sets, order_rng = case
    graph = build(n, edges)
    state = PathState(graph, keyword_sets)
    state.seed_all()

    # Expand every node, backward or forward, in a random order: either
    # way every search-graph edge ends up explored.
    order = list(graph.nodes())
    order_rng.shuffle(order)
    for node in order:
        expand(state, node, forward=order_rng.random() < 0.3)
    for node in order:
        expand(state, node, forward=node in state.expanded_in)

    for row, targets in zip(state.dist_rows, keyword_sets):
        expected, _ = keyword_distances(graph, targets)
        for node in graph.nodes():
            want = expected.get(node, inf)
            assert row[node] == want or abs(row[node] - want) < 1e-9

    # And the extracted paths realize exactly those distances.
    assert_paths_realize_distances(state, graph)


def explored_edge_distances(graph, targets, expanded_in, expanded_out):
    """Dijkstra toward ``targets`` over the edges ``(u, v)`` with ``v``
    in ``expanded_in`` or ``u`` in ``expanded_out`` and no others."""
    dist = {t: 0.0 for t in targets}
    heap = [(0.0, t) for t in targets]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w, _ in graph.in_edges(v):
            if (v in expanded_in or u in expanded_out) and d + w < dist.get(u, inf):
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


@given(
    case=table_cases(),
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.booleans()), max_size=12
    ),
)
@settings(max_examples=120, deadline=None)
def test_partial_expansion_matches_dijkstra_over_explored_edges(case, steps):
    n, edges, keyword_sets, _ = case
    graph = build(n, edges)
    state = PathState(graph, keyword_sets)
    state.seed_all()
    for node, forward in steps:
        expand(state, node % n, forward=forward)
        # The invariant holds after every whole expansion, not just at
        # the end.
        for row, targets in zip(state.dist_rows, keyword_sets):
            expected = explored_edge_distances(
                graph, targets, state.expanded_in, state.expanded_out
            )
            for node_ in graph.nodes():
                want = expected.get(node_, inf)
                assert row[node_] == want or abs(row[node_] - want) < 1e-9
    assert_paths_realize_distances(state, graph)
    assert sorted(state.seen) == [
        x for x in graph.nodes() if any(row[x] < inf for row in state.dist_rows)
    ]
