"""Property tests: search-graph construction invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DataGraph

from tests.helpers import reloaded


@st.composite
def edge_lists(draw, max_nodes=12, max_edges=30):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.1, max_value=9.0, allow_nan=False),
            ),
            min_size=1,
            max_size=max_edges,
        ).map(lambda es: [(u, v, w) for u, v, w in es if u != v])
    )
    return n, edges


def build(n, edges):
    g = DataGraph()
    for i in range(n):
        g.add_node(f"n{i}")
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_every_forward_edge_has_backward_twin(case):
    n, edges = case
    dg = build(n, edges)
    indegree = [dg.indegree(i) for i in range(n)]
    sg = dg.freeze()
    assert sg.num_edges == 2 * len(edges)
    # Collect multisets of (src, dst, weight, forward).
    forward = sorted(
        (u, v, round(w, 9))
        for u in sg.nodes()
        for v, w, fwd in sg.out_edges(u)
        if fwd
    )
    assert forward == sorted((u, v, round(w, 9)) for u, v, w in edges)
    backward = sorted(
        (u, v, round(w, 9))
        for u in sg.nodes()
        for v, w, fwd in sg.out_edges(u)
        if not fwd
    )
    expected = sorted(
        (v, u, round(w * math.log2(1 + indegree[v]), 9)) for u, v, w in edges
    )
    assert backward == expected


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_in_edges_are_transpose_of_out_edges(case):
    n, edges = case
    sg = build(n, edges).freeze()
    outs = sorted(
        (u, v, w, fwd) for u in sg.nodes() for v, w, fwd in sg.out_edges(u)
    )
    ins = sorted(
        (u, v, w, fwd) for v in sg.nodes() for u, w, fwd in sg.in_edges(v)
    )
    assert outs == ins


@given(edge_lists())
@settings(max_examples=50, deadline=None)
def test_inverse_weight_sums_positive_where_edges_exist(case):
    n, edges = case
    sg = build(n, edges).freeze()
    for v in sg.nodes():
        if sg.in_degree(v):
            assert sg.in_inv_weight_sum(v) > 0.0
        else:
            assert sg.in_inv_weight_sum(v) == 0.0


@pytest.mark.parametrize("mode", ["ram", "mapped"])
@given(edge_lists())
@settings(max_examples=50, deadline=None)
def test_reloaded_graph_matches_adjacency_and_formula(mode, case):
    n, edges = case
    sg = build(n, edges).freeze()
    loaded = reloaded(sg, mode)
    assert (loaded.num_nodes, loaded.num_edges) == (sg.num_nodes, sg.num_edges)
    # Per combined edge and direction: int32 id, float64 weight, uint8
    # flag; per node: two float64 normalizers.
    assert loaded.compact_nbytes() == 26 * sg.num_edges + 16 * sg.num_nodes
    for u in sg.nodes():
        assert list(loaded.out_edges(u)) == list(sg.out_edges(u))
        assert list(loaded.in_edges(u)) == list(sg.in_edges(u))
        assert loaded.out_inv_weight_sum(u) == sg.out_inv_weight_sum(u)
        assert loaded.in_inv_weight_sum(u) == sg.in_inv_weight_sum(u)
        assert (loaded.out_degree(u), loaded.in_degree(u)) == (
            sg.out_degree(u),
            sg.in_degree(u),
        )
