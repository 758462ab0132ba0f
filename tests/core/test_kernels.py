"""Unit tests for the batched expansion engine: the numpy candidate
kernels against their reference loops (``tests/helpers.py``), the CSR
views and the lazy parent rows, the vector frontier's determinism
rules, the batch size, and the batched loops' cancellation
responsiveness bound.
(The emission gate is not a kernel concern: ``test_output_heap.py`` and
``test_driver.py`` cover it.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.cancellation import CancellationToken
from repro.core.kernels import GraphCSR, VectorFrontier, graph_csr
from repro.core.kernels import expand
from repro.core.params import SearchParams
from repro.core.state import PathState

from tests.helpers import (
    build_graph,
    dist_candidates_reference,
    spread_candidates_reference,
)


@st.composite
def kernel_inputs(draw):
    """Random ``(state, tgt, src, w, norm)`` arrays: ``k x n`` state
    with ties, zeros and (for distances) unreached ``inf`` cells, and
    up to 24 edges with repeats and self-loops."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=24))
    cell = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, float("inf")]),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    )
    state = np.array(
        draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=k, max_size=k)),
        dtype=np.float64,
    ).reshape(k, n)
    node = st.integers(min_value=0, max_value=n - 1)
    positive = st.floats(min_value=0.1, max_value=6.0, allow_nan=False)
    tgt = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    src = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    w = np.array(draw(st.lists(positive, min_size=m, max_size=m)), dtype=np.float64)
    norm = np.array(draw(st.lists(positive, min_size=m, max_size=m)), dtype=np.float64)
    return state, tgt, src, w, norm


def _assert_same_candidates(got, want):
    """Same (edge, keyword) pairs in the same order, values bit-equal."""
    e_idx, i_idx, values = got
    e_ref, i_ref, values_ref = want
    assert e_idx.tolist() == e_ref
    assert i_idx.tolist() == i_ref
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in values_ref]


class TestKernelsMatchReferenceLoops:
    """The engines share all application code, so candidate computation
    is the only place the numpy path could diverge from per-element
    python arithmetic."""

    @given(case=kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_dist_candidates(self, case):
        dist, tgt, src, w, _ = case
        _assert_same_candidates(
            expand.dist_candidates(dist, tgt, src, w),
            dist_candidates_reference(dist, tgt, src, w),
        )

    @pytest.mark.parametrize("combine", ["max", "sum"])
    @given(
        case=kernel_inputs(),
        mu=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        floor=st.sampled_from([0.0, 1e-9, 0.05]),
    )
    @settings(max_examples=200, deadline=None)
    def test_spread_candidates(self, combine, case, mu, floor):
        act, tgt, src, w, norm = case
        act = np.where(np.isinf(act), 0.0, act)  # activations are finite
        args = (act, tgt, src, w, norm, mu, combine, floor)
        _assert_same_candidates(
            expand.spread_candidates(*args),
            spread_candidates_reference(*args),
        )


class TestGraphCSR:
    def test_rows_match_graph_edge_order(self):
        g = build_graph(4, [(1, 0), (2, 0), (3, 1), (3, 2)])
        csr = graph_csr(g)
        assert isinstance(csr, GraphCSR)
        for v in range(4):
            lo, hi = int(csr.in_indptr[v]), int(csr.in_indptr[v + 1])
            assert [int(u) for u in csr.in_src[lo:hi]] == [
                u for u, _, _ in g.in_edges(v)
            ]
            lo, hi = int(csr.out_indptr[v]), int(csr.out_indptr[v + 1])
            assert [int(u) for u in csr.out_dst[lo:hi]] == [
                u for u, _, _ in g.out_edges(v)
            ]

    def test_cached_on_graph(self):
        g = build_graph(3, [(1, 0), (2, 1)])
        assert graph_csr(g) is graph_csr(g)

    def test_parent_rows_dedup_to_min_weight(self):
        from repro.graph.digraph import DataGraph

        dg = DataGraph()
        for i in range(2):
            dg.add_node(f"n{i}")
        dg.add_edge(1, 0, 3.0)
        dg.add_edge(1, 0, 1.5)  # parallel edge, lighter
        graph = dg.freeze()
        state = PathState(graph, [frozenset({0})])
        # Built per asked-for node, first-occurrence order, min weight,
        # with the graph's own normalizer; memoised on the graph.
        assert dict(state._parents) == {}
        assert state._parents[0] == (((1, 1.5),), graph.in_inv_weight_sum(0))
        assert PathState(graph, [frozenset({1})], dense=True)._parents is state._parents
        assert list(state._parents) == [0]


class TestVectorFrontier:
    def test_min_pop_order_breaks_ties_by_insertion(self):
        f = VectorFrontier(8, kind="min")
        f.push(5, 1.0)
        f.push(2, 1.0)
        f.push(7, 0.5)
        assert f.pop_batch(3).tolist() == [7, 5, 2]

    def test_update_does_not_bump_sequence(self):
        f = VectorFrontier(8, kind="min")
        f.push(3, 1.0)
        f.push(4, 1.0)
        f.update_many(np.array([3]), np.array([1.0]))
        # 3 still precedes 4: update_many keeps the original seq.
        assert f.pop_batch(2).tolist() == [3, 4]

    def test_pop_batch_clamps_to_size(self):
        f = VectorFrontier(4, kind="max")
        f.push_many(np.array([0, 1]), np.array([0.3, 0.9]))
        assert f.pop_batch(10).tolist() == [1, 0]
        assert not f

    def test_contains_mask_tracks_membership(self):
        f = VectorFrontier(4, kind="min")
        f.push(2, 0.0)
        assert f.contains_mask.tolist() == [False, False, True, False]
        f.pop_batch(1)
        assert not f.contains_mask.any()


class TestBatchSize:
    """The batch is ``cancel_check_interval`` cursors: no other knob."""

    @pytest.mark.parametrize("interval", [1, 8, 32])
    def test_si_pops_full_batches(self, interval):
        # 100 isolated seeds: nothing is ever pushed after seeding, so
        # the frontier drains in ceil(100 / interval) full batches.
        graph = build_graph(100, [])
        sets = [frozenset(range(60)), frozenset(range(60, 100))]
        params = SearchParams(
            expansion_backend="vectorized", cancel_check_interval=interval
        )
        stats = SingleIteratorBackwardSearch(
            graph, ("a", "b"), sets, params=params
        ).run().stats
        assert stats.nodes_explored == 100
        assert stats.kernel_batches == -(-100 // interval)

    @pytest.mark.parametrize("interval", [1, 8, 32])
    def test_bidirectional_batches_never_exceed_the_interval(self, interval):
        graph = build_graph(100, [(i + 1, i) for i in range(99)])
        sets = [frozenset(range(40)), frozenset({99})]
        params = SearchParams(
            expansion_backend="vectorized", cancel_check_interval=interval, dmax=200
        )
        stats = BidirectionalSearch(graph, ("a", "b"), sets, params=params).run().stats
        assert stats.kernel_batches >= -(-stats.nodes_explored // interval)
        if interval == 1:
            assert stats.kernel_batches == stats.nodes_explored


class TestCancellationResponsiveness:
    """The batched loops consume the token once per batch, and the
    batch is ``cancel_check_interval`` pops — so a firing token stops
    the search within ~2 check intervals of pops."""

    def _chain(self, n=400):
        return build_graph(n, [(i + 1, i) for i in range(n - 1)])

    @pytest.mark.parametrize("cls", [SingleIteratorBackwardSearch, BidirectionalSearch])
    def test_stops_within_two_check_intervals(self, cls):
        interval = 32
        graph = self._chain()
        sets = [frozenset({0}), frozenset({399})]
        token = CancellationToken(cancel_at_tick=48, check_every=1)
        params = SearchParams(
            expansion_backend="vectorized",
            cancel_check_interval=interval,
            max_results=1,
            dmax=500,
        )
        result = cls(graph, ("a", "b"), sets, params=params, token=token).run()
        assert result.cancel_reason == "cancelled"
        assert result.stats.nodes_explored <= 48 + interval

    def test_exact_tick_cut_matches_grant(self):
        graph = self._chain()
        sets = [frozenset({0}), frozenset({399})]
        token = CancellationToken(cancel_at_tick=10, check_every=1)
        params = SearchParams(
            expansion_backend="vectorized",
            cancel_check_interval=32,
            max_results=1,
            dmax=500,
        )
        result = SingleIteratorBackwardSearch(
            graph, ("a", "b"), sets, params=params, token=token
        ).run()
        # tick_many matches tick()'s exact cut: the 10th tick observes
        # the firing and its pop is skipped, so 9 pops complete — the
        # batch is trimmed to the grant, not rounded up to batch size.
        assert result.stats.nodes_explored == 9
