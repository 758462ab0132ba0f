"""Unit tests for the batched expansion kernels: backend resolution,
the CSR snapshot, the vector frontier's determinism rules, batch-size
resolution, and the batched loops' cancellation responsiveness bound.
(The emission gate is not a kernel concern: ``test_output_heap.py`` and
``test_driver.py`` cover it.)
"""

import numpy as np
import pytest

from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.cancellation import CancellationToken
from repro.core.kernels import (
    ENV_VAR,
    GraphCSR,
    VectorFrontier,
    available_backends,
    graph_csr,
    numba_available,
    resolve_backend,
)
from repro.core.kernels.engines import effective_batch
from repro.core.params import SearchParams

from tests.helpers import build_graph


class TestBackendResolution:
    def test_explicit_backends_pass_through(self):
        assert resolve_backend("python") == "python"
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("vectorized") == "vectorized"

    def test_auto_defaults_to_python(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend("auto") == "python"

    def test_auto_reads_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert resolve_backend("auto") == "vectorized"

    def test_env_typo_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorised")
        with pytest.raises(ValueError, match="unknown expansion backend"):
            resolve_backend("auto")

    def test_numba_degrades_when_absent(self):
        resolved = resolve_backend("numba")
        if numba_available():
            assert resolved == "numba"
        else:
            assert resolved == "vectorized"

    def test_available_backends_always_include_core_three(self):
        arms = available_backends()
        for backend in ("python", "scalar", "vectorized"):
            assert backend in arms


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
        csr = graph_csr(dg.freeze())
        lo, hi = int(csr.par_indptr[0]), int(csr.par_indptr[1])
        assert hi - lo == 1
        assert float(csr.par_w[lo]) == 1.5


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


class TestEffectiveBatch:
    def test_auto_capped_by_cancel_interval(self):
        params = SearchParams(cancel_check_interval=8)
        assert effective_batch(params) == 8

    def test_explicit_batch_capped_by_cancel_interval(self):
        params = SearchParams(expansion_batch=64, cancel_check_interval=16)
        assert effective_batch(params) == 16

    def test_explicit_batch_below_cap_kept(self):
        params = SearchParams(expansion_batch=4, cancel_check_interval=64)
        assert effective_batch(params) == 4


class TestCancellationResponsiveness:
    """The batched loops consume the token once per batch, and the
    batch is capped at ``cancel_check_interval`` — so a firing token
    stops the search within ~2 check intervals of pops even at the
    largest batch size."""

    def _chain(self, n=400):
        return build_graph(n, [(i + 1, i) for i in range(n - 1)])

    @pytest.mark.parametrize("cls", [SingleIteratorBackwardSearch, BidirectionalSearch])
    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_stops_within_two_check_intervals(self, cls, backend):
        interval = 32
        graph = self._chain()
        sets = [frozenset({0}), frozenset({399})]
        token = CancellationToken(cancel_at_tick=48, check_every=1)
        params = SearchParams(
            expansion_backend=backend,
            expansion_batch=512,  # asks for more than the cap allows
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
            expansion_batch=32,
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
