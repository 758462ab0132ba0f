"""Frozen SearchGraph: derived backward edges, CSR arrays, prestige."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.errors import UnknownNodeError
from repro.graph.digraph import DataGraph

from tests.helpers import build_graph, reloaded


class TestBackwardEdgeDerivation:
    def test_every_forward_edge_gets_a_backward_twin(self):
        g = build_graph(3, [(0, 1), (2, 1)])
        assert g.num_forward_edges == 2
        assert g.num_edges == 4
        # Backward edges out of node 1 toward both sources.
        back = [(v, w) for v, w, fwd in g.out_edges(1) if not fwd]
        assert sorted(v for v, _ in back) == [0, 2]

    def test_backward_weight_uses_target_indegree(self):
        # Node 1 has indegree 2 -> backward weight log2(3).
        g = build_graph(3, [(0, 1), (2, 1)])
        back_weights = {v: w for v, w, fwd in g.out_edges(1) if not fwd}
        assert back_weights[0] == pytest.approx(math.log2(3))
        assert back_weights[2] == pytest.approx(math.log2(3))

    def test_chain_backward_weight_equals_forward(self):
        g = build_graph(2, [(0, 1, 2.0)])
        back = [(v, w) for v, w, fwd in g.out_edges(1) if not fwd]
        assert back == [(0, pytest.approx(2.0))]

    def test_in_edges_mirror_out_edges(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        for u in g.nodes():
            for v, w, fwd in g.out_edges(u):
                assert (u, w, fwd) in [tuple(e) for e in g.in_edges(v)]

    def test_forward_flags(self):
        g = build_graph(2, [(0, 1)])
        flags = {(u, v): fwd for u in g.nodes() for v, _, fwd in g.out_edges(u)}
        assert flags[(0, 1)] is True
        assert flags[(1, 0)] is False

    def test_degrees(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 2  # two derived backward edges
        assert g.in_degree(1) == 1

    def test_unknown_node_raises(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(UnknownNodeError):
            g.out_edges(5)
        with pytest.raises(UnknownNodeError):
            g.in_edges(-1)


class TestInverseWeightSums:
    def test_matches_manual_sum(self):
        g = build_graph(3, [(0, 1), (2, 1)])
        for v in g.nodes():
            expected = sum(1.0 / w for _, w, _ in g.in_edges(v))
            assert g.in_inv_weight_sum(v) == pytest.approx(expected)
            expected_out = sum(1.0 / w for _, w, _ in g.out_edges(v))
            assert g.out_inv_weight_sum(v) == pytest.approx(expected_out)


class TestPrestige:
    def test_default_is_uniform(self):
        g = build_graph(4, [(0, 1)])
        assert np.allclose(g.prestige, 0.25)

    def test_with_prestige_replaces_vector(self):
        g = build_graph(2, [(0, 1)])
        g2 = g.with_prestige([0.3, 0.7])
        assert g2.node_prestige(1) == pytest.approx(0.7)
        assert g.node_prestige(1) == pytest.approx(0.5)  # original untouched
        assert g2.max_prestige == pytest.approx(0.7)

    def test_prestige_is_read_only(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.prestige[0] = 9.0

    def test_rejects_bad_vectors(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.with_prestige([1.0])
        with pytest.raises(ValueError):
            g.with_prestige([-0.1, 1.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values_anywhere(self, bad):
        """``min`` alone misses a NaN after index 0 and any ``+inf``."""
        g = build_graph(2, [(0, 1)])
        for vector in ((1.0, bad), (bad, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                g._validate_prestige(vector, 2)
            with pytest.raises(ValueError, match="finite"):
                g.with_prestige(vector)


class TestRefs:
    def test_node_by_ref_roundtrip(self):
        dg = DataGraph()
        a = dg.add_node("x", ref=("t", 1))
        b = dg.add_node("y", ref=("t", 2))
        g = dg.freeze()
        assert g.node_by_ref("t", 1) == a
        assert g.node_by_ref("t", 2) == b
        with pytest.raises(KeyError):
            g.node_by_ref("t", 3)


GRAPH_KINDS = (
    "frozen",
    "frozen-with-prestige",
    "from-adjacency",
    "mapped",
    "mapped-with-prestige",
    "ram",
    "overlay",
    "overlay-extended",
)


def _graph_kinds() -> dict:
    """Every way a search graph is made, by :data:`GRAPH_KINDS` name,
    over one four-node base."""
    from repro.graph.searchgraph import SearchGraph
    from repro.index.inverted import InvertedIndex
    from repro.live import AddEdge, AddNode, MutableDataset, RemoveEdge

    def committed(graph, batch):
        """The graph of the epoch one ``MutableDataset`` commit builds."""
        dataset = MutableDataset(graph, InvertedIndex(), compact_ratio=None)
        return dataset.mutate(batch).epoch.graph

    base = build_graph(4, [(0, 1), (1, 2), (3, 2, 2.0)])
    rebuilt = SearchGraph._from_adjacency(
        out=base._out,
        in_=base._in,
        labels=base._labels,
        tables=base._tables,
        refs=base._refs,
        num_forward_edges=base.num_forward_edges,
        prestige=base.prestige_values,
    )
    mapped = reloaded(base)
    kinds = {
        "frozen": base,
        "frozen-with-prestige": base.with_prestige([0.25] * 4),
        "from-adjacency": rebuilt,
        "mapped": mapped,
        "mapped-with-prestige": mapped.with_prestige([0.25] * 4),
        "ram": reloaded(base, "ram"),
        "overlay": committed(mapped, [AddEdge(u=0, v=3), RemoveEdge(u=1, v=2)]),
        "overlay-extended": committed(
            base, [AddNode(label="x", prestige=0.1), AddEdge(u=-1, v=2)]
        ),
    }
    assert tuple(kinds) == GRAPH_KINDS
    return kinds


class TestEveryKind:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_with_prestige_keeps_the_kind(self, kind):
        graph = _graph_kinds()[kind]
        values = [0.5] * graph.num_nodes
        swapped = graph.with_prestige(values)
        assert type(swapped) is type(graph)
        assert getattr(swapped, "storage", None) is getattr(graph, "storage", None)
        assert swapped.prestige_values == tuple(values)
        assert swapped.num_edges == graph.num_edges
        for node in graph.nodes():
            assert swapped.out_edges(node) == graph.out_edges(node)
        assert graph.prestige_values != swapped.prestige_values  # untouched

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_num_edges_counts_the_rows(self, kind):
        graph = _graph_kinds()[kind]
        assert graph.num_edges == sum(
            len(graph.out_edges(node)) for node in graph.nodes()
        )
        assert graph.num_edges == 2 * graph.num_forward_edges

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_in_rows_are_the_out_rows_transposed(self, kind):
        graph = _graph_kinds()[kind]
        out_side = sorted(
            (u, v, w, fwd) for u in graph.nodes() for v, w, fwd in graph.out_edges(u)
        )
        in_side = sorted(
            (u, v, w, fwd) for v in graph.nodes() for u, w, fwd in graph.in_edges(v)
        )
        assert out_side == in_side
        assert len(in_side) == graph.num_edges

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_inverse_weight_sums_match_the_rows(self, kind):
        graph = _graph_kinds()[kind]
        for node in graph.nodes():
            assert graph.out_inv_weight_sum(node) == pytest.approx(
                sum(1.0 / w for _, w, _ in graph.out_edges(node))
            )
            assert graph.in_inv_weight_sum(node) == pytest.approx(
                sum(1.0 / w for _, w, _ in graph.in_edges(node))
            )


DATASETS = ("dblp", "imdb", "patents")


@pytest.mark.parametrize("mode", ("built", "ram", "mapped"))
@pytest.mark.parametrize("dataset", DATASETS)
def test_num_edges_is_twice_the_forward_edges_on_every_dataset(dataset, mode):
    """The edge count is derived, not stored: on every generator's
    graph, in every residency, it is the number of rows each side holds."""
    from repro.core.engine import KeywordSearchEngine
    from repro.datasets import (
        DblpConfig,
        ImdbConfig,
        PatentsConfig,
        make_dblp,
        make_imdb,
        make_patents,
    )

    maker, config = {
        "dblp": (make_dblp, DblpConfig),
        "imdb": (make_imdb, ImdbConfig),
        "patents": (make_patents, PatentsConfig),
    }[dataset]
    graph = KeywordSearchEngine.from_database(maker(config().scaled(0.1))).graph
    if mode != "built":
        graph = reloaded(graph, mode)
    assert graph.num_forward_edges > 0
    assert graph.num_edges == 2 * graph.num_forward_edges
    assert graph.num_edges == sum(len(graph.out_edges(v)) for v in graph.nodes())
    assert graph.num_edges == sum(len(graph.in_edges(v)) for v in graph.nodes())
    forward = sum(fwd for v in graph.nodes() for _, _, fwd in graph.out_edges(v))
    assert forward == graph.num_forward_edges


class TestNodeBounds:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_ids_outside_the_graph_raise(self, kind):
        graph = _graph_kinds()[kind]
        n = graph.num_nodes
        for node in (0, n - 1):
            graph.out_edges(node)
            graph.in_edges(node)
            graph.in_inv_weight_sum(node)
            graph.node_prestige(node)
        for node in (-1, n):
            for read in (
                graph.out_edges,
                graph.in_edges,
                graph.in_inv_weight_sum,
                graph.out_inv_weight_sum,
                graph.node_prestige,
            ):
                with pytest.raises(UnknownNodeError):
                    read(node)

    def test_mapped_edge_reads_never_ask_the_lazy_rows_their_length(self):
        from repro.storage.mapped import _LazyAdjacency

        graph = reloaded(build_graph(4, [(0, 1), (1, 2), (3, 2, 2.0)]))

        def counted_len(self):
            raise AssertionError("_LazyAdjacency.__len__ called")

        with mock.patch.object(_LazyAdjacency, "__len__", counted_len):
            for node in range(4):
                graph.out_edges(node)
                graph.in_edges(node)
                graph.out_inv_weight_sum(node)
                graph.in_inv_weight_sum(node)
            assert graph.num_nodes == 4
            with pytest.raises(UnknownNodeError):
                graph.in_edges(4)
