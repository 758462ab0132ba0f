"""DataGraph construction and validation."""

import pytest

from repro.errors import GraphError, GraphFrozenError, UnknownNodeError
from repro.graph.digraph import DataGraph


class TestAddNode:
    def test_ids_are_dense_and_ordered(self):
        g = DataGraph()
        assert [g.add_node(f"n{i}") for i in range(5)] == [0, 1, 2, 3, 4]
        assert g.num_nodes == 5

    def test_metadata_roundtrip(self):
        g = DataGraph()
        node = g.add_node("Jim Gray", table="author", ref=("author", 7))
        assert g.label(node) == "Jim Gray"
        assert g.table(node) == "author"
        assert g.ref(node) == ("author", 7)

    def test_defaults_are_empty(self):
        g = DataGraph()
        node = g.add_node()
        assert g.label(node) == ""
        assert g.table(node) is None
        assert g.ref(node) is None

    def test_add_nodes_bulk(self):
        g = DataGraph()
        ids = g.add_nodes(["a", "b", "c"])
        assert ids == [0, 1, 2]
        assert g.label(2) == "c"


class TestAddEdge:
    def test_degrees_update(self):
        g = DataGraph()
        a, b, c = g.add_nodes("abc")
        g.add_edge(a, b)
        g.add_edge(c, b)
        assert g.indegree(b) == 2
        assert g.outdegree(a) == 1
        assert g.indegree(a) == 0

    def test_parallel_edges_allowed(self):
        g = DataGraph()
        a, b = g.add_nodes("ab")
        g.add_edge(a, b, 1.0)
        g.add_edge(a, b, 2.0)
        assert g.num_edges == 2
        assert g.indegree(b) == 2

    def test_self_loop_rejected(self):
        g = DataGraph()
        a = g.add_node("a")
        with pytest.raises(GraphError):
            g.add_edge(a, a)

    def test_nonpositive_weight_rejected(self):
        g = DataGraph()
        a, b = g.add_nodes("ab")
        with pytest.raises(GraphError):
            g.add_edge(a, b, 0.0)
        with pytest.raises(GraphError):
            g.add_edge(a, b, -2.0)

    def test_freeze_refuses_an_overflowing_backward_weight(self):
        g = DataGraph()
        a, b, c = g.add_nodes("abc")
        g.add_edge(a, c, 1.5e308)
        g.add_edge(b, c, 1.0)  # indegree 2: 1.5e308 * log2(3) overflows
        with pytest.raises(ValueError, match="overflows"):
            g.freeze()

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, weight):
        g = DataGraph()
        a, b = g.add_nodes("ab")
        with pytest.raises(GraphError, match="finite"):
            g.add_edge(a, b, weight)
        assert g.num_edges == 0

    def test_unknown_node_rejected(self):
        g = DataGraph()
        a = g.add_node("a")
        with pytest.raises(UnknownNodeError):
            g.add_edge(a, 99)
        with pytest.raises(UnknownNodeError):
            g.add_edge(99, a)

    def test_forward_edges_iteration_order(self):
        g = DataGraph()
        a, b, c = g.add_nodes("abc")
        g.add_edge(a, b, 1.5)
        g.add_edge(b, c, 2.5)
        assert list(g.forward_edges()) == [(0, 1, 1.5), (1, 2, 2.5)]


class TestFreeze:
    def test_mutation_after_freeze_fails(self):
        g = DataGraph()
        a, b = g.add_nodes("ab")
        g.add_edge(a, b)
        g.freeze()
        with pytest.raises(GraphFrozenError):
            g.add_node("c")
        with pytest.raises(GraphFrozenError):
            g.add_edge(a, b)

    def test_len_is_node_count(self):
        g = DataGraph()
        g.add_nodes("abc")
        assert len(g) == 3
