"""Overlay views: per-operation equivalence with a from-scratch rebuild."""

import numpy as np
import pytest

from repro.errors import MutationError, UnknownNodeError
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode, RemoveEdge, UpdateText

from tests.live.conftest import (
    assert_same_graph,
    assert_same_index,
    replay,
)


def mutate_both(dataset, model, mutations):
    """Apply the batch to both the overlay and the replay reference,
    returning (overlay epoch, rebuilt engine)."""
    outcome = dataset.mutate(mutations)
    new_nodes = replay(model, mutations)
    assert list(outcome.new_nodes) == new_nodes
    rebuilt = model.build(prestige=outcome.epoch.graph.prestige)
    return outcome.epoch, rebuilt


class TestStructuralEquivalence:
    def test_add_isolated_node(self, toy_dataset, toy_model):
        epoch, rebuilt = mutate_both(
            toy_dataset,
            toy_model,
            [AddNode(label="Lone Node", table="paper", text="orphan topic")],
        )
        assert_same_graph(epoch.graph, rebuilt.graph)
        assert_same_index(epoch.index, rebuilt.index, extra_terms=["orphan"])

    def test_add_edge_reweights_hub_backward_edges(self, toy_dataset, toy_model):
        # Conference node 4 (VLDB) already has incoming paper edges;
        # raising its indegree must reweight *all* of its backward
        # edges (w * log2(1 + indegree)), including at the partners.
        epoch, rebuilt = mutate_both(
            toy_dataset,
            toy_model,
            [
                AddNode(label="P99", table="paper", text="late breaking paper"),
                AddEdge(u=-1, v=3),
            ],
        )
        assert_same_graph(epoch.graph, rebuilt.graph)
        assert_same_index(epoch.index, rebuilt.index)

    def test_remove_edge_reweights_down(self, toy_dataset, toy_model):
        # cites row 8 in the toy graph? remove a FK edge that exists:
        # paper 5 -> conference 3 ("The Transaction Concept" -> VLDB).
        epoch, rebuilt = mutate_both(toy_dataset, toy_model, [RemoveEdge(u=5, v=3)])
        assert_same_graph(epoch.graph, rebuilt.graph)

    def test_parallel_edges_same_weight(self, toy_dataset, toy_model):
        batch = [
            AddNode(label="A", text="parallel alpha"),
            AddNode(label="B", text="parallel beta"),
            AddEdge(u=-1, v=-2),
            AddEdge(u=-1, v=-2),
            AddEdge(u=-1, v=-2, weight=3.0),
            RemoveEdge(u=-1, v=-2),  # earliest of the three
        ]
        epoch, rebuilt = mutate_both(toy_dataset, toy_model, batch)
        assert_same_graph(epoch.graph, rebuilt.graph)

    def test_remove_by_weight_picks_matching_edge(self, toy_dataset, toy_model):
        batch = [
            AddNode(label="A"),
            AddNode(label="B"),
            AddEdge(u=-1, v=-2, weight=1.0),
            AddEdge(u=-1, v=-2, weight=3.0),
            RemoveEdge(u=-1, v=-2, weight=3.0),
        ]
        epoch, rebuilt = mutate_both(toy_dataset, toy_model, batch)
        assert_same_graph(epoch.graph, rebuilt.graph)

    def test_update_text_moves_postings(self, toy_dataset, toy_model):
        epoch, rebuilt = mutate_both(
            toy_dataset, toy_model, [UpdateText(node=7, text="fresh wording here")]
        )
        assert_same_index(
            epoch.index, rebuilt.index, extra_terms=["fresh", "postgres", "design"]
        )
        assert 7 in epoch.index.lookup("fresh")
        assert 7 not in epoch.index.lookup("postgres")

    def test_many_commits_accumulate(self, toy_dataset, toy_model):
        for i, batch in enumerate(
            [
                [AddNode(label=f"N{i}", table="paper", text=f"uniqueword{i}")]
                for i in range(4)
            ]
        ):
            epoch, rebuilt = mutate_both(toy_dataset, toy_model, batch)
            assert epoch.version == i + 1
        node = toy_dataset.graph.num_nodes - 1
        toy_dataset.mutate([AddEdge(u=node, v=3), AddEdge(u=node - 1, v=node)])
        replay(
            toy_model, [AddEdge(u=node, v=3), AddEdge(u=node - 1, v=node)]
        )
        rebuilt = toy_model.build(prestige=toy_dataset.graph.prestige)
        assert_same_graph(toy_dataset.graph, rebuilt.graph)


class TestOverlayGraphApi:
    def test_node_by_ref_covers_extension(self, toy_dataset, toy_engine):
        outcome = toy_dataset.mutate(
            [AddNode(label="X", table="paper", ref=("paper", 1234))]
        )
        graph = toy_dataset.graph
        assert graph.node_by_ref("paper", 1234) == outcome.new_nodes[0]
        # base refs still resolve
        assert graph.ref(graph.node_by_ref("paper", 1)) == ("paper", 1)
        with pytest.raises(KeyError):
            graph.node_by_ref("paper", 999999)
        # Base refs resolve through the base's own map, shared by every
        # epoch over it rather than rebuilt per epoch.
        built = toy_engine.graph._ref_to_node
        assert isinstance(built, dict)
        later = toy_dataset.mutate([AddNode(label="Y")]).epoch.graph
        assert later.node_by_ref("paper", 1) == graph.node_by_ref("paper", 1)
        assert later.node_by_ref("paper", 1234) == outcome.new_nodes[0]
        assert toy_engine.graph._ref_to_node is built

    def test_unknown_node_raises(self, toy_dataset):
        toy_dataset.mutate([AddNode(label="X")])
        graph = toy_dataset.graph
        with pytest.raises(UnknownNodeError):
            graph.out_edges(graph.num_nodes)
        with pytest.raises(UnknownNodeError):
            graph.label(graph.num_nodes)

    def test_prestige_vector_and_max(self, toy_dataset, toy_engine):
        base_max = toy_engine.graph.max_prestige
        toy_dataset.mutate([AddNode(label="X")])
        graph = toy_dataset.graph
        vec = graph.prestige
        assert vec.shape == (graph.num_nodes,)
        assert not vec.flags.writeable
        np.testing.assert_array_equal(
            vec[: toy_engine.graph.num_nodes], toy_engine.graph.prestige
        )
        assert graph.max_prestige == max(base_max, vec[-1])

    def test_prestige_values_extend_the_base_tuple(self, toy_dataset, toy_engine):
        """Python floats all the way: the vector is the base's tuple
        followed by the extension's floats (the same float objects),
        ``node_prestige`` an index into it."""
        base = toy_engine.graph.prestige_values
        node = toy_dataset.mutate([AddNode(label="X", prestige=0.25)]).new_nodes[0]
        graph = toy_dataset.graph
        assert graph.prestige_values == base + (0.25,)
        assert graph.node_prestige(0) is base[0]
        assert graph.node_prestige(node) == 0.25
        assert graph.prestige.tolist() == list(graph.prestige_values)
        with pytest.raises(UnknownNodeError):
            graph.node_prestige(-1)

    def test_epochs_are_the_plain_classes(self, toy_dataset):
        from repro.graph.searchgraph import SearchGraph
        from repro.index.inverted import InvertedIndex

        toy_dataset.mutate([AddNode(label="X", text="plainclass")])
        assert type(toy_dataset.graph) is SearchGraph
        assert type(toy_dataset.index) is InvertedIndex
        assert type(toy_dataset.compact().graph) is SearchGraph

    def test_isolated_new_node_normalizers_are_zero(self, toy_dataset):
        node = toy_dataset.mutate([AddNode(label="X")]).new_nodes[0]
        graph = toy_dataset.graph
        assert graph.in_inv_weight_sum(node) == 0.0
        assert graph.out_inv_weight_sum(node) == 0.0
        assert graph.out_degree(node) == 0


class TestOverlaidIndex:
    def test_answers_like_its_compacted_rebuild(
        self, toy_dataset, toy_model, toy_engine
    ):
        """``lookup``, ``has_term``, ``terms``, ``terms_by_frequency``
        and ``len`` of an overlaid index equal its compacted rebuild's
        and a from-scratch rebuild's, a term whose only posting was
        removed included."""
        relation_terms = set(toy_engine.index._export_postings()[1])
        dead, node = next(
            (term, next(iter(toy_engine.index.lookup(term))))
            for term, frequency in reversed(toy_engine.index.terms_by_frequency())
            if frequency == 1 and term not in relation_terms
        )
        batch = [
            UpdateText(node=node, text="overlaid index probe"),
            AddNode(label="N", table="paper", text="probe brandnewterm"),
        ]
        epoch, rebuilt = mutate_both(toy_dataset, toy_model, batch)
        overlaid = epoch.index
        compacted = toy_dataset.compact().index
        assert compacted is not overlaid
        assert not overlaid.has_term(dead)
        assert overlaid.lookup(dead) == frozenset()
        for other in (compacted, rebuilt.index):
            assert overlaid.terms_by_frequency() == other.terms_by_frequency()
            assert len(overlaid) == len(other) == overlaid.vocabulary_size()
            assert sorted(overlaid.terms()) == sorted(other.terms())
            for term in {*other.terms(), *relation_terms, dead, "brandnewterm"}:
                assert overlaid.lookup(term) == other.lookup(term), term
                assert overlaid.has_term(term) == other.has_term(term), term
        assert list(overlaid.terms()) == list(compacted.terms())


class TestValidationAndAtomicity:
    def test_self_loop_rejected(self, toy_dataset):
        with pytest.raises(MutationError, match="self loops"):
            toy_dataset.mutate([AddEdge(u=1, v=1)])

    def test_unknown_endpoint_rejected(self, toy_dataset):
        with pytest.raises(MutationError, match="does not exist"):
            toy_dataset.mutate([AddEdge(u=0, v=10_000)])

    def test_missing_edge_removal_rejected(self, toy_dataset):
        with pytest.raises(MutationError, match="no forward edge"):
            toy_dataset.mutate([RemoveEdge(u=0, v=1)])

    def test_bad_alias_rejected(self, toy_dataset):
        with pytest.raises(MutationError, match="alias"):
            toy_dataset.mutate([AddEdge(u=-1, v=0)])

    def test_failed_batch_rolls_back_entirely(self, toy_dataset, toy_engine):
        before_version = toy_dataset.version
        with pytest.raises(MutationError):
            toy_dataset.mutate(
                [
                    AddNode(label="ghost", text="ghostlyterm"),
                    AddEdge(u=-1, v=3),
                    AddEdge(u=-1, v=99_999),  # fails: whole batch must vanish
                ]
            )
        assert toy_dataset.version == before_version
        assert toy_dataset.graph.num_nodes == toy_engine.graph.num_nodes
        assert toy_dataset.index.lookup("ghostlyterm") == frozenset()
        # and the dataset still works afterwards
        outcome = toy_dataset.mutate([AddNode(label="real", text="ghostlyterm")])
        assert toy_dataset.index.lookup("ghostlyterm") == {outcome.new_nodes[0]}
        rebuilt_in = toy_dataset.graph.in_edges(3)
        assert all(w > 0 for _, w, _ in rebuilt_in)
