"""Property: a loaded snapshot is bit-identical to the graph it saved.

For hypothesis-generated graphs and keyword sets, a snapshot loaded
through ``storage_mode="ram"`` and through ``"mapped"`` must produce
exactly the answers — same scores, same tree signatures, same order —
as the built graph it was saved from, for all three algorithms and
every expansion backend.  Residency modes change where the bytes live
and what a load verifies, never results.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.params import SearchParams
from repro.index.inverted import InvertedIndex
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.storage import MappedSearchGraph, PinPolicy

from tests.property.test_prop_search import build_graph_from, search_cases

ALGORITHMS = (
    BidirectionalSearch,
    SingleIteratorBackwardSearch,
    BackwardExpandingSearch,
)
BACKENDS = ("python", "vectorized")
PARAMS = SearchParams(max_results=50, dmax=20, max_combos_per_node=64)


def build_index(keyword_sets) -> InvertedIndex:
    index = InvertedIndex()
    for i, nodes in enumerate(keyword_sets):
        for node in nodes:
            index.add_term(node, f"k{i}")
    return index


@pytest.mark.parametrize("mode", ["ram", "mapped"])
@given(case=search_cases())
@settings(max_examples=15, deadline=None)
def test_loaded_answers_bit_identical_to_built(mode, case):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    index = build_index(keyword_sets)
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.snap"
        save_snapshot(path, graph, index)
        loaded_graph, loaded_index = load_snapshot(
            path, storage_mode=mode, pin_policy=PinPolicy(nodes=2, terms=1)
        )
        assert isinstance(loaded_graph, MappedSearchGraph)
        assert loaded_graph.storage.mode == mode

        built_sets = [index.lookup(kw) for kw in keywords]
        loaded_sets = [loaded_index.lookup(kw) for kw in keywords]
        assert built_sets == loaded_sets

        for cls in ALGORITHMS:
            for backend in BACKENDS:
                params = PARAMS.with_(expansion_backend=backend)
                a = cls(graph, keywords, built_sets, params=params).run()
                b = cls(loaded_graph, keywords, loaded_sets, params=params).run()
                assert b.scores() == a.scores(), (cls.__name__, backend)
                assert b.signatures() == a.signatures(), (cls.__name__, backend)
