"""What a loaded snapshot decodes: counts, not clocks.

A load keeps the four indptr arrays as the file's typed views and
decodes no text section; a search then decodes the two term
vocabularies and nothing else of the text.  No search and no wire
response reads a node's label, table or ref, so their sections stay
bytes until something asks for a label.
"""

import gc
import tracemalloc

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.datasets import DblpConfig, make_dblp
from repro.service import QueryService
from repro.service.snapshot import load_engine, save_engine
from repro.service.wire import response_to_dict

MODES = ("ram", "mapped")


@pytest.fixture(scope="module")
def dblp_snapshot(tmp_path_factory):
    engine = KeywordSearchEngine.from_database(make_dblp(DblpConfig().scaled(1.0)))
    return save_engine(tmp_path_factory.mktemp("load-cost") / "dblp.snap", engine)


def node_text(graph):
    return graph._labels, graph._tables, graph._refs


def bounds(graph, index):
    return (
        graph._out._bounds, graph._in._bounds,
        index._postings._bounds, index._rel_bounds,
    )


@pytest.mark.parametrize("mode", MODES)
def test_a_search_decodes_the_vocabularies_and_no_node_text(dblp_snapshot, mode):
    with QueryService(storage_mode=mode) as service:
        service.register_snapshot("dblp", dblp_snapshot)
        response = service.search("dblp", "database query", use_cache=False)
        assert response.ok and response.result.answers
        response_to_dict(response)  # the wire sends node ids only
        engine = service._datasets["dblp"].engine
    graph, index = engine.graph, engine.index
    assert [section._items for section in node_text(graph)] == [None] * 3
    assert index._postings._terms._items is not None
    assert index._rel_terms._items is not None
    assert all(type(view) is memoryview for view in bounds(graph, index))
    # Asked for, a label decodes the labels section alone.
    assert graph.label(0)
    assert [section._items is None for section in node_text(graph)] == [
        False, True, True,
    ]


#: Python bytes a ``ram`` load of the scale-1 dblp snapshot (3,296
#: nodes) and one search hold beyond the file's own bytes: 3.28 MiB,
#: most of it the rows the search faulted in, on CPython 3.11.  The
#: labels, tables and refs of every node add 0.87 MiB when decoded (the
#: one-blob layout decoded them at the first term lookup: 4.42 MiB).
#: The bound sits halfway between.
LOAD_AND_SEARCH_MIB = 3.7


def test_a_ram_load_and_search_allocate_no_node_text(dblp_snapshot):
    gc.collect()
    tracemalloc.start()
    try:
        engine = load_engine(dblp_snapshot, storage_mode="ram")
        assert engine.search("database query").answers
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - dblp_snapshot.stat().st_size
        graph = engine.graph
        graph.label(0), graph.table(0), graph.ref(0)
        with_text = tracemalloc.get_traced_memory()[0] - dblp_snapshot.stat().st_size
    finally:
        tracemalloc.stop()
    assert held < LOAD_AND_SEARCH_MIB * 2**20
    assert with_text > LOAD_AND_SEARCH_MIB * 2**20  # the bound sees node text
