"""Property: a loaded snapshot is bit-identical to the graph it saved.

For hypothesis-generated graphs and keyword sets, a snapshot loaded
through ``storage_mode="ram"`` and through ``"mapped"`` must produce
exactly the answers — same scores, same tree signatures, same order —
as the built graph it was saved from, for all three algorithms.
Residency modes change where the bytes live
and what a load verifies, never results.

The loader ranks its pin set without numpy (``heapq.nlargest`` over a
C-level key); with ties everywhere it must still pick exactly the rows
the stable ``argsort`` formulation picked, and the prestige a graph
keeps as Python floats must be the vector ``graph.prestige`` hands out.
A ``ram`` load range-checks every stored node id as 32-bit lanes of
Python ints, and every load checks row bounds' order as 64-bit lanes;
both checks must agree with the obvious ones on every array.
"""

import tempfile
from array import array
from itertools import accumulate, pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.params import SearchParams
from repro.index.inverted import InvertedIndex
from repro.service.snapshot import (
    _PAGE_LANES,
    _ids_in_range,
    _nondecreasing,
    load_snapshot,
    save_snapshot,
)
from repro.storage import MappedSearchGraph

from tests.helpers import pins
from tests.property.test_prop_search import build_graph_from, search_cases

ALGORITHMS = (
    BidirectionalSearch,
    SingleIteratorBackwardSearch,
    BackwardExpandingSearch,
)
PARAMS = SearchParams(max_results=50, dmax=20)


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
        with pins(2, 1):
            loaded_graph, loaded_index = load_snapshot(path, storage_mode=mode)
        assert isinstance(loaded_graph, MappedSearchGraph)
        assert loaded_graph.storage.mode == mode

        built_sets = [index.lookup(kw) for kw in keywords]
        loaded_sets = [loaded_index.lookup(kw) for kw in keywords]
        assert built_sets == loaded_sets

        for cls in ALGORITHMS:
            a = cls(graph, keywords, built_sets, params=PARAMS).run()
            b = cls(loaded_graph, keywords, loaded_sets, params=PARAMS).run()
            assert b.scores() == a.scores(), cls.__name__
            assert b.signatures() == a.signatures(), cls.__name__


INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


@st.composite
def id_arrays(draw):
    """``(n, ids)``: a node count — ``0``, either side of ``2**31`` and
    beyond included — and int32 ids around its boundaries, in arrays of
    up to three lane pages whose odd values sit at any position."""
    n = draw(
        st.one_of(
            st.sampled_from([0, 1, 2, 16, INT32_MAX, 2**31, 2**32]),
            st.integers(min_value=0, max_value=2**33),
        )
    )
    near = [
        v
        for v in (0, n - 1, n, n + 1, -1, INT32_MIN, INT32_MAX)
        if INT32_MIN <= v <= INT32_MAX
    ]
    value = st.one_of(
        st.sampled_from(near), st.integers(min_value=INT32_MIN, max_value=INT32_MAX)
    )
    length = draw(st.integers(min_value=0, max_value=3 * _PAGE_LANES))
    ids = [draw(st.sampled_from(near))] * length
    odd = st.lists(st.tuples(st.integers(min_value=0), value), max_size=4)
    for position, v in draw(odd):
        if length:
            ids[position % length] = v
    return n, ids


@example(case=(0, []))
@example(case=(0, [0]))
@example(case=(16, [15, 16]))
@example(case=(16, [0] * _PAGE_LANES + [-1]))
@example(case=(2**31, [INT32_MAX, INT32_MIN]))
@example(case=(2**32, [INT32_MAX, 0]))
@given(case=id_arrays())
@settings(max_examples=300, deadline=None)
def test_id_range_check_agrees_with_brute_force(case):
    n, ids = case
    view = memoryview(array("i", ids))
    assert _ids_in_range(view, n) == all(0 <= v < n for v in ids)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def indptr_arrays(draw):
    """int64 row bounds, sorted from a base near ``0``, ``2**62`` or the
    int64 edge, over up to three lane pages, with a few entries anywhere
    set to a boundary value or nudged past a neighbour."""
    base = draw(st.sampled_from([0, 2**31, 2**62, INT64_MAX - 64]))
    length = draw(st.integers(min_value=0, max_value=3 * _PAGE_LANES // 2 + 2))
    steps = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
    bounds = [min(base + b, INT64_MAX) for b in accumulate(steps)]
    odd = st.one_of(
        st.sampled_from([-1, 0, INT64_MIN, INT64_MAX]),
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    )
    edits = st.lists(st.tuples(st.integers(min_value=0), odd), max_size=3)
    for position, v in draw(edits):
        if length:
            bounds[position % length] = v
    return bounds


@example(bounds=[])
@example(bounds=[-1])
@example(bounds=[-1, 0])
@example(bounds=[0] * (_PAGE_LANES // 2) + [-1])
@example(bounds=[0] * (_PAGE_LANES // 2) + [1, 0])
@example(bounds=[INT64_MAX, INT64_MAX])
@given(bounds=indptr_arrays())
@settings(max_examples=300, deadline=None)
def test_indptr_order_check_agrees_with_brute_force(bounds):
    view = memoryview(array("q", bounds))
    assert _nondecreasing(view) == all(0 <= a <= b for a, b in pairwise(bounds))


@given(
    case=search_cases(),
    levels=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=12, max_size=12),
    nodes=st.integers(min_value=0, max_value=6),
    terms=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_pin_set_and_prestige_reads_match_the_numpy_formulation(
    case, levels, nodes, terms
):
    n, edges, keyword_sets = case
    prestige = levels[:n]  # four distinct values over up to 12 nodes: ties
    graph = build_graph_from(n, edges).with_prestige(prestige)
    index = build_index(keyword_sets)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.snap"
        save_snapshot(path, graph, index)
        with pins(nodes, terms):
            loaded = [
                load_snapshot(path, storage_mode=mode) for mode in ("ram", "mapped")
            ]

    # What apply_pin_policy computed before it stopped importing numpy.
    k = min(nodes, n)
    degree = np.array([graph.out_degree(u) + graph.in_degree(u) for u in range(n)])
    by_prestige = np.argsort(-np.asarray(prestige), kind="stable")[:k]
    by_degree = np.argsort(-degree, kind="stable")[:k]
    expected_nodes = set(by_prestige.tolist()) | set(by_degree.tolist())
    postings, _ = index._export_postings()
    frequency = np.array([len(postings[term]) for term in sorted(postings)])
    expected_terms = set(np.argsort(-frequency, kind="stable")[:terms].tolist())

    for loaded_graph, loaded_index in loaded:
        assert set(loaded_graph._out._rows) == expected_nodes
        assert set(loaded_graph._in._rows) == expected_nodes
        assert set(loaded_index._postings._by_index) == expected_terms
        storage = loaded_graph.storage.snapshot()
        assert storage["pinned_nodes"] == len(expected_nodes)
        assert storage["pinned_terms"] == len(expected_terms)

    for g in (graph, *(loaded_graph for loaded_graph, _ in loaded)):
        vector = g.prestige
        assert isinstance(vector, np.ndarray) and vector.dtype == np.float64
        assert not vector.flags.writeable
        assert g.prestige_values == tuple(prestige)
        assert vector.tolist() == list(g.prestige_values)
        assert all(type(value) is float for value in g.prestige_values)
        assert [g.node_prestige(u) for u in range(n)] == prestige
        assert g.max_prestige == max(prestige)
