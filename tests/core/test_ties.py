"""``tight_decomposition``: which equal-cost tree every root emits.

Rows are read one way — ``row[node]``, ``inf`` for unknown — as the
search state keeps them: dicts in which a missing node reads ``inf``.
Every case runs on the built graph and on the same graph reloaded from
a mapped snapshot, whose adjacency rows materialize on first touch.
"""

from collections import defaultdict
from math import inf, log2

import pytest

from repro.core.exhaustive import keyword_distances
from repro.core.ties import tight_decomposition

from tests.helpers import build_graph, reloaded


@pytest.fixture
def rows_of():
    """``rows_of(graph, {node: dist}, ...)``: one row per mapping."""

    def build(graph, *known):
        return [defaultdict(lambda: inf, d) for d in known]

    return build


@pytest.fixture(params=["built", "mapped"])
def graph_of(request):
    """``graph_of(n_nodes, edges)``: ``build_graph``, in one residency."""

    def build(*args, **kwargs):
        graph = build_graph(*args, **kwargs)
        return reloaded(graph) if request.param == "mapped" else graph

    return build


def final_rows(rows_of, graph, keyword_sets):
    return rows_of(graph, *(keyword_distances(graph, s)[0] for s in keyword_sets))


def test_smallest_child_among_tight_edges_wins(rows_of, graph_of):
    # 3 reaches the keyword 0 at cost 2 through 1 or through 2, and at
    # cost 2 directly; the sp pointer could be any of the three.
    g = graph_of(
        4, [(3, 2, 1.0), (3, 1, 1.0), (3, 0, 2.0), (1, 0, 1.0), (2, 0, 1.0)]
    )
    rows = final_rows(rows_of, g, [frozenset({0})])
    assert rows[0][3] == 2.0
    assert tight_decomposition(g, rows, 3) == ([(3, 0)], [2.0])


def test_heavier_edge_to_a_smaller_child_is_not_tight(rows_of, graph_of):
    g = graph_of(4, [(3, 2, 1.0), (3, 1, 1.0), (3, 0, 2.5), (1, 0, 1.0), (2, 0, 1.0)])
    rows = final_rows(rows_of, g, [frozenset({0})])
    assert tight_decomposition(g, rows, 3) == ([(3, 1, 0)], [2.0])


def test_parallel_edges_take_the_tight_one(rows_of, graph_of):
    # Two edges 1 -> 0: only the lighter is tight against dist(1) = 1.5,
    # and the path weight is re-summed from it.
    g = graph_of(2, [(1, 0, 3.0), (1, 0, 1.5)])
    rows = final_rows(rows_of, g, [frozenset({0})])
    assert tight_decomposition(g, rows, 1) == ([(1, 0)], [1.5])
    # Among equal parallel edges the pair (child, weight) still decides.
    g = graph_of(2, [(1, 0, 1.5), (1, 0, 1.5)])
    rows = final_rows(rows_of, g, [frozenset({0})])
    assert tight_decomposition(g, rows, 1) == ([(1, 0)], [1.5])


def test_keyword_root_is_its_own_path(rows_of, graph_of):
    g = graph_of(2, [(1, 0)])
    rows = final_rows(rows_of, g, [frozenset({0}), frozenset({0, 1})])
    assert tight_decomposition(g, rows, 0) == ([(0,), (0,)], [0.0, 0.0])
    assert tight_decomposition(g, rows, 1) == ([(1, 0), (1,)], [1.0, 0.0])


def test_unknown_root_distance_is_none(rows_of, graph_of):
    g = graph_of(3, [(1, 0), (2, 1)])
    rows = rows_of(g, {0: 0.0, 1: 1.0})
    assert tight_decomposition(g, rows, 2) is None
    # ...also when only one of the keywords is unknown.
    rows = rows_of(g, {0: 0.0, 1: 1.0, 2: 2.0}, {0: 0.0})
    assert tight_decomposition(g, rows, 2) is None


def test_dead_end_is_none(rows_of, graph_of):
    # Mid-search: 2 was reached at 2.5 over a path since improved, so
    # no out-edge is tight against it (1 + 1 != 2.5).
    g = graph_of(3, [(1, 0), (2, 1)])
    rows = rows_of(g, {0: 0.0, 1: 1.0, 2: 2.5})
    assert tight_decomposition(g, rows, 2) is None


def test_unknown_neighbour_is_never_tight(rows_of, graph_of):
    # 2's only finite route is through 1, whose distance is unknown:
    # inf + w never equals a finite distance.
    g = graph_of(3, [(1, 0), (2, 1)])
    rows = rows_of(g, {0: 0.0, 2: 2.0})
    assert tight_decomposition(g, rows, 2) is None


def test_walk_stops_at_the_node_count(rows_of, graph_of):
    # Inconsistent rows that make 1 -> 2 -> 1 -> ... tight forever
    # cannot occur at exhaustion, but must not hang mid-search.  With
    # positive weights a cycle cannot stay tight on real numbers, so
    # build one out of a weight the float addition absorbs.
    g = graph_of(3, [(1, 2, 1e-30), (2, 1, 1e-30), (1, 0, 5.0)])
    rows = rows_of(g, {0: 0.0, 1: 1.0, 2: 1.0})
    assert 1.0 + 1e-30 == 1.0
    assert tight_decomposition(g, rows, 1) is None


def test_pinned_counterexample_yields_the_star(rows_of, graph_of):
    # tests/property/test_prop_search.py: node 2 reaches both keywords
    # over two equal-cost backward edges; the chain through 1 serves
    # both keywords but is not minimal, the star through 0 and 1 is.
    g = graph_of(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    rows = final_rows(rows_of, g, [frozenset({0, 1}), frozenset({1})])
    w = log2(3)  # backward edges out of 2, whose in-degree is 2
    assert rows[0][2] == rows[1][2] == w
    assert tight_decomposition(g, rows, 2) == ([(2, 0), (2, 1)], [w, w])
