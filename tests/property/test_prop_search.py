"""Property tests: search invariants on random graphs.

The heavyweight correctness property — emitted trees are valid, the
best score matches the exhaustive oracle, duplicates never surface —
checked across hypothesis-generated graphs and keyword sets for all
three algorithms.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.exhaustive import exhaustive_answers
from repro.core.params import SearchParams
from repro.graph.digraph import DataGraph

from tests.helpers import combo_cap, validate_answer_tree

EXHAUST = SearchParams(max_results=300, dmax=30)


@pytest.fixture(autouse=True, scope="module")
def _exhaustive_combos():
    """MI-Backward emits every origin combination these graphs have."""
    with combo_cap(256):
        yield


@st.composite
def search_cases(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    edge_candidates = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
            ),
            min_size=n - 1,
            max_size=3 * n,
        )
    )
    edges = {}
    for u, v, w in edge_candidates:
        if u != v and (u, v) not in edges:
            edges[(u, v)] = w
    k = draw(st.integers(min_value=1, max_value=3))
    keyword_sets = [
        frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        for _ in range(k)
    ]
    return n, edges, keyword_sets


def build_graph_from(n, edges):
    dg = DataGraph()
    for i in range(n):
        dg.add_node(f"n{i}")
    for (u, v), w in edges.items():
        dg.add_edge(u, v, w)
    return dg.freeze()


@pytest.mark.parametrize(
    "cls",
    [BidirectionalSearch, SingleIteratorBackwardSearch, BackwardExpandingSearch],
)
@given(case=search_cases())
@settings(max_examples=40, deadline=None)
def test_search_invariants(cls, case):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    result = cls(graph, keywords, keyword_sets, params=EXHAUST).run()
    oracle = exhaustive_answers(graph, keyword_sets)

    # 1. Existence agreement: answers exist iff the oracle has some.
    assert bool(result.answers) == bool(oracle)

    # 2. Structural validity + score consistency of every answer.
    for answer in result.answers:
        validate_answer_tree(graph, keyword_sets, answer.tree)

    # 3. No duplicate skeletons in the output.
    signatures = result.signatures()
    assert len(signatures) == len(set(signatures))

    # 4. Top answer at least as good as the oracle's (equal for the
    #    single-iterator model; MI may exceed it, see Section 4.6).
    if oracle:
        assert result.best().score >= oracle[0].score - 1e-9

    # 5. Stats sanity.
    assert result.stats.answers_output == len(result.answers)
    assert result.stats.nodes_explored <= result.stats.nodes_touched + n


# The pinned example: node 2 reaches both keywords through two
# equal-cost paths; Bidirectional's table used to pick the chain
# through node 1 for both, the minimality filter discarded it, and the
# oracle's equally-scored star through nodes 0 and 1 never surfaced.
# Found by hypothesis; kept as a permanent regression example for the
# canonical tie-decomposition emission (repro.core.ties).
@example(
    case=(
        3,
        {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0},
        [frozenset({0, 1}), frozenset({1})],
    )
)
@given(case=search_cases())
@settings(max_examples=30, deadline=None)
def test_oracle_answers_covered(case):
    """Every oracle tree (the final best-per-root tree) is emitted by
    both single-iterator algorithms at exhaustion.  Their outputs may
    additionally contain superseded-path trees — emission fires on
    every path-length update (Figure 3), and activation ordering can
    discover a worse path before a better one — so set equality does
    not hold; coverage of the oracle does, *unconditionally*: under
    shortest-path ties the searches emit the same canonical equal-cost
    decomposition the oracle builds (repro.core.ties), so tied trees
    are no longer excused."""
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    oracle = exhaustive_answers(graph, keyword_sets)
    oracle_signatures = {tree.signature() for tree in oracle}
    si = SingleIteratorBackwardSearch(
        graph, keywords, keyword_sets, params=EXHAUST
    ).run()
    bidi = BidirectionalSearch(graph, keywords, keyword_sets, params=EXHAUST).run()
    for result in (si, bidi):
        missing = oracle_signatures - set(result.signatures())
        assert not missing, (
            f"{result.algorithm} missed oracle trees: "
            + "; ".join(
                str(tree) for tree in oracle if tree.signature() in missing
            )
        )


@given(case=search_cases(), budget=st.integers(min_value=1, max_value=20))
@settings(max_examples=30, deadline=None)
def test_node_budget_respected(case, budget):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    params = EXHAUST.with_(node_budget=budget)
    for cls in (BidirectionalSearch, SingleIteratorBackwardSearch):
        result = cls(graph, keywords, keyword_sets, params=params).run()
        assert result.stats.nodes_explored <= budget
