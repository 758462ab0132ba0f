"""Property test: cancelled batched runs release a certified prefix.

The batched loops consume the token once per batch but must preserve
the partial-results contract: stopping after any tick leaves a prefix
of the full run's answer stream, and no more pops than the granted
ticks.

(That the numpy candidate kernels equal per-element python arithmetic
is pinned at function level in ``tests/core/test_kernels.py``;
everything downstream of the candidates is one code path.)

Batch-size *changes* are expressly allowed to change SI/Bidirectional
results (pop order shifts, so tie decompositions and emission
granularity shift — see ``docs/PERFORMANCE.md``); that is why the
prefix is always asserted at one fixed ``cancel_check_interval``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.graph.digraph import DataGraph


@st.composite
def search_cases(draw):
    n = draw(st.integers(min_value=3, max_value=14))
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


def _run(cls, graph, keyword_sets, batch, token=None):
    params = SearchParams(
        max_results=50,
        dmax=12,
        expansion_backend="vectorized",
        cancel_check_interval=batch,
    )
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    return cls(graph, keywords, keyword_sets, params=params, token=token).run()


@pytest.mark.parametrize(
    "cls", [SingleIteratorBackwardSearch, BidirectionalSearch]
)
@given(
    case=search_cases(),
    batch=st.sampled_from([1, 3, 8, 32]),
    cancel_after=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_cancelled_kernel_run_is_prefix(cls, case, batch, cancel_after):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    full = _run(cls, graph, keyword_sets, batch)
    token = CancellationToken(cancel_at_tick=cancel_after, check_every=1)
    part = _run(cls, graph, keyword_sets, batch, token=token)

    if part.complete:
        assert part.signatures() == full.signatures()
        assert part.scores() == full.scores()
    else:
        assert part.cancel_reason == "cancelled"
        prefix = len(part.answers)
        assert part.signatures() == full.signatures()[:prefix]
        assert part.scores() == full.scores()[:prefix]
        # tick_many grants exactly the remaining budget: the batched
        # loop may not pop past the tick the token fires on.
        assert part.stats.nodes_explored <= cancel_after
