"""Property: cancellation yields a prefix of the uncancelled answer stream.

The searches are deterministic for a fixed engine/query/params, and the
Section 4.5 bound releases answers monotonically — so stopping a run
after *any* number of pops must leave exactly the answers a full run
would have released by that point, in the same order.  That is the
whole partial-results contract: a deadline can cost you answers, never
reorder or corrupt them.  It is checked through the engine on the toy
database, and on the search classes over hypothesis-generated graphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams

from tests.conftest import make_toy_db
from tests.helpers import cancel_at_tick
from tests.property.test_prop_search import build_graph_from, search_cases

QUERIES = ["gray transaction", "transaction system", "gray vldb", "postgres sigmod"]
ALGORITHMS = ["bidirectional", "si-backward", "mi-backward"]


@pytest.fixture(scope="module")
def engine() -> KeywordSearchEngine:
    return KeywordSearchEngine.from_database(make_toy_db())


@pytest.fixture(scope="module")
def full_runs(engine) -> dict:
    """Uncancelled reference runs, computed once per (query, algorithm)."""
    return {
        (query, algorithm): engine.search(query, algorithm=algorithm)
        for query in QUERIES
        for algorithm in ALGORITHMS
    }


@settings(max_examples=60, deadline=None)
@given(
    query=st.sampled_from(QUERIES),
    algorithm=st.sampled_from(ALGORITHMS),
    cancel_after=st.integers(min_value=0, max_value=120),
)
def test_cancelled_run_is_prefix_of_full_run(
    engine, full_runs, query, algorithm, cancel_after
):
    full = full_runs[(query, algorithm)]
    token = cancel_at_tick(cancel_after)
    part = engine.search(query, algorithm=algorithm, token=token)

    if part.complete:
        # The search finished before tick `cancel_after`: it must be
        # the full run, bit for bit.
        assert part.signatures() == full.signatures()
        assert part.scores() == full.scores()
        assert part.cancel_reason is None
    else:
        assert part.cancel_reason == "cancelled"
        prefix = len(part.answers)
        assert prefix <= len(full.answers)
        assert part.signatures() == full.signatures()[:prefix]
        assert part.scores() == full.scores()[:prefix]
        # Bounded responsiveness: with check_every=1 the loop stops at
        # the pop the token fires on (+1 for loop structure slack).
        assert part.stats.nodes_explored <= cancel_after + 1


@pytest.mark.parametrize(
    "cls",
    [BidirectionalSearch, SingleIteratorBackwardSearch, BackwardExpandingSearch],
)
@given(case=search_cases(), cancel_after=st.integers(min_value=0, max_value=60))
@settings(max_examples=40, deadline=None)
def test_cancelled_search_on_a_random_graph_is_prefix(cls, case, cancel_after):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    params = SearchParams(max_results=50, dmax=12)

    def run(token=None):
        return cls(graph, keywords, keyword_sets, params=params, token=token).run()

    full = run()
    part = run(cancel_at_tick(cancel_after))
    if part.complete:
        assert part.signatures() == full.signatures()
        assert part.scores() == full.scores()
    else:
        assert part.cancel_reason == "cancelled"
        prefix = len(part.answers)
        assert part.signatures() == full.signatures()[:prefix]
        assert part.scores() == full.scores()[:prefix]
        # The tick the token fires on skips its pop.
        assert part.stats.nodes_explored < max(cancel_after, 1)
