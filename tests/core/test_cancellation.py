"""CancellationToken unit behaviour + cooperative stops in the searches."""

import threading
import time

import pytest

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.cancellation import CancellationToken
from repro.core.params import SearchParams
from repro.errors import SearchCancelledError
from repro.sparse.sparse_search import SparseSearch

from tests.helpers import build_graph, cancel_at_tick

QUERY = "database james john"
ALGORITHMS = ["bidirectional", "si-backward", "mi-backward"]
SEARCH_CLASSES = [
    BidirectionalSearch,
    SingleIteratorBackwardSearch,
    BackwardExpandingSearch,
]


# ----------------------------------------------------------------------
# token unit behaviour
# ----------------------------------------------------------------------
class TestToken:
    def test_live_token_never_fires(self):
        token = CancellationToken(check_every=1)
        assert not any(token.tick() for _ in range(100))
        assert not token.fired
        assert token.reason is None

    def test_explicit_cancel_fires_and_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("cancelled")
        token.cancel("deadline")
        assert token.fired
        assert token.reason == "cancelled"
        assert token.tick()  # fast path: fired is sticky

    def test_deadline_fires_on_full_check(self):
        token = CancellationToken(
            deadline=time.monotonic() - 0.001, check_every=4
        )
        ticks_until_fired = 0
        while not token.tick():
            ticks_until_fired += 1
        assert ticks_until_fired < 4
        assert token.reason == "deadline"

    def test_future_deadline_does_not_fire(self):
        token = CancellationToken(deadline=time.monotonic() + 60.0, check_every=1)
        assert not token.check()
        assert not any(token.tick() for _ in range(10))

    def test_check_every_validated(self):
        with pytest.raises(ValueError, match="check_every"):
            CancellationToken(check_every=0)

    def test_cancel_at_tick_is_exact(self):
        token = cancel_at_tick(5)
        fired_at = next(i for i in range(1, 100) if token.tick())
        assert fired_at == 5
        assert token.reason == "cancelled"

    def test_parent_cancel_propagates_with_reason(self):
        parent = CancellationToken()
        child = CancellationToken(parent=parent, check_every=1)
        assert not child.tick()
        parent.cancel("deadline")
        assert child.tick()
        assert child.reason == "deadline"

    def test_external_check_fires(self):
        flag = []
        token = CancellationToken(external_check=lambda: bool(flag), check_every=1)
        assert not token.tick()
        flag.append(1)
        assert token.tick()
        assert token.reason == "cancelled"

    def test_raise_if_cancelled(self):
        token = CancellationToken()
        token.raise_if_cancelled()  # live: no-op
        token.cancel()
        with pytest.raises(SearchCancelledError) as excinfo:
            token.raise_if_cancelled()
        assert excinfo.value.reason == "cancelled"

    def test_cancel_from_another_thread_is_seen(self):
        token = CancellationToken(check_every=1)
        thread = threading.Thread(target=token.cancel)
        thread.start()
        thread.join()
        assert token.tick()


# ----------------------------------------------------------------------
# search integration (one engine, all three algorithms)
# ----------------------------------------------------------------------
class TestSearchCancellation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_prefired_token_returns_within_two_check_intervals(
        self, dblp_small_engine, algorithm
    ):
        interval = 8
        token = CancellationToken(check_every=interval)
        token.cancel()
        result = dblp_small_engine.search(QUERY, algorithm=algorithm, token=token)
        assert result.complete is False
        assert result.cancel_reason == "cancelled"
        assert result.stats.nodes_explored <= 2 * interval

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cancelled_answers_are_prefix_of_full_run(
        self, dblp_small_engine, algorithm
    ):
        full = dblp_small_engine.search(QUERY, algorithm=algorithm)
        assert full.complete
        token = cancel_at_tick(200)
        part = dblp_small_engine.search(QUERY, algorithm=algorithm, token=token)
        assert part.complete is False
        assert len(part.answers) <= len(full.answers)
        assert part.signatures() == full.signatures()[: len(part.answers)]

    def test_expired_deadline_yields_deadline_reason(self, dblp_small_engine):
        token = CancellationToken(
            deadline=time.monotonic() - 1.0, check_every=4
        )
        result = dblp_small_engine.search(QUERY, token=token)
        assert result.complete is False
        assert result.cancel_reason == "deadline"

    def test_unfired_token_leaves_result_complete(self, toy_engine):
        token = CancellationToken(deadline=time.monotonic() + 60.0)
        result = toy_engine.search("gray transaction", token=token)
        assert result.complete is True
        assert result.cancel_reason is None
        assert result.answers

    def test_budget_exhaustion_is_not_cancellation(self, dblp_small_engine):
        params = dblp_small_engine.params.with_(node_budget=50)
        result = dblp_small_engine.search(QUERY, params=params)
        assert result.complete is True
        assert result.cancel_reason is None


class TestResponsiveness:
    """Every search loop ticks the token once per pop, so a token stops
    the search at the pop it fires on; what ``check_every`` delays is
    only the full check (clock, parent, external probe)."""

    CHAIN = build_graph(400, [(i + 1, i) for i in range(399)])
    SETS = [frozenset({0}), frozenset({399})]
    PARAMS = SearchParams(max_results=1, dmax=500)

    @pytest.mark.parametrize("cls", SEARCH_CLASSES)
    def test_exact_tick_cut_matches_grant(self, cls):
        token = cancel_at_tick(10)
        result = cls(
            self.CHAIN, ("a", "b"), self.SETS, params=self.PARAMS, token=token
        ).run()
        # The 10th tick observes the firing and its pop is skipped.
        assert result.cancel_reason == "cancelled"
        assert result.stats.nodes_explored == 9

    @pytest.mark.parametrize("interval", [1, 8, 32])
    @pytest.mark.parametrize("cls", SEARCH_CLASSES)
    def test_external_cancel_stops_within_one_check_interval(self, cls, interval):
        flip_at = 48
        search = None
        token = CancellationToken(
            external_check=lambda: search.stats.nodes_explored >= flip_at,
            check_every=interval,
        )
        search = cls(self.CHAIN, ("a", "b"), self.SETS, params=self.PARAMS, token=token)
        result = search.run()
        assert result.cancel_reason == "cancelled"
        assert flip_at <= result.stats.nodes_explored < flip_at + interval


# ----------------------------------------------------------------------
# the oracle and the sparse baseline
# ----------------------------------------------------------------------
def test_exhaustive_raises_on_cancel(toy_engine):
    token = cancel_at_tick(1)
    with pytest.raises(SearchCancelledError):
        toy_engine.exhaustive("gray transaction", token=token)


def test_exhaustive_unfired_token_is_harmless(toy_engine):
    with_token = toy_engine.exhaustive(
        "gray transaction", token=CancellationToken(deadline=time.monotonic() + 60.0)
    )
    without = toy_engine.exhaustive("gray transaction")
    assert [t.signature() for t in with_token] == [t.signature() for t in without]


class TestSparseCancellation:
    def test_cancelled_sparse_returns_partial(self, toy_db):
        sparse = SparseSearch(toy_db, max_cn_size=4)
        full = sparse.search("gray transaction", k=None)
        assert full.complete
        token = cancel_at_tick(2)
        part = sparse.search("gray transaction", k=None, token=token)
        assert part.complete is False
        assert part.cancel_reason == "cancelled"
        assert len(part.results) <= len(full.results)

    def test_unfired_token_leaves_sparse_complete(self, toy_db):
        sparse = SparseSearch(toy_db, max_cn_size=4)
        outcome = sparse.search(
            "gray transaction", token=CancellationToken(deadline=time.monotonic() + 60.0)
        )
        assert outcome.complete is True
