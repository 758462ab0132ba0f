"""Property tests: the answer-bounded emission gate changes nothing
that is released.

``BaseSearch._gate_blocks`` drops a candidate tree, before it is built,
when its score upper bound is below the ``max_results``-th best distinct
answer buffered or released so far (docs/PERFORMANCE.md, "Emission").
The reference here is the same code with that one method forced open —
patched from the test, because the program has no switch for it.

Pinned:

(a) the gated run equals the open-gate run on the whole contract tuple —
    released trees, scores, order, ``complete``, generation/output pops
    and every exploration counter — for all three algorithms; only the
    emission counters may shrink;
(b) the bound is sound: every tree that reaches ``Scorer.build_tree``
    scores at most ``tree_score_bound(root, leaf prestige, E)`` for the
    arguments the gate was asked about — tie alternates included, on
    frozen graphs and on ``repro.live`` overlay graphs;
(c) a cancelled run is still a prefix of the uncancelled one with the
    gate on;
(d) ``output_mode="heuristic"`` is not gated at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.driver import BaseSearch
from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.core.scoring import Scorer
from repro.errors import KeywordNotFoundError
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode
from repro.live.overlay import Overlay

from tests.conftest import make_toy_db
from tests.helpers import build_graph, cancel_at_tick

ALGORITHMS = [BidirectionalSearch, SingleIteratorBackwardSearch, BackwardExpandingSearch]
TOP_K = [1, 3, 10]


@st.composite
def search_cases(draw):
    """A small weighted digraph with a *non-uniform* prestige vector (the
    bound is per root and per keyword set, so prestige must vary) and
    1-3 keyword sets."""
    n = draw(st.integers(min_value=3, max_value=12))
    candidates = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5]),  # ties on purpose
            ),
            min_size=n - 1,
            max_size=3 * n,
        )
    )
    edges = {}
    for u, v, w in candidates:
        if u != v:
            edges.setdefault((u, v), w)
    prestige = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    k = draw(st.integers(min_value=1, max_value=3))
    keyword_sets = [
        frozenset(
            draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3))
        )
        for _ in range(k)
    ]
    graph = build_graph(n, [(u, v, w) for (u, v), w in edges.items()], prestige=prestige)
    return graph, keyword_sets


def run(cls, graph, keyword_sets, *, token=None, **params):
    params.setdefault("dmax", 12)
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    return cls(
        graph, keywords, keyword_sets, params=SearchParams(**params), token=token
    ).run()


@contextmanager
def open_gate(on_ask=None):
    """Force the one emission gate open for the duration."""

    def never_blocks(search, root, edge_score, leaf_prestige=None):
        if on_ask is not None:
            on_ask(search, root, edge_score, leaf_prestige)
        return False

    with mock.patch.object(BaseSearch, "_gate_blocks", never_blocks):
        yield


def contract(result):
    """What the gate must leave bit-identical."""
    stats = result.stats
    return (
        [answer.tree for answer in result.answers],
        result.signatures(),
        result.scores(),
        result.complete,
        [(answer.generated_pops, answer.output_pops) for answer in result.answers],
        stats.nodes_explored,
        stats.nodes_touched,
        stats.edges_explored,
        stats.heap_ops,
        stats.cascade_touches,
        stats.answers_output,
    )


def emission_counters(result):
    stats = result.stats
    return (stats.emit_attempts, stats.answers_generated, stats.duplicates_discarded)


# ----------------------------------------------------------------------
# (a) gated == open gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALGORITHMS)
@given(case=search_cases(), max_results=st.sampled_from(TOP_K))
@settings(max_examples=60, deadline=None)
def test_gated_run_equals_open_gate_run(cls, case, max_results):
    graph, keyword_sets = case
    knobs = dict(max_results=max_results)
    gated = run(cls, graph, keyword_sets, **knobs)
    with open_gate():
        reference = run(cls, graph, keyword_sets, **knobs)

    assert contract(gated) == contract(reference)
    assert reference.stats.gate_skips == 0
    for got, ref in zip(emission_counters(gated), emission_counters(reference)):
        assert got <= ref
    stats = gated.stats
    assert stats.emit_attempts >= stats.answers_generated >= stats.answers_output


# ----------------------------------------------------------------------
# (b) bound soundness
# ----------------------------------------------------------------------
@contextmanager
def checking_every_built_tree(built):
    """Open the gate (so *every* candidate is built, not only those the
    bound lets through) and hold each built tree to the bound of the
    gate question that preceded it."""
    asked = {}

    def on_ask(search, root, edge_score, leaf_prestige):
        if leaf_prestige is None:
            leaf_prestige = search._leaf_prestige_cap
        asked["last"] = (root, edge_score, leaf_prestige)

    real_build = Scorer.build_tree

    def build_and_check(scorer, root, paths, dists):
        tree = real_build(scorer, root, paths, dists)
        asked_root, edge_score, leaf_prestige = asked["last"]
        assert asked_root == root
        bound = scorer.tree_score_bound(root, leaf_prestige, edge_score)
        assert tree.score <= bound, (tree, edge_score, leaf_prestige, bound)
        built.append(tree)
        return tree

    with open_gate(on_ask), mock.patch.object(Scorer, "build_tree", build_and_check):
        yield


@pytest.mark.parametrize("cls", ALGORITHMS)
@given(case=search_cases())
@settings(max_examples=60, deadline=None)
def test_every_built_tree_scores_within_its_bound(cls, case):
    graph, keyword_sets = case
    built = []
    with checking_every_built_tree(built):
        result = run(cls, graph, keyword_sets, max_results=50)
    assert len(built) >= len(result.answers)


WORDS = ("transaction", "gray", "stream", "recovery", "paper")


@st.composite
def overlay_batches(draw):
    """New prestigious nodes wired into the 16-node toy graph: the
    overlay's prestige extension and adjacency overrides are what the
    bound must also cover."""
    base_nodes = 16
    batch = []
    added = draw(st.integers(min_value=1, max_value=4))
    for i in range(added):
        batch.append(
            AddNode(
                label=f"new-{i}",
                table="paper",
                text=" ".join(
                    draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=2))
                ),
                # Far above the base graph's maximum prestige.
                prestige=draw(st.floats(min_value=0.0, max_value=5.0)),
            )
        )
    for _ in range(draw(st.integers(min_value=added, max_value=3 * added))):
        u = draw(st.integers(min_value=0, max_value=base_nodes + added - 1))
        v = draw(st.integers(min_value=0, max_value=base_nodes + added - 1))
        if u != v:
            batch.append(
                AddEdge(
                    u=u if u < base_nodes else base_nodes - 1 - u,
                    v=v if v < base_nodes else base_nodes - 1 - v,
                    weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
                )
            )
    return batch


@given(
    batch=overlay_batches(),
    algorithm=st.sampled_from(["bidirectional", "si-backward", "mi-backward"]),
    max_results=st.sampled_from(TOP_K),
)
@settings(max_examples=40, deadline=None)
def test_overlay_graphs_keep_the_bound_and_the_answers(batch, algorithm, max_results):
    dataset = MutableDataset.from_engine(
        KeywordSearchEngine.from_database(make_toy_db()), compact_ratio=None
    )
    dataset.mutate(batch)
    engine = dataset.engine
    assert isinstance(engine.graph._out, Overlay)  # still read through an overlay
    params = SearchParams(max_results=max_results)
    for query in ("gray transaction", "paper stream", "transaction recovery"):
        try:
            gated = engine.search(query, algorithm=algorithm, params=params)
        except KeywordNotFoundError:  # the toy data always knows the first query
            assert query != "gray transaction"
            continue
        built = []
        with checking_every_built_tree(built):
            reference = engine.search(query, algorithm=algorithm, params=params)
        assert contract(gated) == contract(reference)


# ----------------------------------------------------------------------
# (c) cancelled runs stay prefixes with the gate on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALGORITHMS)
@given(
    case=search_cases(),
    max_results=st.sampled_from(TOP_K),
    cancel_after=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_cancelled_gated_run_is_prefix(cls, case, max_results, cancel_after):
    graph, keyword_sets = case
    knobs = dict(max_results=max_results)
    full = run(cls, graph, keyword_sets, **knobs)
    token = cancel_at_tick(cancel_after)
    part = run(cls, graph, keyword_sets, token=token, **knobs)

    if part.complete:
        assert contract(part) == contract(full)
    else:
        prefix = len(part.answers)
        assert part.signatures() == full.signatures()[:prefix]
        assert part.scores() == full.scores()[:prefix]
        assert part.stats.nodes_explored <= cancel_after + 1


# ----------------------------------------------------------------------
# (d) heuristic mode is not gated
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALGORITHMS)
@given(case=search_cases(), max_results=st.sampled_from(TOP_K))
@settings(max_examples=40, deadline=None)
def test_heuristic_mode_emits_everything(cls, case, max_results):
    graph, keyword_sets = case
    knobs = dict(max_results=max_results, output_mode="heuristic")
    plain = run(cls, graph, keyword_sets, **knobs)
    with open_gate():
        reference = run(cls, graph, keyword_sets, **knobs)
    assert contract(plain) == contract(reference)
    assert emission_counters(plain) == emission_counters(reference)
    assert plain.stats.gate_skips == 0
