"""Property: overlay mutations == from-scratch rebuild of the final state.

For any mutation sequence applied to a :class:`~repro.live.MutableDataset`,
the overlayed dataset must be indistinguishable from rebuilding the
final state from scratch (replaying the sequence on a plain model and
freezing a fresh graph + index):

* the graphs are **bit-identical** — adjacency order, edge weights,
  activation normalizers, prestige — which is the strongest possible
  form of "same answers, same scores";
* index lookups agree on every term either side knows;
* searching both yields the same answers with the same exact scores
  (compared order-insensitively: two structurally identical graphs may
  still emit tied answers in different orders because frozenset
  iteration is layout-dependent, but the answer *set* and every float
  in it must match).

Compaction is folded into the property: compacting the mutated dataset
must change nothing either.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import KeywordNotFoundError
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode, RemoveEdge, UpdateText

from tests.conftest import make_toy_db
from tests.live.conftest import (
    ReplayModel,
    assert_same_graph,
    assert_same_index,
    canonical_answers,
    replay,
)

# Small weight palette: floats that survive arithmetic exactly.
WEIGHTS = (1.0, 2.0, 0.5, 4.0)

WORDS = (
    "transaction", "gray", "stream", "quorum", "locking", "vector",
    "recovery", "paper", "novel", "index",
)


@st.composite
def mutation_sequences(draw):
    """A batch of 1-12 mutations, kept applicable by construction
    against the 16-node toy graph: edges only reference base nodes or
    earlier batch aliases, removals only target edges previously added
    in the batch (base-edge removals are exercised separately so the
    strategy stays simple and shrinkable)."""
    base_nodes = 16
    mutations = []
    added = 0  # batch AddNode count so far
    added_edges: list[tuple[int, int, float]] = []
    size = draw(st.integers(min_value=1, max_value=12))
    for _ in range(size):
        choices = ["add_node", "add_edge", "update_text"]
        if added_edges:
            choices.append("remove_edge")
        op = draw(st.sampled_from(choices))
        if op == "add_node":
            text = " ".join(
                draw(
                    st.lists(
                        st.sampled_from(WORDS), min_size=0, max_size=3
                    )
                )
            )
            mutations.append(
                AddNode(
                    label=f"new-{added}",
                    table=draw(st.sampled_from([None, "paper", "author"])),
                    text=text or None,
                )
            )
            added += 1
        elif op == "add_edge":
            max_id = base_nodes + added
            u = draw(st.integers(min_value=0, max_value=max_id - 1))
            v = draw(st.integers(min_value=0, max_value=max_id - 1))
            if u == v:
                continue
            w = draw(st.sampled_from(WEIGHTS))
            mutations.append(
                AddEdge(
                    u=u if u < base_nodes else base_nodes - 1 - u,
                    v=v if v < base_nodes else base_nodes - 1 - v,
                    weight=w,
                )
            )
            added_edges.append((u, v, w))
        elif op == "remove_edge":
            u, v, w = draw(st.sampled_from(added_edges))
            added_edges.remove((u, v, w))
            mutations.append(
                RemoveEdge(
                    u=u if u < base_nodes else base_nodes - 1 - u,
                    v=v if v < base_nodes else base_nodes - 1 - v,
                    weight=w,
                )
            )
        else:
            node = draw(st.integers(min_value=0, max_value=base_nodes + added - 1))
            text = " ".join(
                draw(st.lists(st.sampled_from(WORDS), min_size=0, max_size=3))
            )
            mutations.append(
                UpdateText(
                    node=node if node < base_nodes else base_nodes - 1 - node,
                    text=text,
                )
            )
    return mutations


def run_equivalence(batches) -> None:
    engine_db = make_toy_db()
    model = ReplayModel.from_database(engine_db)
    dataset = MutableDataset.from_engine(
        KeywordSearchEngine.from_database(engine_db), compact_ratio=None
    )
    for batch in batches:
        outcome = dataset.mutate(batch)
        assert list(outcome.new_nodes) == replay(model, batch)
    rebuilt = model.build(prestige=dataset.graph.prestige)

    assert_same_graph(dataset.graph, rebuilt.graph)
    assert_same_index(dataset.index, rebuilt.index, extra_terms=WORDS)

    params = SearchParams(max_results=50)
    for query in ("transaction", "gray transaction", "paper stream"):
        try:
            expected = canonical_answers(
                rebuilt.search(query, params=params)
            )
        except KeywordNotFoundError:
            expected = None
        if expected is None:
            try:
                dataset.engine.search(query, params=params)
            except KeywordNotFoundError:
                continue
            raise AssertionError(
                f"overlay resolved {query!r} but the rebuild could not"
            )
        actual = canonical_answers(dataset.engine.search(query, params=params))
        assert actual == expected, f"answers diverged for {query!r}"

    # Compaction must be invisible too.
    compacted = dataset.compact()
    assert_same_graph(compacted.graph, rebuilt.graph)
    assert_same_index(compacted.index, rebuilt.index, extra_terms=WORDS)


@given(batch=mutation_sequences())
@settings(max_examples=60, deadline=None)
def test_single_batch_equals_rebuild(batch):
    run_equivalence([batch])


@given(
    batches=st.lists(mutation_sequences(), min_size=2, max_size=4)
)
@settings(max_examples=25, deadline=None)
def test_multi_commit_equals_rebuild(batches):
    run_equivalence(batches)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_base_edge_removal_equals_rebuild(data):
    """Removals of *base* edges (the case the generator above avoids):
    pick existing forward edges off the toy graph and drop them."""
    engine_db = make_toy_db()
    model = ReplayModel.from_database(engine_db)
    dataset = MutableDataset.from_engine(
        KeywordSearchEngine.from_database(engine_db), compact_ratio=None
    )
    count = data.draw(st.integers(min_value=1, max_value=4))
    for _ in range(count):
        edges = list(model.edges)
        if not edges:
            break
        u, v, w = data.draw(st.sampled_from(edges))
        batch = [RemoveEdge(u=u, v=v, weight=w)]
        dataset.mutate(batch)
        replay(model, batch)
    rebuilt = model.build(prestige=dataset.graph.prestige)
    assert_same_graph(dataset.graph, rebuilt.graph)
    assert_same_index(dataset.index, rebuilt.index)
