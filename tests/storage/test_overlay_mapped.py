"""Overlay/index ``lookup`` memo invalidation across mutation
interleavings, against snapshot bases in both residency modes.

Each committed epoch builds a fresh immutable index (an
``InvertedIndex`` over ``OverlayPostings``) with its own lookup memo;
these tests pin that a memoized answer from epoch N never leaks into
epoch N+1 after ``remove_edge`` / ``update_text`` interleavings over a
base whose postings materialize lazily — and that the two modes behave
exactly alike throughout.
"""

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.live.dataset import MutableDataset
from repro.live.mutations import AddEdge, AddNode, RemoveEdge, UpdateText
from repro.service.snapshot import load_snapshot, save_engine
from repro.storage import MappedSearchGraph

from tests.helpers import pins

MODES = ("ram", "mapped")


@pytest.fixture
def snapshot_path(toy_engine, tmp_path):
    path = tmp_path / "base.snap"
    save_engine(path, toy_engine)
    return path


def make_dataset(snapshot_path, mode) -> MutableDataset:
    ds = MutableDataset(*load_snapshot(snapshot_path, storage_mode=mode))
    assert isinstance(ds.graph, MappedSearchGraph)
    assert ds.graph.storage.mode == mode
    return ds


@pytest.mark.parametrize("mode", MODES)
class TestLookupMemoInvalidation:
    def test_update_text_invalidates_memoized_lookup(self, snapshot_path, mode):
        ds = make_dataset(snapshot_path, mode)
        victim = sorted(ds.index.lookup("transaction"))[0]
        before = ds.index.lookup("transaction")  # memoized in this epoch
        assert ds.index.lookup("transaction") == before
        ds.mutate([UpdateText(node=victim, text="completely different words")])
        after = ds.index.lookup("transaction")
        assert victim not in after
        assert after == before - {victim}
        assert victim in ds.index.lookup("completely")

    def test_readded_term_reappears(self, snapshot_path, mode):
        ds = make_dataset(snapshot_path, mode)
        victim = sorted(ds.index.lookup("transaction"))[0]
        original_text = ds.graph.label(victim)
        ds.mutate([UpdateText(node=victim, text="placeholder")])
        assert victim not in ds.index.lookup("transaction")
        ds.mutate([UpdateText(node=victim, text=original_text)])
        assert victim in ds.index.lookup("transaction")

    def test_remove_edge_between_text_updates(self, snapshot_path, mode):
        """Interleave graph and index mutations in one epoch and across
        epochs; lookups and adjacency must both track the latest commit."""
        ds = make_dataset(snapshot_path, mode)
        # Pick a forward edge whose endpoints both carry text.
        u = next(
            n for n in ds.graph.nodes()
            if any(fwd for _, _, fwd in ds.graph.out_edges(n))
        )
        v = next(t for t, _, fwd in ds.graph.out_edges(u) if fwd)
        ds.index.lookup("gray")  # warm this epoch's memo
        degree_before = len(ds.graph.out_edges(u))

        ds.mutate(
            [RemoveEdge(u=u, v=v), UpdateText(node=u, text="interleaved mutation probe")]
        )

        assert len(ds.graph.out_edges(u)) < degree_before
        assert u in ds.index.lookup("interleaved")
        assert all(
            not (t == v and fwd) for t, _, fwd in ds.graph.out_edges(u)
        )

        # Second epoch: move the text again; the first epoch's memo for
        # "interleaved" must not survive.
        assert u in ds.index.lookup("interleaved")  # memoize pre-mutation
        ds.mutate([UpdateText(node=u, text="settled")])
        assert u not in ds.index.lookup("interleaved")
        assert u in ds.index.lookup("settled")

    def test_uncommitted_batch_not_visible_then_visible(self, snapshot_path, mode):
        ds = make_dataset(snapshot_path, mode)
        node = sorted(ds.index.lookup("postgres"))[0]
        seen = []

        def journal(batch):
            # Staged but uncommitted: the serving epoch still answers old.
            seen.append(node in ds.index.lookup("postgres"))

        ds.mutate([UpdateText(node=node, text="renamed entirely")], journal=journal)
        assert seen == [True]
        assert node not in ds.index.lookup("postgres")
        assert node in ds.index.lookup("renamed")


@pytest.mark.parametrize("mode", MODES)
def test_search_tracks_interleaved_mutations(snapshot_path, mode):
    """End-to-end: the per-epoch engine over an overlay answers from the
    latest epoch for both base tiers."""
    ds = make_dataset(snapshot_path, mode)
    node = sorted(ds.index.lookup("transaction"))[0]
    ds.mutate([UpdateText(node=node, text="xyzzyterm probe")])
    engine = ds.engine
    assert isinstance(engine, KeywordSearchEngine)
    params = SearchParams(max_results=3)
    result = engine.search("xyzzyterm", params=params)
    assert result.answers
    assert any(node in answer.tree.nodes() for answer in result.answers)
    # ... and a two-keyword search crossing overlay and base edges.
    joined = engine.search("xyzzyterm gray", params=params)
    assert joined.complete


def test_modes_agree_after_identical_interleavings(snapshot_path):
    """The same mutation script applied over a RAM base and a mapped
    base must leave byte-identical logical state."""
    datasets = [make_dataset(snapshot_path, mode) for mode in MODES]
    for ds in datasets:
        victim = sorted(ds.index.lookup("transaction"))[0]
        u = next(
            n for n in ds.graph.nodes()
            if any(fwd for _, _, fwd in ds.graph.out_edges(n))
        )
        v = next(t for t, _, fwd in ds.graph.out_edges(u) if fwd)
        ds.mutate(
            [RemoveEdge(u=u, v=v), UpdateText(node=victim, text="rewritten after removal")]
        )
    ram, mapped = datasets
    assert ram.version == mapped.version
    for node in ram.graph.nodes():
        assert ram.graph.out_edges(node) == mapped.graph.out_edges(node)
        assert ram.graph.in_edges(node) == mapped.graph.in_edges(node)
    for term in ("transaction", "rewritten", "gray", "paper"):
        assert ram.index.lookup(term) == mapped.index.lookup(term)
    a = ram.engine.search("rewritten removal", k=5)
    b = mapped.engine.search("rewritten removal", k=5)
    assert a.scores() == b.scores()
    assert a.signatures() == b.signatures()


@pytest.mark.parametrize("mode", MODES)
def test_num_edges_is_stored_and_faults_no_row(snapshot_path, mode):
    """``num_edges`` on a loaded graph and on an epoch over it is
    twice the stored forward-edge count: reading it materializes no
    row, and it equals the count of a rebuild."""
    with pins(0, 0):
        ds = make_dataset(snapshot_path, mode)
    base = ds.graph
    stats = base.storage
    epoch = ds.mutate([AddNode(label="x"), AddEdge(u=-1, v=3)]).epoch
    for graph in (base, epoch.graph):
        faults = stats.row_faults
        edges = graph.num_edges
        assert stats.row_faults == faults
        assert edges == sum(len(graph.out_edges(node)) for node in graph.nodes())
    assert ds.compact().graph.num_edges == edges
