"""MutableDataset lifecycle: epochs, MVCC isolation, compaction, arguments."""

import inspect
import math
import threading

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.errors import MutationError
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode, RemoveEdge, UpdateText
from repro.service.snapshot import load_snapshot
from repro.wal import MutationLog

from tests.conftest import make_toy_db
from tests.helpers import replayed
from tests.live.conftest import assert_same_graph, assert_same_index, canonical_answers


class TestEpochs:
    def test_versions_are_monotone(self, toy_dataset):
        assert toy_dataset.version == 0
        v1 = toy_dataset.mutate([AddNode(label="a")]).epoch.version
        v2 = toy_dataset.mutate([AddNode(label="b")]).epoch.version
        assert (v1, v2) == (1, 2)

    def test_empty_batch_does_not_bump(self, toy_dataset):
        journalled = []
        outcome = toy_dataset.mutate([], journal=journalled.append)
        assert outcome.epoch is toy_dataset.epoch
        assert (outcome.epoch.version, journalled) == (0, [])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0])
    def test_add_edge_rejects_a_bad_weight_and_commits_nothing(
        self, toy_dataset, weight
    ):
        epoch = toy_dataset.epoch
        with pytest.raises(MutationError, match="finite and > 0"):
            toy_dataset.mutate(
                [AddNode(label="x"), {"op": "add_edge", "u": 0, "v": 1, "weight": weight}]
            )
        assert toy_dataset.epoch is epoch

    def test_add_edge_whose_backward_weight_overflows_commits_nothing(
        self, toy_dataset
    ):
        # Node 0 (Jim Gray) has two forward in-edges: a third makes every
        # backward weight into it w * log2(4), infinite for w = 1e308.
        version = toy_dataset.version
        with pytest.raises(MutationError, match="overflows"):
            toy_dataset.mutate([AddEdge(u=5, v=0, weight=1e308)])
        assert toy_dataset.version == version
        # A node with no forward in-edge takes 1.5e308 (log2(2) = 1);
        # a second edge into it would rescale that by log2(3).
        toy_dataset.mutate([AddEdge(u=5, v=9, weight=1.5e308)])
        with pytest.raises(MutationError, match="overflows"):
            toy_dataset.mutate([AddEdge(u=6, v=9, weight=1.0)])
        graph = toy_dataset.graph
        assert all(0.0 < w < math.inf for x in range(graph.num_nodes)
                   for _, w, _ in graph.in_edges(x))

    def test_batch_invisible_until_committed(self, toy_dataset):
        """The journal sees the whole batch before any search does."""
        n = toy_dataset.graph.num_nodes
        seen = []

        def journal(batch):
            index, graph = toy_dataset.index, toy_dataset.graph
            seen.append((len(batch), index.lookup("stagedterm"), graph.num_nodes))

        epoch = toy_dataset.mutate(
            [AddNode(label="staged", text="stagedterm")], journal=journal
        ).epoch
        assert seen == [(1, frozenset(), n)]
        assert epoch.index.lookup("stagedterm") == {n}
        assert epoch.graph.num_nodes == n + 1

    def test_old_epoch_is_immutable(self, toy_dataset):
        """MVCC: a search holding the old epoch sees no commits."""
        old = toy_dataset.epoch
        baseline = canonical_answers(old.engine.search("transaction"))
        old_nodes = old.graph.num_nodes
        toy_dataset.mutate(
            [
                AddNode(label="Tx Paper", table="paper", text="transaction blast"),
                AddEdge(u=-1, v=3),
            ]
        )
        assert old.graph.num_nodes == old_nodes
        assert old.index.lookup("blast") == frozenset()
        assert canonical_answers(old.engine.search("transaction")) == baseline
        # while the new epoch sees the change
        assert toy_dataset.index.lookup("blast") != frozenset()

    def test_concurrent_searches_on_prior_epoch_unperturbed(self, toy_dataset):
        """Readers hammer one epoch while the writer commits 20 more."""
        old = toy_dataset.epoch
        baseline = canonical_answers(old.engine.search("transaction gray"))
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                answers = canonical_answers(old.engine.search("transaction gray"))
                if answers != baseline:
                    failures.append(answers)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for i in range(20):
                toy_dataset.mutate(
                    [
                        AddNode(
                            label=f"P{i}",
                            table="paper",
                            text=f"transaction gray volume{i}",
                        ),
                        AddEdge(u=-1, v=3),
                    ]
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert toy_dataset.version == 20


class TestScratch:
    """A batch stages into its own scratch: a failure drops it whole,
    and a success leaves one committed copy of the delta, which every
    epoch reads uncopied."""

    #: Touches rows (an edge added and one removed, both reweighting a
    #: hub), postings (a retext, a new node's text and relation) and
    #: the next new node's id.
    BATCH = [
        AddNode(label="Doomed", table="paper", text="doomed paper"),
        AddEdge(u=-1, v=3),
        AddEdge(u=6, v=3),
        RemoveEdge(u=5, v=3),
        UpdateText(node=7, text="doomed retext"),
        UpdateText(node=-1, text="twice doomed"),
    ]

    def test_a_journal_that_raises_leaves_the_dataset_as_it_was(self, toy_engine):
        failed = MutableDataset.from_engine(toy_engine, compact_ratio=None)
        clean = MutableDataset.from_engine(toy_engine, compact_ratio=None)
        epoch = failed.epoch

        def journal(batch):
            assert len(batch) == len(self.BATCH)
            raise OSError("disk full")

        for attempt in range(2):  # a second failure starts from the same state
            with pytest.raises(OSError, match="disk full"):
                failed.mutate(self.BATCH, journal=journal)
            assert failed.epoch is epoch and failed.version == 0
        assert_same_graph(failed.graph, toy_engine.graph)
        assert_same_index(failed.index, toy_engine.index, extra_terms=["doomed"])
        # The next batch numbers its node where the failed one did, and
        # a later retext of node 7 replaces its original terms.
        later = [AddNode(label="kept", text="kept"), UpdateText(node=7, text="kept")]
        outcomes = [dataset.mutate(later) for dataset in (failed, clean)]
        assert outcomes[0].new_nodes == outcomes[1].new_nodes == (
            toy_engine.graph.num_nodes,
        )
        assert failed.version == clean.version == 1
        assert_same_graph(failed.graph, clean.graph)
        assert_same_index(failed.index, clean.index, extra_terms=["doomed"])
        assert failed.index.lookup("kept") == {7, toy_engine.graph.num_nodes}

    def test_commits_keep_one_copy_of_the_delta(self, toy_dataset):
        epochs = [toy_dataset.mutate(self.BATCH).epoch]
        for i in range(5):
            epochs.append(
                toy_dataset.mutate(
                    [AddNode(label=f"n{i}", text=f"fresh{i}"), AddEdge(u=-1, v=4)]
                ).epoch
            )
        # No per-node working lists or posting sets survive a commit
        # (the base index's own posting maps hold sets).
        base = toy_dataset._base_post, toy_dataset._base_rel
        for name, value in vars(toy_dataset).items():
            if isinstance(value, dict) and not any(value is m for m in base):
                rows = value.values()
                assert not any(isinstance(v, (list, set)) for v in rows), name
        # The epoch's overlays hold the committed maps themselves.
        graph, index = toy_dataset.graph, toy_dataset.index
        assert graph._out._over is toy_dataset._out
        assert graph._in._over is toy_dataset._in
        assert graph._in_inv_weight_sum._over is toy_dataset._in_invw
        assert index._export_postings()[0]._added is toy_dataset._added
        # ...and an older epoch keeps the maps it was built over.
        first = epochs[0].graph
        assert first._out._over is not toy_dataset._out
        assert first.num_nodes == graph.num_nodes - 5
        assert epochs[0].index.lookup("fresh0") == frozenset()


class TestCompaction:
    def test_compact_preserves_answers_and_version(self, toy_dataset):
        toy_dataset.mutate(
            [
                AddNode(label="Q Paper", table="paper", text="quorum consensus"),
                AddEdge(u=-1, v=3),
                UpdateText(node=7, text="redesigned storage"),
            ]
        )
        before_graph = toy_dataset.graph
        before_index = toy_dataset.index
        before = canonical_answers(toy_dataset.engine.search("quorum"))
        epoch = toy_dataset.compact()
        assert epoch.compacted
        assert epoch.version == 1  # identical answers: version must not bump
        assert_same_graph(epoch.graph, before_graph)
        assert_same_index(
            epoch.index, before_index, extra_terms=["quorum", "redesigned"]
        )
        assert canonical_answers(epoch.engine.search("quorum")) == before
        # idempotent
        assert toy_dataset.compact() is toy_dataset.epoch

    def test_auto_compaction_by_ratio(self, toy_engine):
        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=0.01)
        outcome = dataset.mutate(
            [AddNode(label="x"), AddEdge(u=-1, v=3), AddEdge(u=-1, v=4)]
        )
        assert outcome.epoch.compacted
        assert isinstance(dataset.graph._out, tuple)  # flat again

    def test_node_and_text_mutations_trigger_compaction_too(self, toy_engine):
        """Regression: a node-/text-only ingest stream must still hit
        the compaction policy — only counting edge ops let the overlay
        grow without bound."""
        # Small enough that any one mutation reaches it: every commit compacts.
        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=1e-9)
        assert dataset.mutate([AddNode(label="n", text="justtext")]).epoch.compacted
        assert dataset.mutate([UpdateText(node=7, text="renamed")]).epoch.compacted
        assert isinstance(dataset.graph._out, tuple)  # folded into the base

    def test_failed_batch_does_not_count_toward_compaction(self, toy_engine):
        # Compacts once 2.5 mutations have landed: on the third.
        ratio = 2.5 / toy_engine.graph.num_forward_edges
        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=ratio)
        with pytest.raises(MutationError):
            dataset.mutate([AddNode(label="x"), AddEdge(u=-1, v=99_999)])
        assert not dataset.mutate([AddNode(label="y"), AddEdge(u=-1, v=3)]).epoch.compacted
        assert dataset.mutate([AddNode(label="z")]).epoch.compacted

    def test_auto_compaction_every_commits(self, toy_engine):
        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=1e-9)
        first = dataset.mutate([AddNode(label="x"), AddEdge(u=-1, v=3)])
        assert first.epoch.compacted
        second = dataset.mutate([AddEdge(u=dataset.graph.num_nodes - 1, v=4)])
        assert second.epoch.compacted
        assert second.epoch.version == 2
        # An empty batch folds nothing and bumps nothing.
        assert dataset.mutate([]).epoch is second.epoch


class TestConstruction:
    def test_from_snapshot_round_trip(self, toy_engine, tmp_path):
        from repro.service.snapshot import save_engine

        path = save_engine(tmp_path / "toy.snap", toy_engine)
        dataset = MutableDataset(*load_snapshot(path))
        outcome = dataset.mutate([AddNode(label="x", text="fromsnapshot")])
        assert dataset.index.lookup("fromsnapshot") == {outcome.new_nodes[0]}

    def test_rejects_overlay_base(self, toy_dataset):
        from repro.errors import MutationError

        toy_dataset.mutate([AddNode(label="x")])
        with pytest.raises(MutationError, match="flat SearchGraph"):
            MutableDataset(toy_dataset.graph, toy_dataset.index)

    def test_bad_knobs(self, toy_engine, tmp_path):
        with pytest.raises(ValueError):
            MutableDataset.from_engine(toy_engine, compact_ratio=0)
        # Set only by tests, so gone: a snapshot writer, a second
        # compaction trigger and a second new-node prestige.
        for argument, value in (
            ("snapshot_path", "live.snap"),
            ("compact_every", 1),
            ("new_node_prestige", 0.5),
        ):
            with pytest.raises(TypeError, match=argument):
                MutableDataset.from_engine(toy_engine, **{argument: value})
        with pytest.raises(TypeError, match="recompute_prestige"):
            MutableDataset.from_engine(toy_engine).mutate([], recompute_prestige=True)
        # replay() takes a loaded base, not a file to load, and applies
        # every record strictly with the default knobs.
        with MutationLog(tmp_path / "toy.wal") as log:
            for argument in (
                "snapshot", "storage_mode", "pin_policy", "start_seq", "strict",
                "compact_ratio",
            ):
                with pytest.raises(TypeError, match=argument):
                    MutableDataset.replay(
                        log,
                        graph=toy_engine.graph,
                        index=toy_engine.index,
                        **{argument: None},
                    )
        for entry in ("from_snapshot", "from_database"):
            assert not hasattr(MutableDataset, entry)

    def test_arguments_are_these(self):
        def arguments(function):
            return list(inspect.signature(function).parameters)

        assert arguments(MutableDataset) == ["graph", "index", "params", "compact_ratio"]
        assert arguments(MutableDataset.mutate) == ["self", "mutations", "journal"]
        # mutate() is the one way to change a dataset: no staging API.
        for name in (
            "commit", "rollback", "add_node", "add_edge", "remove_edge",
            "update_text", "stats",
        ):
            assert not hasattr(MutableDataset, name), name
        assert arguments(MutableDataset.replay) == ["log", "graph", "index"]
        assert arguments(MutationLog) == ["path", "sync", "start_seq", "readonly"]
        assert arguments(MutationLog.append) == ["self", "mutations", "seq"]
        assert (
            MutationLog.BATCH_EVERY,
            MutationLog.SEGMENT_MAX_RECORDS,
            MutationLog.SEGMENT_MAX_BYTES,
        ) == (16, 1024, 4 << 20)

    def test_new_node_prestige_default_is_base_mean(self, toy_engine):
        """The correctly rounded mean (``fsum``): within an ulp or two
        of numpy's pairwise one, and no summation order's business."""
        dataset = MutableDataset.from_engine(toy_engine)
        node = dataset.mutate([AddNode(label="x")]).new_nodes[0]
        values = toy_engine.graph.prestige_values
        assert dataset.graph.node_prestige(node) == math.fsum(values) / len(values)
        assert dataset.graph.node_prestige(node) == math.fsum(reversed(values)) / len(values)
        assert dataset.graph.node_prestige(node) == pytest.approx(
            float(toy_engine.graph.prestige.mean()), rel=1e-14
        )

    def test_journal_records_resolved_prestige_so_replay_ignores_the_default(
        self, toy_engine, tmp_path
    ):
        """Every ``add_node`` is journalled with the float it was given,
        default or explicit, so a log replays bit for bit over a dataset
        whose own default is another number — a base with another mean,
        or a WAL written when the default was numpy's mean."""
        graph, index = toy_engine.graph, toy_engine.index
        n = graph.num_nodes
        writer_default = math.fsum(graph.prestige_values) / n
        # Another mean: 0.1 + 0.2 is no round number.
        other = graph.with_prestige([0.1 + 0.2] * n)
        with MutationLog(tmp_path / "toy.wal") as log:
            writer = MutableDataset.from_engine(toy_engine, compact_ratio=None)
            writer.mutate(
                [AddNode(label="a"), AddNode(label="b", prestige=0.125)],
                journal=log.append,
            )
            writer.mutate([AddNode(label="c"), AddEdge(u=-1, v=3)], journal=log.append)
            logged = [
                mutation["prestige"]
                for record in log.records()
                for mutation in record.mutations
                if mutation["op"] == "add_node"
            ]
            assert [p.hex() for p in logged] == [
                p.hex() for p in (writer_default, 0.125, writer_default)
            ]
            for base in (graph, other):
                replay = replayed(log, base, index)
                assert replay.version == writer.version == 2
                assert [p.hex() for p in replay.graph.prestige_values[n:]] == [
                    p.hex() for p in writer.graph.prestige_values[n:]
                ]
            assert replay.graph.prestige_values[:n] == other.prestige_values
            # ...while a node the replayed dataset adds itself takes its own.
            own = replay.mutate([AddNode(label="d")]).new_nodes[0]
            assert replay.graph.node_prestige(own) == 0.1 + 0.2 != writer_default

    def test_outcome_shape(self, toy_dataset):
        n = toy_dataset.graph.num_nodes
        outcome = toy_dataset.mutate(
            [AddNode(label="x"), AddEdge(u=-1, v=3), AddNode(label="y")]
        )
        assert (outcome.applied, outcome.new_nodes) == (3, (n, n + 1))
        assert outcome.epoch is toy_dataset.epoch
        assert outcome.epoch.version == toy_dataset.version == 1


def test_update_text_via_fresh_database():
    """update_text on a node whose terms come only from the base index."""
    engine_db = make_toy_db()
    dataset = MutableDataset.from_engine(KeywordSearchEngine.from_database(engine_db))
    node = dataset.graph.node_by_ref("paper", 3)  # "The Design of Postgres"
    dataset.mutate([UpdateText(node=node, text="vector databases now")])
    assert node not in dataset.index.lookup("postgres")
    assert node in dataset.index.lookup("vector")
    # relation-name postings survive a text update
    assert node in dataset.index.lookup("paper")
