"""MutableDataset lifecycle: epochs, MVCC isolation, compaction, arguments."""

import inspect
import math
import threading

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.live import MutableDataset
from repro.live.mutations import AddEdge, AddNode, UpdateText
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
        assert toy_dataset.mutate([]).epoch.version == 0
        assert toy_dataset.commit().version == 0

    def test_staged_changes_invisible_until_commit(self, toy_dataset):
        node = toy_dataset.add_node("staged", text="stagedterm")
        assert toy_dataset.index.lookup("stagedterm") == frozenset()
        assert toy_dataset.graph.num_nodes == node  # not yet visible
        epoch = toy_dataset.commit()
        assert epoch.index.lookup("stagedterm") == {node}
        assert epoch.graph.num_nodes == node + 1

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
        assert dataset.stats()["mutations_since_compaction"] == 0

    def test_node_and_text_mutations_trigger_compaction_too(self, toy_engine):
        """Regression: a node-/text-only ingest stream must still hit
        the compaction policy — only counting edge ops let the overlay
        grow without bound."""
        # Small enough that any one mutation reaches it: every commit compacts.
        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=1e-9)
        assert dataset.mutate([AddNode(label="n", text="justtext")]).epoch.compacted
        assert dataset.mutate([UpdateText(node=7, text="renamed")]).epoch.compacted
        assert dataset.stats()["added_nodes"] == 0  # folded into the base

    def test_rolled_back_batch_does_not_count_toward_compaction(self, toy_engine):
        from repro.errors import MutationError

        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=None)
        with pytest.raises(MutationError):
            dataset.mutate([AddNode(label="x"), AddEdge(u=-1, v=99_999)])
        assert dataset.stats()["mutations_since_compaction"] == 0

    def test_auto_compaction_every_commits(self, toy_engine):
        dataset = MutableDataset.from_engine(toy_engine, compact_ratio=1e-9)
        first = dataset.mutate([AddNode(label="x"), AddEdge(u=-1, v=3)])
        assert first.epoch.compacted
        second = dataset.mutate([AddEdge(u=dataset.graph.num_nodes - 1, v=4)])
        assert second.epoch.compacted
        assert second.epoch.version == 2
        # An idle commit folds nothing and bumps nothing.
        assert dataset.commit() is second.epoch


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
            MutableDataset.from_engine(toy_engine).commit(recompute_prestige=True)
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
        assert arguments(MutableDataset.commit) == ["self", "journal"]
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

    def test_stats_shape(self, toy_dataset):
        toy_dataset.mutate([AddNode(label="x"), AddEdge(u=-1, v=3)])
        stats = toy_dataset.stats()
        assert stats["added_nodes"] == 1
        assert stats["version"] == 1
        assert stats["staged"] == 0
        assert stats["mutations_applied"] == 2


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
