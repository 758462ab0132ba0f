"""Property: replaying a recorded WAL onto the base snapshot yields a
dataset bit-identical to the live one that wrote it.

The same discipline as ``test_prop_live`` (graphs compare bit-for-bit:
adjacency order, weights, activation normalizers; index lookups agree
on every term), applied to the durability path: for any mutation
sequence journaled through :class:`repro.wal.MutationLog`,
``MutableDataset.replay_records`` over the loaded
base snapshot must reconstruct the live dataset exactly — including
when the log spans **multiple segments** and when the live side
**compacted** mid-run (compaction folds the overlay but is invisible
in the journal, so the replayed overlay must still match bit-for-bit).
"""

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.live import MutableDataset
from repro.service.snapshot import load_snapshot, save_engine
from repro.wal import MutationLog

from tests.conftest import make_toy_db
from tests.helpers import replayed
from tests.live.conftest import assert_same_graph, assert_same_index
from tests.property.test_prop_live import WORDS, mutation_sequences


def two_record_segments():
    """Rotation every two records, so every non-trivial run exercises
    the multi-segment read path."""
    return mock.patch.object(MutationLog, "SEGMENT_MAX_RECORDS", 2)


def run_wal_equivalence(batches, *, compact_ratio=None) -> None:
    """Journal ``batches`` through a tiny-segment log, then replay."""
    with tempfile.TemporaryDirectory() as tmp, two_record_segments():
        snapshot = save_engine(
            Path(tmp) / "toy.snap",
            KeywordSearchEngine.from_database(make_toy_db()),
        )
        log = MutationLog(Path(tmp) / "toy.snap.wal", sync="off")
        graph, index = load_snapshot(snapshot)
        live = MutableDataset(graph, index, compact_ratio=compact_ratio)
        for batch in batches:
            live.mutate(batch, journal=log.append)
        assert log.last_seq == live.version

        replay = replayed(log, graph, index)
        assert replay.version == live.version
        assert_same_graph(replay.graph, live.graph)
        assert_same_index(replay.index, live.index, extra_terms=WORDS)

        # A fresh read-only open from disk (what a restarted replica
        # does) replays identically too.
        log.close()
        reopened = MutationLog(Path(tmp) / "toy.snap.wal", readonly=True)
        replayed_cold = replayed(reopened, graph, index)
        assert_same_graph(replayed_cold.graph, live.graph)
        assert_same_index(replayed_cold.index, live.index, extra_terms=WORDS)


@given(batch=mutation_sequences())
@settings(max_examples=40, deadline=None)
def test_single_batch_replay_equals_live(batch):
    run_wal_equivalence([batch])


@given(batches=st.lists(mutation_sequences(), min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_multi_commit_multi_segment_replay_equals_live(batches):
    run_wal_equivalence(batches)


@given(batches=st.lists(mutation_sequences(), min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_replay_matches_live_across_compaction(batches):
    """The live side compacts after every commit (any one mutation
    reaches the ratio); the journal never records compaction (it changes
    no answer), so the replayed overlay must still be bit-identical to
    the folded flat arrays."""
    run_wal_equivalence(batches, compact_ratio=1e-9)


@given(batch=mutation_sequences())
@settings(max_examples=20, deadline=None)
def test_replay_from_mid_lineage_snapshot(batch):
    """Snapshotting mid-run and replaying only the tail of the log onto
    the newer snapshot reconstructs the same final state — the
    truncation story: the log only needs to reach back to the newest
    snapshot."""
    from repro.live.mutations import AddNode
    from repro.service.snapshot import save_snapshot

    with tempfile.TemporaryDirectory() as tmp, two_record_segments():
        base = save_engine(
            Path(tmp) / "toy.snap",
            KeywordSearchEngine.from_database(make_toy_db()),
        )
        log = MutationLog(Path(tmp) / "toy.snap.wal", sync="off")
        live = MutableDataset(*load_snapshot(base), compact_ratio=None)
        live.mutate(batch, journal=log.append)
        version_at_snapshot = live.version
        # Snapshot the mid-run state (compaction keeps answers and the
        # version; the journal is untouched).
        epoch = live.compact()
        mid = save_snapshot(
            Path(tmp) / "mid.snap",
            epoch.graph,
            epoch.index,
            version=version_at_snapshot,
        )
        live.mutate(
            [AddNode(label="tail", table="paper", text="quorum vector")],
            journal=log.append,
        )
        assert log.last_seq == live.version == version_at_snapshot + 1

        graph, index = load_snapshot(mid)
        replay = replayed(log, graph, index, start=version_at_snapshot)
        # Only the tail record applies; the rest is baked into the
        # snapshot the replay started from.
        assert replay.version == 1
        assert_same_graph(replay.graph, live.graph)
        assert_same_index(replay.index, live.index, extra_terms=WORDS)
        log.close()
