"""Property: a journalled dataset's lineage survives any order of
commits, rejections, snapshot saves, reloads, re-registrations and
crash recoveries.

A hypothesis ``RuleBasedStateMachine`` drives one thread-tier
:class:`~repro.service.QueryService` serving the toy snapshot with a
mutation log attached.  The model beside it knows, for every step, the
base the served dataset was built on, the batches acknowledged since
(with each new node's prestige resolved the way the dataset resolves
it), the version the service must report, and what the log on disk
holds.  After every step:

* while a log is attached, ``wal_seqs()[name] == dataset_version(name)``
  (and with none attached, ``wal_seqs()`` is empty);
* the served graph and index are bit-identical to an oracle
  :class:`~repro.live.MutableDataset` that replays every acknowledged
  batch since the last (re)load onto that base;
* a rejected batch leaves neither a log record nor a version bump;
* every served search releases exactly what the same search on the
  oracle releases, and SI-Backward's top answer scores exactly what
  :mod:`repro.core.exhaustive`'s does.

Recovery is predicted from the model, not assumed.  Registering,
reloading and restarting the source all serve its ``dataset_version``;
a reload restarts the log there, so a new service registering the
snapshot and attaching the log replays exactly the records past the
snapshot's version — commits acknowledged after a reload included.  A
log ending behind the snapshot restarts at its version, and one that no
longer reaches back to it is refused loudly
(:class:`~repro.errors.WalError`, a replay gap).
"""

from __future__ import annotations

import shutil
import tempfile
from math import fsum
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import KeywordNotFoundError, MutationError, WalError
from repro.live import MutableDataset
from repro.live.mutations import (
    AddEdge,
    AddNode,
    RemoveEdge,
    UpdateText,
    mutation_to_dict,
)
from repro.service import QueryService
from repro.service.snapshot import load_snapshot, save_engine, snapshot_info
from repro.wal import MutationLog

from tests.conftest import make_toy_db
from tests.live.conftest import assert_same_graph, assert_same_index
from tests.property.test_prop_live import WEIGHTS, WORDS

NAME = "toy"
TOP_K = 50  # more answers than the toy graph holds
QUERIES = ("transaction", "gray transaction", "quorum paper")
PRESTIGE = (None, 0.125, 0.5, 2.0)  # None: the dataset's default


@st.composite
def batches(draw, num_nodes: int):
    """A valid batch of 1-6 mutations against a graph of ``num_nodes``
    nodes: edges reference existing nodes or earlier batch aliases, and
    removals target only edges the batch itself added."""
    mutations = []
    added = 0
    added_edges: list[tuple[int, int, float]] = []

    def ref(node: int) -> int:
        return node if node < num_nodes else num_nodes - 1 - node

    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        ops = ["add_node", "add_edge", "update_text"]
        if added_edges:
            ops.append("remove_edge")
        op = draw(st.sampled_from(ops))
        text = " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=3)))
        if op == "add_node":
            mutations.append(
                AddNode(
                    label=f"n{num_nodes + added}",
                    table=draw(st.sampled_from([None, "paper", "author"])),
                    text=text or None,
                    prestige=draw(st.sampled_from(PRESTIGE)),
                )
            )
            added += 1
        elif op == "add_edge":
            u, v = (
                draw(st.integers(min_value=0, max_value=num_nodes + added - 1))
                for _ in range(2)
            )
            if u == v:
                continue
            w = draw(st.sampled_from(WEIGHTS))
            mutations.append(AddEdge(u=ref(u), v=ref(v), weight=w))
            added_edges.append((u, v, w))
        elif op == "remove_edge":
            u, v, w = draw(st.sampled_from(added_edges))
            added_edges.remove((u, v, w))
            mutations.append(RemoveEdge(u=ref(u), v=ref(v), weight=w))
        else:
            node = draw(st.integers(min_value=0, max_value=num_nodes + added - 1))
            mutations.append(UpdateText(node=ref(node), text=text))
    return mutations


def load(path):
    """A snapshot's content, read into memory (the file may be
    rewritten later)."""
    return load_snapshot(path, storage_mode="ram")


class LineageMachine(RuleBasedStateMachine):
    """The model is ``base`` (graph, index) + ``batches`` at ``version``
    for what is served, and ``log_first_base`` / ``log_last`` /
    ``log_records`` (seq -> resolved batch) for what the log holds."""

    @initialize()
    def start(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="lineage-"))
        self.source = save_engine(
            self.tmp / "toy.snap", KeywordSearchEngine.from_database(make_toy_db())
        )
        self.wal_path = self.tmp / "toy.wal"
        self.wal_paths = 0
        self.service = None
        self.log_first_base = self.log_last = 0
        self.log_records: dict[int, list] = {}
        self._serve(0)
        info = self.service.attach_wal(NAME, self.wal_path)
        assert info["replayed"] == 0
        self.attached = True

    def teardown(self):
        if getattr(self, "service", None) is not None:
            self.service.close()
        if getattr(self, "tmp", None) is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    # model helpers
    # ------------------------------------------------------------------
    def _serve(self, version: int) -> None:
        """A (new) registration of the source at its ``version``: the
        model's base is the file's content, nothing acknowledged on top
        of it yet."""
        if self.service is None:
            self.service = QueryService()
            self.service.register_snapshot(NAME, self.source)
        self.base = load(self.source)
        self.batches: list[list[dict]] = []
        self.version = version
        self.attached = False

    def _source_version(self) -> int:
        return int(snapshot_info(self.source).get("dataset_version") or 0)

    def _num_nodes(self) -> int:
        return self.base[0].num_nodes + sum(
            op["op"] == "add_node" for batch in self.batches for op in batch
        )

    def _resolve(self, batch) -> list[dict]:
        """The batch's wire form with every default prestige replaced by
        the one the served dataset assigns: the mean of its base."""
        values = self.base[0].prestige_values
        default = fsum(values) / len(values)
        resolved = []
        for mutation in batch:
            wire = mutation_to_dict(mutation)
            if wire["op"] == "add_node" and wire.get("prestige") is None:
                wire["prestige"] = default
            resolved.append(wire)
        return resolved

    def _oracle(self) -> MutableDataset:
        graph, index = self.base
        oracle = MutableDataset(graph, index, compact_ratio=None)
        for batch in self.batches:
            oracle.mutate(batch)
        return oracle

    def _log_seqs(self) -> list[int]:
        with MutationLog(self.wal_path, readonly=True) as log:
            return [record.seq for record in log.records()]

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(data=st.data())
    def apply_valid_batch(self, data):
        batch = data.draw(batches(self._num_nodes()))
        resolved = self._resolve(batch)
        result = self.service.apply(NAME, batch)
        if batch:  # an empty batch commits nothing and logs nothing
            self.version += 1
            self.batches.append(resolved)
            if self.attached:
                self.log_last = self.version
                self.log_records[self.version] = resolved
        assert result.version == self.version

    @rule()
    def apply_rejected_batch(self):
        seqs = self._log_seqs()
        doomed = [
            AddNode(label="doomed", table="paper", text="doomedword", prestige=0.5),
            AddEdge(u=-1, v=self._num_nodes() + 3),
        ]
        try:
            self.service.apply(NAME, doomed)
        except MutationError:
            pass
        else:  # pragma: no cover - the property's failure message
            raise AssertionError("a batch naming a missing node committed")
        assert self.service.dataset_version(NAME) == self.version
        assert self._log_seqs() == seqs

    @rule()
    def save_snapshot_over_source(self):
        self.service.save_snapshot(NAME, self.source)
        assert self._source_version() == self.version
        if self.attached:
            # Every record is covered by the new snapshot: truncated.
            self.log_first_base = self.version
            self.log_records.clear()

    @rule()
    def reload_source(self):
        outcome = self.service.reload(NAME, self.source, force=True)
        version = self._source_version()
        assert outcome["reloaded"] and outcome["version"] == version
        attached = self.attached
        self._serve(version)
        if attached:
            # The old lineage's records are not the reloaded file's
            # history: the log restarts at the file's version.
            self.attached = True
            self.log_first_base = self.log_last = version
            self.log_records.clear()

    @rule()
    def reregister_then_attach_wal(self):
        self.service.register_snapshot(NAME, self.source)
        self._serve(self._source_version())
        if self._attach(self.version):
            return
        # What the refusal tells an operator to do: start a fresh log.
        self.wal_paths += 1
        self.wal_path = self.tmp / f"toy-{self.wal_paths}.wal"
        info = self.service.attach_wal(NAME, self.wal_path)
        assert info["wal_seq"] == info["version"] == self.version
        self.attached = True
        self.log_first_base = self.log_last = self.version
        self.log_records.clear()

    @rule()
    def close_and_recover(self):
        self.service.close()
        self.service = None
        snap = self._source_version()
        self._serve(snap)
        self._attach(snap)

    def _attach(self, start: int) -> bool:
        """Attach the log to a registration serving the source at
        version ``start`` with nothing committed on top: a log ending
        behind ``start`` restarts there, the records past ``start``
        replay when the log continues it, and the attach is refused
        when the log no longer reaches back to it (a replay gap)."""
        if self.log_last < start:
            self.log_first_base = self.log_last = start
            self.log_records.clear()
        continues = self.log_first_base <= start
        try:
            info = self.service.attach_wal(NAME, self.wal_path)
        except WalError:
            assert not continues
            assert self.service.wal_seqs() == {}
            return False
        assert continues
        assert info["replayed"] == self.log_last - start
        self.batches = [
            self.log_records[seq] for seq in range(start + 1, self.log_last + 1)
        ]
        self.version = self.log_last
        self.attached = True
        return True

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def log_tracks_the_served_version(self):
        if getattr(self, "service", None) is None:
            return
        version = self.service.dataset_version(NAME)
        assert version == self.version
        seqs = self.service.wal_seqs()
        if self.attached:
            assert seqs == {NAME: version}
            assert self._log_seqs() == sorted(self.log_records)
        else:
            assert seqs == {}

    @invariant()
    def served_state_is_the_oracle_replay(self):
        if getattr(self, "service", None) is None:
            return
        oracle = self._oracle()
        served = self.service.engine(NAME)
        assert_same_graph(served.graph, oracle.graph)
        assert_same_index(served.index, oracle.index, extra_terms=WORDS)
        params = SearchParams(max_results=TOP_K, dmax=30)
        for query in QUERIES:
            try:
                expected = oracle.engine.exhaustive(query, max_results=TOP_K)
            except KeywordNotFoundError:
                expected = None
            for algorithm in ("bidirectional", "si-backward"):
                response = self.service.search(
                    NAME, query, algorithm=algorithm, params=params
                )
                if expected is None:
                    assert response.error_type == KeywordNotFoundError.__name__
                    continue
                assert response.ok, response.error
                # Served answers are the oracle's own, cache or no cache.
                mine = oracle.engine.search(query, algorithm=algorithm, params=params)
                assert response.result.signatures() == mine.signatures()
                assert response.result.scores() == mine.scores()
            # SI-Backward shares exhaustive.py's answer model (one
            # shortest path per keyword per root).
            if expected:
                assert response.result.scores()[0] == expected[0].score


TestLineage = LineageMachine.TestCase
TestLineage.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None
)
