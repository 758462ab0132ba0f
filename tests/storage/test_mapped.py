"""The lazy load in both residency modes: parity, laziness, pinning, and
the load contract (O(pin set) materialisation; ``ram`` owns its bytes)."""

import os
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.params import SearchParams
from repro.errors import SnapshotError
from repro.service.snapshot import (
    MAPPED_MAGIC,
    SNAPSHOT_VERSION,
    load_engine,
    load_snapshot,
    main,
    save_engine,
    snapshot_info,
)
from repro.storage import MappedInvertedIndex, MappedSearchGraph
from tests.helpers import pins

MODES = ("ram", "mapped")


@pytest.fixture
def snapshot(toy_engine, tmp_path):
    path = tmp_path / "toy.snap"
    save_engine(path, toy_engine, version=5)
    return path


class TestFormat:
    def test_default_save_is_the_mapped_layout(self, snapshot):
        assert snapshot.read_bytes().startswith(MAPPED_MAGIC)
        info = snapshot_info(snapshot)
        assert info["version"] == SNAPSHOT_VERSION == 3
        assert info["dataset_version"] == 5

    def test_header_carries_pin_hints(self, snapshot):
        info = snapshot_info(snapshot)
        assert info["pin_hint_nodes"] > 0
        assert info["pin_hint_terms"] > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_truncated_file_fails_at_load(self, snapshot, tmp_path, mode):
        clipped = tmp_path / "clipped.snap"
        data = snapshot.read_bytes()
        clipped.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="truncated snapshot"):
            load_snapshot(clipped, storage_mode=mode)


class TestParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_loaded_rows_match_the_built_graph(self, toy_engine, snapshot, mode):
        graph, index = load_snapshot(snapshot, storage_mode=mode)
        assert isinstance(graph, MappedSearchGraph)
        assert isinstance(index, MappedInvertedIndex)
        assert graph.storage.mode == mode
        original = toy_engine.graph
        assert graph.num_nodes == original.num_nodes
        assert graph.num_edges == original.num_edges
        assert graph.num_forward_edges == original.num_forward_edges
        for node in original.nodes():
            # Edge order and float identity both matter (tie-breaking).
            assert graph.out_edges(node) == original.out_edges(node)
            assert graph.in_edges(node) == original.in_edges(node)
            assert graph.label(node) == original.label(node)
            assert graph.table(node) == original.table(node)
            assert graph.ref(node) == original.ref(node)
            assert graph.in_inv_weight_sum(node) == original.in_inv_weight_sum(node)
            assert graph.out_inv_weight_sum(node) == original.out_inv_weight_sum(node)
        np.testing.assert_array_equal(graph.prestige, original.prestige)
        for term in toy_engine.index.terms():
            assert index.lookup(term) == toy_engine.index.lookup(term)
        assert index.terms_by_frequency() == toy_engine.index.terms_by_frequency()

    def test_default_mode_is_mapped_and_auto_is_gone(self, snapshot, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOT_MODE", raising=False)
        graph, _ = load_snapshot(snapshot)
        assert graph.storage.mode == "mapped"
        with pytest.raises(ValueError, match="unknown storage mode"):
            load_snapshot(snapshot, storage_mode="auto")

    def test_environment_hook_steers_default_loads(self, snapshot, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_MODE", "ram")
        graph, _ = load_snapshot(snapshot)
        assert graph.storage.mode == "ram"
        assert graph.storage.mapped_bytes == 0

    @pytest.mark.parametrize("pin_set", ["default-pins", "no-pins"])
    @pytest.mark.parametrize(
        "algorithm", ["bidirectional", "si-backward", "mi-backward"]
    )
    def test_search_results_identical_per_algorithm(
        self, toy_engine, snapshot, algorithm, pin_set
    ):
        # Pinned rows are faulted in at load, the rest on first touch:
        # which rows are pinned must not matter either.
        with pins(0, 0) if pin_set == "no-pins" else nullcontext():
            mapped = load_engine(snapshot, storage_mode="mapped")
            ram = load_engine(snapshot, storage_mode="ram")
        params = SearchParams(max_results=5)
        for query in ("gray transaction", "selinger vldb", '"jim gray" sigmod'):
            built = toy_engine.search(query, algorithm=algorithm, params=params)
            for engine in (ram, mapped):
                loaded = engine.search(query, algorithm=algorithm, params=params)
                assert loaded.scores() == built.scores()
                assert loaded.signatures() == built.signatures()


@pytest.mark.parametrize("mode", MODES)
class TestLaziness:
    def test_structural_reads_fault_nothing(self, snapshot, mode):
        with pins(0, 0):
            graph, index = load_snapshot(snapshot, storage_mode=mode)
        stats = graph.storage
        assert (stats.row_faults, stats.posting_faults) == (0, 0)
        # num_edges / num_nodes / labels come from resident metadata.
        assert graph.num_edges > 0
        assert graph.num_nodes > 0
        assert graph.label(0) is not None
        assert index.vocabulary_size() > 0
        assert (stats.row_faults, stats.posting_faults) == (0, 0)

    def test_compact_nbytes_measures_the_mapped_columns(self, snapshot, mode):
        with pins(0, 0):
            graph, _ = load_snapshot(snapshot, storage_mode=mode)
        # Per combined edge and direction: int32 id, float64 weight,
        # uint8 flag; per node: two float64 normalizers.  Read off the
        # views' sizes, so nothing faults.
        assert graph.compact_nbytes() == 26 * graph.num_edges + 16 * graph.num_nodes
        assert graph.storage.row_faults == 0

    def test_demand_faults_are_counted_once_per_row(self, snapshot, mode):
        with pins(0, 0):
            graph, index = load_snapshot(snapshot, storage_mode=mode)
        stats = graph.storage
        graph.out_edges(0)
        graph.out_edges(0)  # cached: no second fault
        assert stats.row_faults == 1
        term = next(iter(index.terms()))
        index.lookup(term)
        index.lookup(term)
        assert stats.posting_faults >= 1
        first = stats.posting_faults
        index.lookup(term)
        assert stats.posting_faults == first

    def test_load_materialises_no_more_than_the_pin_set(
        self, dblp_small_engine, tmp_path, mode
    ):
        """The load contract: O(header + pin set) Python objects, in
        either mode — not one adjacency row or posting list more."""
        path = save_engine(tmp_path / "dblp.snap", dblp_small_engine)
        with pins(5, 3):
            graph, index = load_snapshot(path, storage_mode=mode)
        stats = graph.storage
        # Union of top-5 by prestige and top-5 by degree.
        assert 5 <= stats.pinned_nodes <= 10 < graph.num_nodes
        assert stats.pinned_terms == 3 < index.vocabulary_size()
        assert len(graph._out._rows) == stats.pinned_nodes
        assert len(graph._in._rows) == stats.pinned_nodes
        assert len(index._postings._by_index) == stats.pinned_terms
        # No text section decoded; the row bounds stay the file's views.
        text = (graph._labels, graph._tables, graph._refs, index._rel_terms)
        assert all(section._items is None for section in (*text, index._postings._terms))
        assert all(type(side._bounds) is memoryview for side in (graph._out, graph._in))
        assert stats.resident_bytes == stats.pinned_bytes
        assert (stats.row_faults, stats.posting_faults) == (0, 0)

    def test_mapped_bytes_counts_only_what_is_memory_mapped(self, snapshot, mode):
        with pins(0, 0):
            graph, _ = load_snapshot(snapshot, storage_mode=mode)
        if mode == "mapped":
            assert 0 < graph.storage.mapped_bytes <= snapshot.stat().st_size
        else:
            assert graph.storage.mapped_bytes == 0


@pytest.mark.parametrize("mode", MODES)
class TestPinning:
    def test_default_policy_pins_and_zeroes_fault_counters(self, snapshot, mode):
        graph, _ = load_snapshot(snapshot, storage_mode=mode)
        stats = graph.storage
        assert stats.pinned_nodes > 0
        assert stats.pinned_terms > 0
        assert stats.pinned_bytes > 0
        # Post-pin counters measure demand misses, not the warmup.
        assert (stats.row_faults, stats.posting_faults) == (0, 0)

    def test_pinned_rows_do_not_refault(self, snapshot, mode):
        with pins(10_000, 10_000):
            graph, _ = load_snapshot(snapshot, storage_mode=mode)
        stats = graph.storage
        for node in graph.nodes():
            graph.out_edges(node)
            graph.in_edges(node)
        assert stats.row_faults == 0

    def test_with_prestige_shares_lazy_state(self, snapshot, mode):
        graph, _ = load_snapshot(snapshot, storage_mode=mode)
        rescored = graph.with_prestige(np.zeros(graph.num_nodes))
        assert isinstance(rescored, MappedSearchGraph)
        assert rescored.storage is graph.storage
        assert rescored.num_edges == graph.num_edges
        assert rescored.out_edges(0) == graph.out_edges(0)


class TestRamOwnsItsBytes:
    """``ram`` reads the file once; what happens to the file afterwards
    cannot reach a loaded engine."""

    QUERIES = ("gray transaction", "selinger vldb", '"jim gray" sigmod')

    def answers(self, engine):
        return [
            (r.scores(), r.signatures())
            for r in (engine.search(q, k=5) for q in self.QUERIES)
        ]

    def test_answers_survive_truncation(self, toy_engine, snapshot):
        expected = self.answers(toy_engine)
        with pins(0, 0):
            engine = load_engine(snapshot, storage_mode="ram")
        os.truncate(snapshot, 100)
        assert self.answers(engine) == expected  # rows fault in from memory
        with pytest.raises(SnapshotError):  # a *new* load sees the damage
            load_engine(snapshot, storage_mode="ram")

    def test_answers_survive_unlink(self, toy_engine, snapshot):
        expected = self.answers(toy_engine)
        with pins(0, 0):
            engine = load_engine(snapshot, storage_mode="ram")
        snapshot.unlink()
        assert self.answers(engine) == expected
        assert engine.graph.label(0) == toy_engine.graph.label(0)  # text block too


class TestReadOnlyIndex:
    @pytest.mark.parametrize("mode", MODES)
    def test_mutations_raise_type_error(self, snapshot, mode):
        _, index = load_snapshot(snapshot, storage_mode=mode)
        with pytest.raises(TypeError, match="read-only"):
            index.add_text(0, "new text")
        with pytest.raises(TypeError, match="read-only"):
            index.add_term("term", 0)
        with pytest.raises(TypeError, match="read-only"):
            index.add_relation_node("paper", 0)


class TestCli:
    def test_info_prints_version_and_pins(self, snapshot, capsys):
        assert main(["info", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "pin_hint_nodes = " in out
        assert f"version = {SNAPSHOT_VERSION}" in out

    def test_save_writes_the_one_layout(self, tmp_path, capsys):
        path = tmp_path / "cli.snap"
        assert main(["save", "dblp", str(path), "--scale", "0.2"]) == 0
        assert path.read_bytes().startswith(MAPPED_MAGIC)
        assert "wrote" in capsys.readouterr().out
