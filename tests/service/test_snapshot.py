"""Snapshot format: round-trip fidelity, versioning, corruption handling,
integrity (checksums, ``verify``) and the refusal of version-1 files."""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import KeywordSearchEngine
from repro.errors import SnapshotError
from repro.relational.database import Database
from repro.relational.schema import ForeignKey, Schema, Table
from repro.service.snapshot import (
    MAPPED_MAGIC,
    SNAPSHOT_VERSION,
    load_engine,
    load_snapshot,
    main,
    save_engine,
    save_snapshot,
    snapshot_info,
    verify_snapshot,
)

from tests.helpers import RawHTTP, pins, rewrite_snapshot

MODES = ("ram", "mapped")


@pytest.fixture
def toy_snapshot(toy_engine, tmp_path):
    path = tmp_path / "toy.snap"
    save_engine(path, toy_engine)
    return path


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_graph_structure_is_identical(self, toy_engine, toy_snapshot):
        graph, _ = load_snapshot(toy_snapshot)
        original = toy_engine.graph
        assert graph.num_nodes == original.num_nodes
        assert graph.num_forward_edges == original.num_forward_edges
        assert graph.num_edges == original.num_edges
        for node in original.nodes():
            # Edge *order* matters: search iteration order feeds
            # tie-breaking, so restored adjacency must match verbatim.
            assert graph.out_edges(node) == original.out_edges(node)
            assert graph.in_edges(node) == original.in_edges(node)
            assert graph.label(node) == original.label(node)
            assert graph.table(node) == original.table(node)
            assert graph.ref(node) == original.ref(node)
            assert graph.in_inv_weight_sum(node) == original.in_inv_weight_sum(node)
            assert graph.out_inv_weight_sum(node) == original.out_inv_weight_sum(node)

    def test_prestige_is_bit_identical(self, toy_engine, toy_snapshot):
        graph, _ = load_snapshot(toy_snapshot)
        np.testing.assert_array_equal(graph.prestige, toy_engine.graph.prestige)

    def test_index_answers_identically(self, toy_engine, toy_snapshot):
        _, index = load_snapshot(toy_snapshot)
        original = toy_engine.index
        assert index.vocabulary_size() == original.vocabulary_size()
        assert sorted(index.terms()) == sorted(original.terms())
        for term in original.terms():
            assert index.lookup(term) == original.lookup(term)
        # Relation-name matches survive too.
        assert index.lookup("paper") == original.lookup("paper")
        assert index.terms_by_frequency() == original.terms_by_frequency()

    def test_ref_lookup_and_pk_types_survive(self, toy_engine, toy_snapshot):
        graph, _ = load_snapshot(toy_snapshot)
        node = toy_engine.graph.node_by_ref("author", 1)
        assert graph.node_by_ref("author", 1) == node
        assert graph.ref(node) == ("author", 1)
        assert isinstance(graph.ref(node)[1], int)

    @pytest.mark.parametrize("algorithm", ["bidirectional", "si-backward", "mi-backward"])
    def test_topk_results_identical_per_algorithm(
        self, toy_engine, toy_snapshot, algorithm
    ):
        restored = load_engine(toy_snapshot)
        for query in ("gray transaction", "selinger vldb", '"jim gray" sigmod'):
            base = toy_engine.search(query, algorithm=algorithm, k=5)
            again = restored.search(query, algorithm=algorithm, k=5)
            assert again.scores() == base.scores()
            assert again.signatures() == base.signatures()
            assert [t.root for t in again.trees()] == [t.root for t in base.trees()]
            assert [t.paths for t in again.trees()] == [t.paths for t in base.trees()]

    def test_topk_identical_on_synthetic_dblp(self, dblp_small_engine, tmp_path):
        path = tmp_path / "dblp.snap"
        save_engine(path, dblp_small_engine)
        restored = load_engine(path)
        term, _ = dblp_small_engine.index.terms_by_frequency()[10]
        query = (term, "paper")
        base = dblp_small_engine.search(query, k=10)
        again = restored.search(query, k=10)
        assert again.scores() == base.scores()
        assert again.signatures() == base.signatures()

    def test_string_primary_keys(self, tmp_path):
        schema = Schema(
            tables=(
                Table("person", ("id", "name"), text_columns=("name",)),
                Table("likes", ("id", "who"), pk="id"),
            ),
            foreign_keys=(ForeignKey("likes", "who", "person"),),
        )
        db = Database(schema)
        db.insert_many("person", [{"id": "p1", "name": "Ada"}, {"id": "p2", "name": "Alan"}])
        db.insert_many("likes", [{"id": "l1", "who": "p1"}, {"id": "l2", "who": "p2"}])
        engine = KeywordSearchEngine.from_database(db)
        path = tmp_path / "str.snap"
        save_engine(path, engine)
        graph, _ = load_snapshot(path)
        node = graph.node_by_ref("person", "p1")
        assert graph.ref(node) == ("person", "p1")
        assert isinstance(graph.ref(node)[1], str)


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
class TestVersionAndDigest:
    """The live-update fields: epoch version + deterministic digest."""

    def test_default_version_and_digest_present(self, toy_snapshot):
        info = snapshot_info(toy_snapshot)
        assert info["dataset_version"] == 0
        assert isinstance(info["content_digest"], str)
        assert len(info["content_digest"]) == 64  # sha256 hex

    def test_digest_is_the_same_sha256_it_was_before_hashlib_went_lazy(self):
        """Pinned at commit 72ea61a over literal inputs (little-endian
        int64 ranges): a stored digest must keep matching a re-save."""
        from repro.service.snapshot import _ARRAY_NAMES, _TEXT_FIELDS, _content_digest

        meta = {
            "num_nodes": 2,
            "num_forward_edges": 1,
            **{field: [field, "é"] for field in _TEXT_FIELDS},
        }
        arrays = {
            name: np.arange(i, i + 3, dtype="<i8")
            for i, name in enumerate(_ARRAY_NAMES)
        }
        assert _content_digest(meta, arrays) == (
            "2688b60f8b45fdc6c65f48d70e118d1ef80375aeee1ca803d469967ce220fe30"
        )

    def test_explicit_version_round_trips(self, toy_engine, tmp_path):
        path = save_engine(tmp_path / "v7.snap", toy_engine, version=7)
        assert snapshot_info(path)["dataset_version"] == 7

    def test_digest_is_content_not_file_identity(self, toy_engine, tmp_path):
        """Two saves of the same state digest identically (the reload
        no-op depends on it), even across files and version stamps."""
        a = save_engine(tmp_path / "a.snap", toy_engine, version=1)
        b = save_engine(tmp_path / "b.snap", toy_engine, version=2)
        assert (
            snapshot_info(a)["content_digest"]
            == snapshot_info(b)["content_digest"]
        )

    def test_digest_changes_with_content(self, toy_engine, tmp_path):
        from repro.live import MutableDataset
        from repro.live.mutations import AddNode

        a = save_engine(tmp_path / "a.snap", toy_engine)
        dataset = MutableDataset.from_engine(toy_engine)
        dataset.mutate([AddNode(label="x", text="different now")])
        epoch = dataset.compact()
        b = save_snapshot(tmp_path / "b.snap", epoch.graph, epoch.index)
        assert (
            snapshot_info(a)["content_digest"]
            != snapshot_info(b)["content_digest"]
        )

    def test_cli_info_prints_version_and_digest(self, toy_engine, tmp_path, capsys):
        path = save_engine(tmp_path / "cli.snap", toy_engine, version=3)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dataset_version = 3" in out
        assert "content_digest = " in out


class TestFormat:
    def test_info(self, toy_engine, toy_snapshot):
        info = snapshot_info(toy_snapshot)
        assert info["version"] == SNAPSHOT_VERSION
        assert info["num_nodes"] == toy_engine.graph.num_nodes
        assert info["num_forward_edges"] == toy_engine.graph.num_forward_edges
        assert info["file_bytes"] > 0

    def test_save_returns_exact_path_no_npz_suffix(self, toy_engine, tmp_path):
        path = tmp_path / "plain-name-no-extension"
        written = save_engine(path, toy_engine)
        assert written == path
        assert path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            load_snapshot(tmp_path / "nope.snap")

    def test_default_output_is_the_page_aligned_layout(self, toy_snapshot, tmp_path):
        assert toy_snapshot.read_bytes().startswith(MAPPED_MAGIC)
        header = {}
        copy = rewrite_snapshot(
            toy_snapshot, tmp_path / "copy.snap", lambda h, a: header.update(h)
        )
        assert verify_snapshot(copy) == {
            **verify_snapshot(toy_snapshot), "file_bytes": copy.stat().st_size
        }
        for entry in header["arrays"].values():
            assert entry["offset"] % 4096 == 0
            assert isinstance(entry["crc32"], int)

    def test_there_is_no_format_to_choose(self, toy_engine, toy_snapshot, tmp_path):
        with pytest.raises(TypeError):
            save_snapshot(
                tmp_path / "x.snap", toy_engine.graph, toy_engine.index, format="mapped"
            )
        with pytest.raises(ValueError, match="unknown snapshot format"):
            save_engine(tmp_path / "x.snap", toy_engine, format="compressed")
        # The one value the frozen ledger still passes names the default.
        same = save_engine(tmp_path / "y.snap", toy_engine, format="mapped")
        assert same.read_bytes() == toy_snapshot.read_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_garbage_file(self, tmp_path, mode):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"this is not a snapshot")
        with pytest.raises(SnapshotError, match="not a repro-engine-snapshot file"):
            load_snapshot(path, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("keep", [0.5, 0.9])
    def test_truncated_file_fails_at_load(self, toy_snapshot, tmp_path, mode, keep):
        raw = toy_snapshot.read_bytes()
        truncated = tmp_path / "half.snap"
        truncated.write_bytes(raw[: int(len(raw) * keep)])
        with pytest.raises(SnapshotError, match="extends past the end"):
            load_snapshot(truncated, storage_mode=mode)

    def test_truncated_header(self, toy_snapshot, tmp_path):
        clipped = tmp_path / "clipped.snap"
        clipped.write_bytes(toy_snapshot.read_bytes()[:20])
        with pytest.raises(SnapshotError, match="truncated"):
            snapshot_info(clipped)

    def test_wrong_format_name(self, toy_snapshot, tmp_path):
        def edit(header, arrays):
            header["format"] = "something-else"

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "other.snap", edit)
        with pytest.raises(SnapshotError, match="is not a repro-engine-snapshot"):
            load_snapshot(bad)

    def test_future_version_rejected(self, toy_snapshot, tmp_path):
        def edit(header, arrays):
            header["version"] = SNAPSHOT_VERSION + 1

        future = rewrite_snapshot(toy_snapshot, tmp_path / "future.snap", edit)
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(future)

    def test_out_of_range_node_ids_rejected(self, toy_snapshot, tmp_path):
        def edit(header, arrays):
            arrays["out_dst"][0] = 10_000  # beyond num_nodes

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-ids.snap", edit)
        with pytest.raises(SnapshotError, match="out-of-range node ids"):
            load_snapshot(bad, storage_mode="ram")

    def test_negative_node_ids_rejected(self, toy_snapshot, tmp_path):
        def edit(header, arrays):
            arrays["in_src"][0] = -3  # would silently mis-index, not crash

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "neg-ids.snap", edit)
        with pytest.raises(SnapshotError, match="out-of-range node ids"):
            load_snapshot(bad, storage_mode="ram")

    @pytest.mark.parametrize("mode", MODES)
    def test_malformed_indptr_rejected(self, toy_snapshot, tmp_path, mode):
        def edit(header, arrays):
            arrays["out_indptr"] = arrays["out_indptr"][:-2]

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-indptr.snap", edit)
        with pytest.raises(SnapshotError, match="malformed out_indptr"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_forward_edge_count_disagreeing_with_arrays_rejected(
        self, toy_snapshot, tmp_path, mode
    ):
        """The header has no checksum: a forward-edge count that the
        adjacency arrays do not hold (23 over the toy's 18) must not
        load, or ``num_edges`` would misreport the graph."""

        def edit(header, arrays):
            header["num_forward_edges"] += 5

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-count.snap", edit)
        with pytest.raises(SnapshotError, match="inconsistent with its arrays"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_forward_edge_count_below_the_arrays_rejected(
        self, toy_snapshot, tmp_path, mode
    ):
        def edit(header, arrays):
            header["num_forward_edges"] -= 1

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "low-count.snap", edit)
        with pytest.raises(SnapshotError, match="inconsistent with its arrays"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_in_side_shorter_than_the_out_side_rejected(
        self, toy_snapshot, tmp_path, mode
    ):
        """A well-formed in-side CSR two entries short: the header's
        count matches ``out_dst`` but not ``in_src``."""

        def edit(header, arrays):
            for name in ("in_src", "in_weight", "in_fwd"):
                arrays[name] = arrays[name][:-2]
            arrays["in_indptr"] = np.minimum(
                arrays["in_indptr"], len(arrays["in_src"])
            )

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "short-in.snap", edit)
        with pytest.raises(SnapshotError, match="inconsistent with its arrays"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_node_count_disagreeing_with_prestige_rejected(
        self, toy_snapshot, tmp_path, mode
    ):
        def edit(header, arrays):
            header["num_nodes"] += 1

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-nodes.snap", edit)
        with pytest.raises(SnapshotError, match="inconsistent with its arrays"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("indptr", ["in_indptr", "rel_indptr"])
    def test_every_csr_indptr_is_checked(self, toy_snapshot, tmp_path, mode, indptr):
        def edit(header, arrays):
            arrays[indptr] = arrays[indptr][:-2]

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-indptr.snap", edit)
        with pytest.raises(SnapshotError, match=f"malformed {indptr}"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_corrupt_postings_indptr_rejected(self, toy_snapshot, tmp_path, mode):
        def edit(header, arrays):
            arrays["post_indptr"][1] = -4  # decreasing: would mis-slice silently

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-post.snap", edit)
        with pytest.raises(SnapshotError, match="malformed post_indptr"):
            load_snapshot(bad, storage_mode=mode)

    def test_corrupt_postings_node_ids_rejected(self, toy_snapshot, tmp_path):
        def edit(header, arrays):
            arrays["rel_nodes"][0] = 10_000

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-rel.snap", edit)
        with pytest.raises(SnapshotError, match="out-of-range node ids in rel_nodes"):
            load_snapshot(bad, storage_mode="ram")

    @pytest.mark.parametrize("mode", MODES)
    def test_corrupt_text_lengths_raise_snapshot_error(
        self, toy_snapshot, tmp_path, mode
    ):
        """The text block is decoded lazily, so its length check fires
        at the first label read — still as a SnapshotError."""

        def edit(header, arrays):
            text = json.loads(arrays["text_json"].tobytes())
            text["tables"] = text["tables"][:-1]  # one element short
            arrays["text_json"] = np.frombuffer(
                json.dumps(text).encode(), dtype=np.uint8
            )

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad-tables.snap", edit)
        graph, _ = load_snapshot(bad, storage_mode=mode)
        with pytest.raises(SnapshotError, match="text block is inconsistent"):
            graph.label(0)

    @pytest.mark.parametrize("mode", MODES)
    def test_missing_arrays_rejected(self, toy_snapshot, tmp_path, mode):
        def edit(header, arrays):
            del arrays["prestige"]

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "no-prestige.snap", edit)
        with pytest.raises(SnapshotError, match="missing arrays: prestige"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_header_without_checksums_rejected(self, toy_snapshot, tmp_path, mode):
        def edit(header, arrays):
            header["arrays"] = {
                name: {k: v for k, v in entry.items() if k != "crc32"}
                for name, entry in header["arrays"].items()
            }

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "no-crc.snap", edit)
        with pytest.raises(SnapshotError, match="malformed array-table entry"):
            load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("array", ["in_weight", "out_weight"])
    def test_header_naming_another_dtype_rejected(
        self, toy_snapshot, tmp_path, mode, array
    ):
        """Same item size, same bytes, same crc32 — only the reader's
        own name -> type table can tell float64 weights from int64 ones
        (which used to load in both tiers and score 4e-20)."""

        def edit(header, arrays):
            arrays[array] = arrays[array].view(np.int64)

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "retyped.snap", edit)
        with pytest.raises(
            SnapshotError, match=f"malformed array-table entry for {array}: .*int64"
        ):
            load_snapshot(bad, storage_mode=mode)
        with pytest.raises(SnapshotError, match=array):
            verify_snapshot(bad)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "field, value, complaint",
        [
            ("dtype", "complex128", "dtype 'complex128'"),
            ("dtype", ">f8", "dtype '>f8'"),
            ("dtype", None, "dtype None"),
            ("shape", [16, 1], "not one-dimensional"),
            ("shape", [], "not one-dimensional"),
            ("shape", 16, "not one-dimensional"),
            ("shape", ["16"], None),  # int("16") == 16: the right length, accepted
            ("shape", [None], "NoneType"),
            ("shape", [-16], "negative shape"),
        ],
    )
    def test_rewritten_table_entries_rejected(
        self, toy_snapshot, tmp_path, mode, field, value, complaint
    ):
        def edit(header, arrays):
            assert len(arrays["prestige"]) == 16
            table = header["arrays"]
            header["arrays"] = {
                **table, "prestige": {**table["prestige"], field: value}
            }

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "rewritten.snap", edit)
        if complaint is None:
            assert load_snapshot(bad, storage_mode=mode)[0].num_nodes == 16
        else:
            with pytest.raises(SnapshotError, match=f"prestige.*{complaint}"):
                load_snapshot(bad, storage_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_big_endian_host_refuses_to_reinterpret(
        self, toy_snapshot, mode, monkeypatch
    ):
        import types

        import repro.service.snapshot as module

        monkeypatch.setattr(module, "sys", types.SimpleNamespace(byteorder="big"))
        with pytest.raises(SnapshotError, match="little-endian"):
            load_snapshot(toy_snapshot, storage_mode=mode)

    def test_no_stale_tmp_file_left(self, toy_engine, tmp_path):
        path = tmp_path / "clean.snap"
        save_engine(path, toy_engine)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "clean.snap"]
        assert leftovers == []

    def test_load_engine_applies_params(self, toy_snapshot):
        from repro.core.params import SearchParams

        engine = load_engine(toy_snapshot, params=SearchParams(max_results=3))
        assert engine.params.max_results == 3
        result = engine.search("gray transaction")
        assert len(result.answers) <= 3


# ----------------------------------------------------------------------
# integrity: per-array checksums
# ----------------------------------------------------------------------
def flip_byte(path: Path, array: str, out: Path) -> Path:
    """Copy ``path`` to ``out`` with one byte of ``array``'s data page
    inverted and the header (checksums included) left as written."""

    def edit(header, arrays):
        arrays[array].view(np.uint8)[len(arrays[array].view(np.uint8)) // 2] ^= 0xFF

    return rewrite_snapshot(path, out, edit, fix_crc=False)


class TestIntegrity:
    @pytest.mark.parametrize(
        "array", ["out_dst", "in_weight", "prestige", "post_nodes", "text_json"]
    )
    def test_ram_load_names_the_damaged_array(self, toy_snapshot, tmp_path, array):
        bad = flip_byte(toy_snapshot, array, tmp_path / "flipped.snap")
        with pytest.raises(SnapshotError, match=f"array {array} fails its checksum"):
            load_snapshot(bad, storage_mode="ram")

    def test_mapped_load_reads_no_data_page(self, toy_snapshot, tmp_path):
        """The documented trade-off: header + bounds checks only."""
        bad = flip_byte(toy_snapshot, "out_weight", tmp_path / "flipped.snap")
        graph, _ = load_snapshot(bad, storage_mode="mapped")
        assert graph.num_nodes > 0

    def test_verify_accepts_a_good_file(self, toy_snapshot, capsys):
        info = verify_snapshot(toy_snapshot)
        assert info["content_digest"] == snapshot_info(toy_snapshot)["content_digest"]
        assert main(["verify", str(toy_snapshot)]) == 0
        assert capsys.readouterr().out.startswith("ok: ")

    def test_verify_names_the_damaged_array(self, toy_snapshot, tmp_path, capsys):
        bad = flip_byte(toy_snapshot, "in_src", tmp_path / "flipped.snap")
        with pytest.raises(SnapshotError, match="array in_src fails its checksum"):
            verify_snapshot(bad)
        assert main(["verify", str(bad)]) == 1
        assert "in_src" in capsys.readouterr().out

    def test_verify_checks_the_digest_end_to_end(self, toy_snapshot, tmp_path):
        """Valid checksums over different content: only the digest
        recomputed from the data can tell."""

        def edit(header, arrays):
            arrays["out_weight"][0] += 1.0

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "edited.snap", edit)
        load_snapshot(bad, storage_mode="ram")  # structurally fine
        with pytest.raises(SnapshotError, match="content_digest"):
            verify_snapshot(bad)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "column, ids",
        [
            ("out_weight", "out_dst"),
            ("out_fwd", "out_dst"),
            ("in_weight", "in_src"),
            ("in_fwd", "in_src"),
        ],
    )
    def test_a_short_column_is_refused_at_load(
        self, toy_snapshot, tmp_path, mode, column, ids
    ):
        """Three entries short with a matching crc32: ``zip`` used to cut
        the last rows short and the file loaded in both tiers."""

        def edit(header, arrays):
            arrays[column] = arrays[column][:-3]

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "short.snap", edit)
        complaint = f"array {column} has 33 entries, not the 36 of {ids}"
        with pytest.raises(SnapshotError, match=complaint):
            load_snapshot(bad, storage_mode=mode)
        with pytest.raises(SnapshotError, match=complaint):
            verify_snapshot(bad)


# ----------------------------------------------------------------------
# node-id range: every stored id of a ``ram`` load at load time, every
# materializing row of a ``mapped`` one at fault-in
# ----------------------------------------------------------------------
ID_ARRAYS = {
    "out_dst": "out_indptr",
    "in_src": "in_indptr",
    "post_nodes": "post_indptr",
    "rel_nodes": "rel_indptr",
}


def set_one_id(path: Path, array: str, value: int, out: Path, position: int = -1):
    """Copy ``path`` with one id of ``array`` replaced and every crc32
    recomputed, so only a range check can tell; returns the new file
    and the CSR row the id sits in."""
    rows = []

    def edit(header, arrays):
        ids, indptr = arrays[array], arrays[ID_ARRAYS[array]]
        ids[position] = value
        rows.append(int(np.searchsorted(indptr, position % len(ids), "right")) - 1)

    return rewrite_snapshot(path, out, edit), rows[0]


def fault_row(graph, index, array: str, row: int, terms: list) -> None:
    """Materialize the one row a search would read ``array``'s ``row`` from."""
    if array == "out_dst":
        graph.out_edges(row)
    elif array == "in_src":
        graph.in_edges(row)
    else:  # a posting row by its term; any lookup reads the relation rows
        index.lookup(terms[row] if array == "post_nodes" else "zzz-no-such-term")


#: The toy graph has 16 nodes: ``n`` itself and ``-1`` are the first ids
#: out of range at either end.
BAD_IDS = [16, -1]


class TestNodeIdRange:
    @pytest.mark.parametrize("array", ID_ARRAYS)
    @pytest.mark.parametrize("value", BAD_IDS)
    def test_ram_and_verify_name_the_array(self, toy_snapshot, tmp_path, array, value):
        path, _ = set_one_id(toy_snapshot, array, value, tmp_path / "bad.snap")
        expected = rf"out-of-range node ids in {array} \(expected \[0, 16\)\)"
        with pytest.raises(SnapshotError, match=expected):
            load_snapshot(path, storage_mode="ram")
        with pytest.raises(SnapshotError, match=expected):
            verify_snapshot(path)

    @pytest.mark.parametrize("array", ID_ARRAYS)
    @pytest.mark.parametrize("value", BAD_IDS)
    def test_mapped_loads_then_fails_at_the_faulted_row(
        self, toy_engine, toy_snapshot, tmp_path, array, value
    ):
        path, row = set_one_id(toy_snapshot, array, value, tmp_path / "bad.snap")
        with pins(0, 0):
            graph, index = load_snapshot(path, storage_mode="mapped")
        terms = sorted(toy_engine.index.terms())
        expected = rf"bad\.snap has out-of-range node ids in {array} row {row} "
        with pytest.raises(SnapshotError, match=expected):
            fault_row(graph, index, array, row, terms)

    @pytest.mark.parametrize("array", ["out_dst", "in_src", "post_nodes"])
    def test_pinned_rows_are_checked_at_load(self, toy_snapshot, tmp_path, array):
        """The toy's default pin set is every node and the 16 largest
        posting lists: the one damaged row is among them."""
        bad = tmp_path / "bad.snap"
        path, row = set_one_id(toy_snapshot, array, -1, bad, position=0)
        with pytest.raises(SnapshotError, match=f"{array} row {row} "):
            load_snapshot(path, storage_mode="mapped")

    def test_rows_beside_the_damaged_one_still_answer(
        self, toy_engine, toy_snapshot, tmp_path
    ):
        path, row = set_one_id(toy_snapshot, "out_dst", -1, tmp_path / "bad.snap")
        with pins(0, 0):
            graph, _ = load_snapshot(path, storage_mode="mapped")
        for node in range(row):
            assert graph.out_edges(node) == toy_engine.graph.out_edges(node)
        # Refused, not cached: a second read fails the same way.
        for _ in range(2):
            with pytest.raises(SnapshotError, match=f"out_dst row {row} "):
                graph.out_edges(row)

    def test_the_error_reaches_http_as_a_structured_response(
        self, toy_snapshot, tmp_path
    ):
        """A thread-tier server over a ``mapped`` file whose posting ids
        are all out of range: the first search that reads one answers a
        structured 500, and the server keeps serving."""
        import threading

        from repro.cluster.http import make_server
        from repro.service import QueryService

        def edit(header, arrays):
            arrays["post_nodes"][:] = 16

        bad = rewrite_snapshot(toy_snapshot, tmp_path / "bad.snap", edit)
        service = QueryService(storage_mode="mapped")
        with pins(0, 0):
            service.register_snapshot("toy", bad)
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with RawHTTP(server) as client:
                status, _, body = client.request(
                    "POST", "/search", {"dataset": "toy", "query": "gray transaction"}
                )
                assert status == 500
                reply = json.loads(body)
                assert reply["error_type"] == "SnapshotError"
                assert "out-of-range node ids in post_nodes row" in reply["error"]
                status, _, _ = client.request("GET", "/healthz")
                assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# version-1 files (the retired zip container): refused, by name
# ----------------------------------------------------------------------
class TestVersion1:
    @pytest.mark.parametrize("mode", MODES)
    def test_load_refuses_and_names_the_command(self, mode, tmp_path):
        old = tmp_path / "v1.snap"
        with zipfile.ZipFile(old, "w") as archive:
            archive.writestr("meta.npy", b"{}")
        with pytest.raises(SnapshotError, match="snapshot upgrade OLD NEW.*25ef7c5"):
            load_snapshot(old, storage_mode=mode)
