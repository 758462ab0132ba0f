"""The snapshot writer packs with ``array`` and writes what numpy wrote.

``oracle_save`` below is the writer as it stood at commit 362dfd4 —
per-element ndarray stores, ``ascontiguousarray`` buffers, a stable
``argsort`` for the pin hints — kept here, where numpy is welcome, as
the reference, with its one JSON text blob split into the per-field
sections of format version 3.  The writer in ``repro.service.snapshot`` imports no
numpy; for every graph these tests can think of it must produce the
same file, byte for byte: same header (array table, ``crc32``s,
``content_digest``, ``pin_hints``), same data pages.
"""

import hashlib
import json
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.datasets import DblpConfig, make_dblp
from repro.graph.digraph import DataGraph
from repro.index.inverted import InvertedIndex
from repro.service.snapshot import (
    load_snapshot,
    save_snapshot,
    verify_snapshot,
)
from repro.service.snapshot_header import (
    MAPPED_MAGIC,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    _align,
    _read_header,
)

TEXT_FIELDS = ("labels", "tables", "refs", "post_terms", "rel_terms")
ARRAY_NAMES = (
    "out_indptr", "out_dst", "out_weight", "out_fwd",
    "in_indptr", "in_src", "in_weight", "in_fwd",
    "prestige", "in_invw", "out_invw",
    "post_indptr", "post_nodes", "rel_indptr", "rel_nodes",
)


# ----------------------------------------------------------------------
# the oracle: repro.service.snapshot's save half at 362dfd4
# ----------------------------------------------------------------------
def _oracle_pack_adjacency(adjacency):
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    total = sum(len(edges) for edges in adjacency)
    dst = np.zeros(total, dtype=np.int32)
    weight = np.zeros(total, dtype=np.float64)
    fwd = np.zeros(total, dtype=np.uint8)
    pos = 0
    for u, edges in enumerate(adjacency):
        indptr[u] = pos
        for v, w, is_forward in edges:
            dst[pos] = v
            weight[pos] = w
            fwd[pos] = 1 if is_forward else 0
            pos += 1
    indptr[len(adjacency)] = pos
    return indptr, dst, weight, fwd


def _oracle_pack_postings(postings):
    terms = sorted(postings)
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    total = sum(len(postings[term]) for term in terms)
    nodes = np.zeros(total, dtype=np.int32)
    pos = 0
    for i, term in enumerate(terms):
        indptr[i] = pos
        for node in sorted(postings[term]):
            nodes[pos] = node
            pos += 1
    indptr[len(terms)] = pos
    return terms, indptr, nodes


def _oracle_pack_state(graph, index, version):
    out_indptr, out_dst, out_weight, out_fwd = _oracle_pack_adjacency(graph._out)
    in_indptr, in_src, in_weight, in_fwd = _oracle_pack_adjacency(graph._in)
    postings, relation_nodes = index._export_postings()
    post_terms, post_indptr, post_nodes = _oracle_pack_postings(postings)
    rel_terms, rel_indptr, rel_nodes = _oracle_pack_postings(relation_nodes)
    refs = []
    for node in graph.nodes():
        ref = graph.ref(node)
        refs.append(
            None if ref is None
            else [ref[0], "i" if isinstance(ref[1], int) else "s", ref[1]]
        )
    meta = {
        "format": SNAPSHOT_FORMAT,
        "num_nodes": graph.num_nodes,
        "num_forward_edges": graph.num_forward_edges,
        "labels": list(graph._labels),
        "tables": list(graph._tables),
        "refs": refs,
        "post_terms": post_terms,
        "rel_terms": rel_terms,
        "dataset_version": int(version),
    }
    arrays = {
        "out_indptr": out_indptr, "out_dst": out_dst,
        "out_weight": out_weight, "out_fwd": out_fwd,
        "in_indptr": in_indptr, "in_src": in_src,
        "in_weight": in_weight, "in_fwd": in_fwd,
        "prestige": np.asarray(graph.prestige, dtype=np.float64),
        "in_invw": np.asarray(graph._in_inv_weight_sum, dtype=np.float64),
        "out_invw": np.asarray(graph._out_inv_weight_sum, dtype=np.float64),
        "post_indptr": post_indptr, "post_nodes": post_nodes,
        "rel_indptr": rel_indptr, "rel_nodes": rel_nodes,
    }
    hasher = hashlib.sha256()
    for field in ("num_nodes", "num_forward_edges", *TEXT_FIELDS):
        hasher.update(field.encode("utf-8"))
        hasher.update(json.dumps(meta[field], ensure_ascii=False).encode("utf-8"))
    for name in sorted(ARRAY_NAMES):
        hasher.update(name.encode("utf-8"))
        hasher.update(arrays[name].tobytes())
    meta["content_digest"] = hasher.hexdigest()
    return meta, arrays


def _oracle_pin_hints(meta, arrays):
    prestige = arrays["prestige"]
    top_nodes = (-prestige).argsort(kind="stable")[: min(32, len(prestige))]
    post_indptr = arrays["post_indptr"]
    freq = (post_indptr[1:] - post_indptr[:-1]).tolist()
    terms = meta["post_terms"]
    ranked = sorted(range(len(terms)), key=lambda i: (-freq[i], terms[i]))
    return {
        "nodes": [int(u) for u in top_nodes],
        "terms": [terms[i] for i in ranked[:16]],
    }


def oracle_save(path, graph, index, *, version=0) -> Path:
    meta, arrays = _oracle_pack_state(graph, index, version)
    contiguous = {name: np.ascontiguousarray(arrays[name]) for name in ARRAY_NAMES}
    for field in TEXT_FIELDS:
        section = json.dumps(meta[field], ensure_ascii=False).encode("utf-8")
        contiguous[field] = np.frombuffer(section, dtype=np.uint8)
    table = {}
    offset = 0
    for name, arr in contiguous.items():
        table[name] = {
            "offset": offset,
            "dtype": str(arr.dtype),
            "shape": [int(dim) for dim in arr.shape],
            "crc32": zlib.crc32(arr.data),
        }
        offset = _align(offset + arr.nbytes)
    header = {key: value for key, value in meta.items() if key not in TEXT_FIELDS}
    header["version"] = SNAPSHOT_VERSION
    header["index_terms"] = len(meta["post_terms"])
    header["relation_terms"] = len(meta["rel_terms"])
    header["arrays"] = table
    header["pin_hints"] = _oracle_pin_hints(meta, arrays)
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    data_start = _align(len(MAPPED_MAGIC) + 8 + len(header_bytes))
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAPPED_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, arr in contiguous.items():
            if arr.nbytes:
                fh.seek(data_start + table[name]["offset"])
                fh.write(arr.data)
    return path


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def assert_writes_what_the_oracle_wrote(directory, graph, index, *, version=0):
    """Same bytes; and, so a mismatch reads as more than a length, the
    header fields one by one first.  Returns the written path."""
    directory = Path(directory)
    written = save_snapshot(directory / "new.snap", graph, index, version=version)
    expected = oracle_save(directory / "oracle.snap", graph, index, version=version)
    header, data_start = _read_header(written)
    oracle_header, oracle_data_start = _read_header(expected)
    assert header["content_digest"] == oracle_header["content_digest"]
    assert header["pin_hints"] == oracle_header["pin_hints"]
    assert list(header["arrays"]) == list(oracle_header["arrays"])
    for name, entry in header["arrays"].items():
        assert entry == oracle_header["arrays"][name], name
    assert header == oracle_header and data_start == oracle_data_start
    assert written.read_bytes() == expected.read_bytes()
    assert not list(directory.glob("*.tmp*"))  # the atomic rename's leftovers

    info = verify_snapshot(written)  # every checksum, every id, the digest
    assert info["content_digest"] == header["content_digest"]
    assert info["dataset_version"] == version
    for mode in ("ram", "mapped"):
        loaded_graph, loaded_index = load_snapshot(written, storage_mode=mode)
        assert loaded_graph.prestige_values == graph.prestige_values
        for u in range(graph.num_nodes):
            assert loaded_graph.out_edges(u) == tuple(graph.out_edges(u))
            assert loaded_graph.in_edges(u) == tuple(graph.in_edges(u))
            assert loaded_graph.label(u) == graph.label(u)
            assert loaded_graph.ref(u) == graph.ref(u)
        assert loaded_index._export_postings() == tuple(
            {term: set(nodes) for term, nodes in side.items()}
            for side in index._export_postings()
        )
    return written


def test_toy_engine(toy_engine, tmp_path):
    assert_writes_what_the_oracle_wrote(
        tmp_path, toy_engine.graph, toy_engine.index, version=7
    )


def test_small_dblp(tmp_path):
    engine = KeywordSearchEngine.from_database(make_dblp(DblpConfig().scaled(0.1)))
    written = assert_writes_what_the_oracle_wrote(tmp_path, engine.graph, engine.index)
    # More than 32 nodes and 16 terms: the hints are a proper prefix.
    hints = _read_header(written)[0]["pin_hints"]
    assert (len(hints["nodes"]), len(hints["terms"])) == (32, 16)


def test_a_resaved_mapped_graph(toy_engine, tmp_path):
    """A loaded graph's normalizers are ``memoryview``s and its rows
    fault in as the packer walks them: same file again."""
    first = save_snapshot(tmp_path / "first.snap", toy_engine.graph, toy_engine.index)
    for mode in ("ram", "mapped"):
        graph, index = load_snapshot(first, storage_mode=mode)
        again = assert_writes_what_the_oracle_wrote(tmp_path, graph, index)
        assert again.read_bytes() == first.read_bytes()


def test_a_compacted_overlay(toy_engine, tmp_path):
    """What ``QueryService.save_snapshot`` writes for a live dataset:
    ``compact()``, then the folded state through the same writer."""
    from repro.live import MutableDataset
    from repro.service import QueryService

    dataset = MutableDataset.from_engine(toy_engine, compact_ratio=None)
    dataset.mutate(
        [
            {"op": "add_node", "label": "Zyzzqx Sÿstems", "table": "paper",
             "ref": ["paper", "zx-1"], "text": "Zyzzqx Sÿstems"},
            {"op": "add_edge", "u": -1, "v": 3},
            {"op": "update_text", "node": 0, "text": "Jim Gray Qwertz"},
        ]
    )
    path = tmp_path / "live.snap"
    with QueryService() as service:
        service.register_mutable("live", dataset)
        service.save_snapshot("live", path)
    epoch = dataset.epoch
    assert epoch.compacted
    written = assert_writes_what_the_oracle_wrote(
        tmp_path, epoch.graph, epoch.index, version=epoch.version
    )
    assert written.read_bytes() == path.read_bytes()


@st.composite
def small_states(draw):
    """Up to 12 nodes with non-ASCII labels, int and str keys, four
    prestige levels (ties everywhere), rows without edges — or no edge
    at all — and anything from zero postings up."""
    n = draw(st.integers(min_value=0, max_value=12))
    text = st.text(alphabet="aé字ß \"\\", min_size=0, max_size=6)
    dg = DataGraph()
    for _ in range(n):
        table = draw(st.sampled_from([None, "paper", "autor_é"]))
        key = draw(st.one_of(st.integers(-5, 10**12), text))
        dg.add_node(draw(text), table=table, ref=None if table is None else (table, key))
    if n >= 2:
        for u, v, w in draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
                ),
                max_size=3 * n,
            )
        ):
            if u != v:
                dg.add_edge(u, v, w)  # parallel edges allowed
    levels = draw(
        st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=n, max_size=n)
    )
    graph = dg.freeze(prestige=levels)
    index = InvertedIndex()
    if n:
        node = st.integers(0, n - 1)
        for term, nodes in draw(
            st.dictionaries(st.sampled_from("abcdeé字"), st.sets(node, min_size=1), max_size=5)
        ).items():
            for u in nodes:
                index.add_term(u, term)
        for relation, nodes in draw(
            st.dictionaries(st.sampled_from(["paper", "autor"]), st.sets(node, min_size=1))
        ).items():
            for u in nodes:
                index.add_relation_node(relation, u)
    return graph, index


@given(state=small_states(), version=st.integers(min_value=0, max_value=2**40))
@settings(max_examples=60, deadline=None)
def test_small_graphs(state, version):
    graph, index = state
    with tempfile.TemporaryDirectory() as tmp:
        assert_writes_what_the_oracle_wrote(tmp, graph, index, version=version)


def test_an_id_past_int32_is_refused_not_wrapped(tmp_path):
    """``array('i')`` raises where an ndarray store raised (numpy 2) or
    wrapped (numpy 1): nothing is written either way."""
    dg = DataGraph()
    dg.add_node("a")
    index = InvertedIndex()
    index.add_term(2**31, "far")
    with pytest.raises(OverflowError):
        save_snapshot(tmp_path / "far.snap", dg.freeze(), index)
    assert os.listdir(tmp_path) == []
