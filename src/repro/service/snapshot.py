"""Versioned disk snapshots of built engine state (EMBANKS direction).

Building an engine from a database does three expensive things — graph
construction, biased-PageRank prestige and inverted-index construction.
EMBANKS (Gupta & Sudarshan) argues that disk-resident graph/index state
is what makes BANKS deployments restart-friendly; this module is that
idea for the service layer: one self-describing file holding the frozen
:class:`~repro.graph.SearchGraph` (both adjacency sides, in original
edge order), its prestige vector and the
:class:`~repro.index.InvertedIndex`, so a warm start skips
``KeywordSearchEngine.from_database`` entirely.

**One layout (format version 3).**  A magic preamble, one *small* JSON
header (counts, digest, save-time pin hints and an array table of
``{offset, dtype, shape, crc32}`` — O(1) in dataset size), then each
array's raw C-contiguous bytes at a 4096-aligned offset:

* ``out_indptr``/``out_dst``/``out_weight``/``out_fwd`` and the ``in_*``
  equivalents: CSR-shaped combined adjacency, weights as float64 so a
  restored graph scores answers bit-identically.
* ``prestige``, ``in_invw``, ``out_invw``: float64 per node — prestige
  plus the two activation normalizers, stored (not recomputed) so the
  restored values match the builder's summation bit for bit.
* ``post_indptr``/``post_nodes`` and ``rel_indptr``/``rel_nodes``:
  concatenated postings per index term (sorted node ids; postings are
  sets, so order carries no meaning).
* ``labels``, ``tables``, ``refs``, ``post_terms``, ``rel_terms``: the
  O(n) text metadata, one JSON list per field, each left undecoded
  until its first read: a term lookup decodes the two vocabularies,
  ``label()`` the labels, and no search reads a node's label, table or
  ref.

**Two residency modes** (``storage_mode``, env hook
``REPRO_SNAPSHOT_MODE``) serve that one layout through the same lazy
:class:`~repro.storage.MappedSearchGraph` /
:class:`~repro.storage.MappedInvertedIndex` pair and the same pin
policy, so every load is O(header + pin set) of Python objects (the
four indptr arrays stay typed views, checked in place) and the modes
differ only in where the bytes live: ``mapped`` (the default)
leaves them in the file behind one ``mmap`` — paged in on demand,
shared physically across worker processes, every row's node ids
range-checked as it faults in; ``ram`` reads them once into process
memory, verifying every array's checksum and every node id on the way,
and never touches the file again.  Either way the arrays are
``memoryview`` casts of that one buffer, and the writer packs them with
``array``: saving, loading (in both modes), verifying and serving the
per-pop schedule import no numpy (the array consumers do).
``docs/STORAGE.md`` documents the layout and the trade-offs.

Version-1 files (the retired zip container) are not read at all: a
loader that meets one raises an error naming the last commit whose
``snapshot upgrade`` converts it.

No pickle anywhere — the header is plain JSON and the arrays are raw
bytes — so loading a snapshot executes no code from the file.
Incompatible or corrupt files raise
:class:`~repro.errors.SnapshotError`.  Snapshots capture frozen state:
they are written once and never invalidated (rebuild and re-save to
pick up new data), mirroring the engine's own "index is frozen"
contract.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from itertools import accumulate, chain
from operator import sub
from pathlib import Path
from typing import Optional, Union

from repro.errors import SnapshotError
from repro.graph.searchgraph import SearchGraph
from repro.index.inverted import InvertedIndex
from repro.service.snapshot_header import (
    MAPPED_ALIGNMENT,  # noqa: F401 - the layout's constants stay importable here
    MAPPED_MAGIC,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    _align,
    _read_header,
    snapshot_info,
)
from repro.storage.stats import StorageStats, resolve_storage_mode

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "save_snapshot",
    "load_snapshot",
    "save_engine",
    "load_engine",
    "snapshot_info",
    "verify_snapshot",
]

#: Every data array of the format, in on-disk order, with the code the
#: writer types it with (``array``) and the reader carves it with
#: (``memoryview.cast``; ``?`` reads a uint8 edge flag straight into a
#: Python bool).
_ARRAY_CODES = dict(
    out_indptr="q", out_dst="i", out_weight="d", out_fwd="?",
    in_indptr="q", in_src="i", in_weight="d", in_fwd="?",
    prestige="d", in_invw="d", out_invw="d",
    post_indptr="q", post_nodes="i", rel_indptr="q", rel_nodes="i",
    labels="B", tables="B", refs="B", post_terms="B", rel_terms="B",
)

#: The dtype an array-table entry names, and must name, for each code.
_CODE_DTYPES = {"q": "int64", "i": "int32", "d": "float64", "?": "uint8", "B": "uint8"}

#: Text metadata fields, each stored as a JSON data section rather than
#: in the header, with the header count its length must equal.
_TEXT_FIELDS = dict(
    labels="num_nodes", tables="num_nodes", refs="num_nodes",
    post_terms="index_terms", rel_terms="relation_terms",
)

#: The numeric arrays (everything but the text sections).
_ARRAY_NAMES = tuple(name for name in _ARRAY_CODES if name not in _TEXT_FIELDS)


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _bounds(rows):
    """CSR row bounds: the running total of the row lengths."""
    return accumulate(map(len, rows), initial=0)


def _pack_adjacency(adjacency, side: str, ids: str) -> dict:
    """One adjacency side's four columns, edges in row order."""
    edges = list(chain.from_iterable(adjacency))
    return {
        f"{side}_indptr": _bounds(adjacency),
        f"{side}_{ids}": [neighbour for neighbour, _, _ in edges],
        f"{side}_weight": [weight for _, weight, _ in edges],
        f"{side}_fwd": [forward for _, _, forward in edges],
    }


def _pack_postings(postings, kind: str) -> tuple[list[str], dict]:
    terms = sorted(postings)
    rows = [sorted(postings[term]) for term in terms]
    return terms, {
        f"{kind}_indptr": _bounds(rows),
        f"{kind}_nodes": chain.from_iterable(rows),
    }


def _encode_refs(graph: SearchGraph) -> list:
    refs = []
    for node in graph.nodes():
        ref = graph.ref(node)
        if ref is None:
            refs.append(None)
            continue
        table, pk = ref
        if not isinstance(pk, (int, str)):
            raise SnapshotError(
                f"node {node} has non-serializable primary key {pk!r} "
                f"(snapshot format v{SNAPSHOT_VERSION} supports int and str keys)"
            )
        # Tag the pk type so int keys don't come back as strings.
        refs.append([table, "i" if isinstance(pk, int) else "s", pk])
    return refs


def _content_digest(meta: dict, arrays: dict) -> str:
    """Deterministic sha256 over the snapshot's logical content.

    Computed from the packed arrays and text metadata, **not** the file
    bytes, so snapshots of the same dataset state digest identically
    across machines, runs and format versions — what lets a worker
    reload no-op when it already holds the epoch.  The
    ``dataset_version`` field is deliberately excluded: version is
    provenance, digest is content.
    """
    import hashlib  # save-time only: keeps OpenSSL out of serving processes

    hasher = hashlib.sha256()
    for field in ("num_nodes", "num_forward_edges", *_TEXT_FIELDS):
        hasher.update(field.encode("utf-8"))
        hasher.update(json.dumps(meta[field], ensure_ascii=False).encode("utf-8"))
    for name in sorted(_ARRAY_NAMES):
        hasher.update(name.encode("utf-8"))
        hasher.update(arrays[name].tobytes())
    return hasher.hexdigest()


def _pack_state(
    graph: SearchGraph, index: InvertedIndex, version: int
) -> tuple[dict, dict]:
    """Pack graph + index into the format's (meta, arrays) pair, with
    the content digest already stamped into meta."""
    postings, relation_nodes = index._export_postings()
    post_terms, post_columns = _pack_postings(postings, "post")
    rel_terms, rel_columns = _pack_postings(relation_nodes, "rel")

    meta = {
        "format": SNAPSHOT_FORMAT,
        "num_nodes": graph.num_nodes,
        "num_forward_edges": graph.num_forward_edges,
        "labels": list(graph._labels),
        "tables": list(graph._tables),
        "refs": _encode_refs(graph),
        "post_terms": post_terms,
        "rel_terms": rel_terms,
        "dataset_version": int(version),
    }
    columns = {
        **_pack_adjacency(graph._out, "out", "dst"),
        **_pack_adjacency(graph._in, "in", "src"),
        "prestige": graph.prestige_values,
        "in_invw": graph._in_inv_weight_sum,
        "out_invw": graph._out_inv_weight_sum,
        **post_columns,
        **rel_columns,
    }
    # Typed with the codes the reader casts back with; ``array`` has no
    # bool code, so an edge flag is written as the byte ``?`` reads.
    arrays = {
        name: array(_ARRAY_CODES[name].replace("?", "B"), values)
        for name, values in columns.items()
    }
    meta["content_digest"] = _content_digest(meta, arrays)
    return meta, arrays


def _pin_hints(meta: dict, arrays: dict) -> dict:
    """Save-time pin hints stamped into the header.

    A small sample of the hottest rows (top prestige nodes, largest
    posting lists) — enough for ``snapshot info`` to summarize the pin
    set without touching a single data array, and for operators to see
    *what* a replica pins.  The load-time
    :func:`~repro.storage.apply_pin_policy` recomputes the full set from
    the resident indptr/prestige arrays; the hints are advisory.
    """
    from repro.storage.mapped import _top

    post_indptr = arrays["post_indptr"]
    freq = list(map(sub, post_indptr[1:], post_indptr))
    terms = meta["post_terms"]  # sorted: ties by row are ties by term
    return {
        "nodes": _top(32, arrays["prestige"]),
        "terms": [terms[i] for i in _top(16, freq)],
    }


def _write_snapshot(path: Path, meta: dict, arrays: dict) -> Path:
    """Write the page-aligned layout atomically.

    The tmp name embeds the pid so concurrent writers (processes saving
    to one path) never clobber each other's partial writes.  The header
    carries only O(1) state (counts, digest, array table, pin hints);
    the O(n) text metadata goes into one JSON data section per field,
    so a load decodes each field only when something first reads it.
    Every array's ``crc32`` goes into its table entry: the
    eager (``ram``) read and ``snapshot verify`` check it, so a damaged
    data page is named at load instead of mis-answering a query.
    """
    buffers = {name: arrays[name] for name in _ARRAY_NAMES}
    for field in _TEXT_FIELDS:
        buffers[field] = json.dumps(meta[field], ensure_ascii=False).encode("utf-8")
    table = {}
    offset = 0
    for name, buf in buffers.items():
        table[name] = {
            "offset": offset,
            "dtype": _CODE_DTYPES[_ARRAY_CODES[name]],
            "shape": [len(buf)],
            "crc32": zlib.crc32(buf),
        }
        offset = _align(offset + memoryview(buf).nbytes)
    header = {
        key: value for key, value in meta.items() if key not in _TEXT_FIELDS
    }
    header["version"] = SNAPSHOT_VERSION
    header["index_terms"] = len(meta["post_terms"])
    header["relation_terms"] = len(meta["rel_terms"])
    header["arrays"] = table
    header["pin_hints"] = _pin_hints(meta, arrays)
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    data_start = _align(len(MAPPED_MAGIC) + 8 + len(header_bytes))

    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(MAPPED_MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for name, buf in buffers.items():
                if buf:
                    fh.seek(data_start + table[name]["offset"])
                    fh.write(buf)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise SnapshotError(f"cannot write snapshot to {path}: {exc}") from exc
    return path


def save_snapshot(
    path: Union[str, os.PathLike],
    graph: SearchGraph,
    index: InvertedIndex,
    *,
    version: int = 0,
) -> Path:
    """Serialize ``graph`` + ``index`` (+ prestige) to ``path``.

    The write goes through a temporary sibling file and an atomic rename,
    so a crash mid-save never leaves a truncated snapshot behind.
    Returns the path written.

    ``version`` records the dataset's epoch (``dataset_version`` in the
    header); together with the digest it lets a worker reload decide it
    already holds the current state and no-op (:func:`snapshot_info`
    surfaces both without reading the graph).
    """
    meta, arrays = _pack_state(graph, index, version)
    return _write_snapshot(Path(path), meta, arrays)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _decode_refs(encoded: list) -> list:
    refs = []
    for entry in encoded:
        if entry is None:
            refs.append(None)
            continue
        table, kind, pk = entry
        refs.append((table, int(pk) if kind == "i" else str(pk)))
    return refs


def _carve_arrays(
    path: Path, header: dict, data_start: int, raw: memoryview
) -> dict:
    """Carve every data array out of the file's bytes as a read-only
    ``memoryview``, typed by the format's own table and bounds-checked
    against the real size, so a header that names another dtype or a
    truncated file fails here — not as a mis-scored answer or a SIGBUS
    mid-search.

    ``raw`` is the whole file as one byte view: an ``mmap`` of it or
    the bytes read into memory; one buffer under all 20 arrays.
    """
    if sys.byteorder != "little":
        raise SnapshotError(f"{path} is little-endian; this host is not")
    table = header.get("arrays")
    if not isinstance(table, dict):
        raise SnapshotError(f"{path} has no array table in its header")
    missing = [name for name in _ARRAY_CODES if name not in table]
    if missing:
        raise SnapshotError(f"{path} is missing arrays: {', '.join(missing)}")
    arrays = {}
    for name, code in _ARRAY_CODES.items():
        entry = table[name]
        try:
            dtype, shape = entry["dtype"], entry["shape"]
            offset = data_start + int(entry["offset"])
            int(entry["crc32"])
            if dtype != _CODE_DTYPES[code]:
                raise ValueError(f"dtype {dtype!r}, not {_CODE_DTYPES[code]}")
            if not isinstance(shape, list) or len(shape) != 1:
                raise ValueError(f"shape {shape!r} is not one-dimensional")
            count = int(shape[0])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{path} has a malformed array-table entry for {name}: {exc}"
            ) from exc
        if count < 0:
            raise SnapshotError(f"{path} array {name} has a negative shape")
        nbytes = struct.calcsize(code) * count
        if nbytes == 0:
            # Empty arrays carry no data; their (aligned) offset may sit
            # at or past EOF when nothing was written after them.
            offset = 0
        elif offset < 0 or offset + nbytes > len(raw):
            raise SnapshotError(
                f"{path} array {name} extends past the end of the file "
                f"(truncated snapshot?)"
            )
        arrays[name] = raw[offset : offset + nbytes].cast(code)
    return arrays


#: Ids read into one Python int at a time: a 4 KiB page of int32 lanes
#: keeps every operand cache-resident (twice as fast as one int over a
#: whole 43k-id array).
_PAGE_LANES = 1024


def _page_of(lane: int, width: int = 32) -> int:
    """``lane`` in each ``width``-bit lane of one page, built by doubling
    shifts (a division or a ``from_bytes`` of a repeated pattern costs
    more)."""
    while width < 32 * _PAGE_LANES:
        lane |= lane << width
        width *= 2
    return lane


#: The top bit of one lane (an int32 id's sign), and of every lane.
_SIGN = 1 << 31
_SIGNS = _page_of(_SIGN)

#: The same for the int64 lanes of an indptr page.
_SIGNS64 = _page_of(1 << 63, 64)


def _ids_in_range(ids, n: int) -> bool:
    """Whether every int32 of ``ids`` lies in ``[0, n)`` (``n >= 0``),
    checked at C speed without numpy.

    A page of the view's bytes, read as one little-endian int, holds one
    32-bit lane per id.  An id is in range exactly when its lane's top
    bit is clear and still clear after ``2**31 - n`` is added to every
    lane: with the top bit clear the sum stays below ``2**32``, so no
    carry crosses a lane boundary (a negative id's own top bit is kept
    by the ``|``), and one ``&`` against the top-bit mask checks the
    whole page.  For ``n >= 2**31`` only the sign test applies.
    """
    offset = _page_of(_SIGN - n) if n < _SIGN else 0
    for start in range(0, len(ids), _PAGE_LANES):
        lanes = int.from_bytes(ids[start : start + _PAGE_LANES], "little")
        if (lanes | lanes + offset) & _SIGNS:
            return False
    return True


def _nondecreasing(indptr) -> bool:
    """Whether ``0 <= a <= b`` for every two consecutive entries ``a, b``
    of the int64 view ``indptr``, checked at C speed without building a
    list of it.

    A page of entries plus the next one, read as one little-endian int,
    gives ``lo`` (the page's lanes) and ``hi`` (the same shifted down one
    64-bit lane), so each lane pairs an entry with its successor.  With
    no top bit set anywhere, each lane of ``(hi | signs) - lo`` is
    ``2**63 + b - a``, inside ``(0, 2**64)``: no borrow crosses a lane,
    and the lane's top bit is set exactly when ``a <= b``.
    """
    per_page = _PAGE_LANES // 2
    last = len(indptr) - 1
    for start in range(0, last, per_page):
        width = 64 * min(per_page, last - start)
        page = int.from_bytes(indptr[start : start + width // 64 + 1], "little")
        lo, hi = page & ((1 << width) - 1), page >> 64
        signs = _SIGNS64 >> (64 * per_page - width)
        if page & (signs | 1 << (width + 63)) or ((hi | signs) - lo) & signs != signs:
            return False
    return True


def _validate_arrays(header: dict, arrays: dict, path, *, deep: bool) -> None:
    """Structural validation shared by both residency modes.

    A corrupt file must fail here, not as an IndexError (or a silent
    negative-index mis-score or mis-slice) deep inside a later search.
    Adjacency and postings use the same CSR shape, so one checker
    covers all four array pairs, and every adjacency column must be as
    long as its side's ids.  ``deep`` (the eager read) also verifies
    every array's ``crc32`` and every node id's range
    (:func:`_ids_in_range`); the mapped load checks only the O(n)
    invariants — touching every data page at load time would defeat
    lazy warmup — and range-checks a row's ids when it faults in; the
    trade-off is documented in ``docs/STORAGE.md``.  An indptr's order
    is checked in place (:func:`_nondecreasing`) on the typed view the
    lazy classes keep as row bounds, so no Python list of it is built.
    Each text section checks its own length against the header when
    first decoded.
    """
    if deep:
        for name, arr in arrays.items():
            if zlib.crc32(arr) != int(header["arrays"][name]["crc32"]):
                raise SnapshotError(
                    f"{path} array {name} fails its checksum (damaged data page)"
                )
    num_nodes = int(header["num_nodes"])
    # The header carries no checksum: its counts are checked against
    # the arrays (a graph's ``num_edges`` is twice its forward count).
    num_edges = 2 * int(header["num_forward_edges"])
    if len(arrays["prestige"]) != num_nodes or not (
        num_edges == len(arrays["out_dst"]) == len(arrays["in_src"])
    ):
        raise SnapshotError(f"{path} metadata is inconsistent with its arrays")
    for side, ids_name in (("out", "out_dst"), ("in", "in_src")):
        for name in (f"{side}_weight", f"{side}_fwd"):
            if len(arrays[name]) != len(arrays[ids_name]):
                raise SnapshotError(
                    f"{path} array {name} has {len(arrays[name])} entries, "
                    f"not the {len(arrays[ids_name])} of {ids_name}"
                )
    csr_pairs = (
        ("out_indptr", "out_dst", num_nodes),
        ("in_indptr", "in_src", num_nodes),
        ("post_indptr", "post_nodes", int(header["index_terms"])),
        ("rel_indptr", "rel_nodes", int(header["relation_terms"])),
    )
    for indptr_name, ids_name, num_rows in csr_pairs:
        indptr, ids = arrays[indptr_name], arrays[ids_name]
        if (
            len(indptr) != num_rows + 1
            or indptr[0] != 0
            or indptr[-1] != len(ids)
            or not _nondecreasing(indptr)
        ):
            raise SnapshotError(f"{path} has a malformed {indptr_name} array")
        if deep and not _ids_in_range(ids, num_nodes):
            raise SnapshotError(
                f"{path} has out-of-range node ids in {ids_name} "
                f"(expected [0, {num_nodes}))"
            )


def _read_arrays(path: Path, *, eager: bool) -> tuple[dict, dict]:
    """``(header, arrays)`` of a snapshot, validated.

    ``eager`` reads the file's bytes once into process memory and
    deep-validates them; otherwise the arrays are views of one
    read-only ``mmap`` with header + bounds checks only.
    """
    header, data_start = _read_header(path)
    try:
        with open(path, "rb") as fh:
            if eager:
                raw = fh.read()
            else:
                raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # ValueError: empty file
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    arrays = _carve_arrays(path, header, data_start, memoryview(raw))
    try:
        _validate_arrays(header, arrays, path, deep=eager)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path} has a malformed header: {exc}") from exc
    return header, arrays


def _text_sections(header: dict, arrays: dict, path, decode_refs=None) -> dict:
    """One lazily decoded :class:`~repro.storage.mapped._TextSection`
    per text field, each checked against its header count."""
    from repro.storage.mapped import _TextSection

    return {
        field: _TextSection(
            arrays[field], field, int(header[count]), path,
            decode_refs if field == "refs" else None,
        )
        for field, count in _TEXT_FIELDS.items()
    }


def load_snapshot(
    path: Union[str, os.PathLike],
    *,
    storage_mode: Optional[str] = None,
) -> tuple[SearchGraph, InvertedIndex]:
    """Restore the ``(graph, index)`` pair saved by :func:`save_snapshot`.

    ``storage_mode`` picks where the file's bytes live (``None`` falls
    back to the ``REPRO_SNAPSHOT_MODE`` environment variable, then
    ``"mapped"``):

    * ``"mapped"`` — behind one ``mmap``, paged in on
      demand; header and bounds are checked, data pages are not read,
      and a row's node ids are range-checked when it materializes;
    * ``"ram"`` — read once into process memory, every array's checksum
      and every node id verified; the file is never touched again.

    Both return the same lazy graph/index classes: adjacency rows,
    posting lists and each text field materialize on first touch, except
    the rows :func:`~repro.storage.apply_pin_policy` faults in at load.
    Row bounds stay the file's int64 views and no text section is
    decoded, so the Python objects a load builds are the header, the
    prestige floats and the pin set.  A search decodes the two term
    vocabularies and nothing else of the text.  Answers and scores are
    bit-identical across modes.
    """
    from repro.storage.mapped import (
        MappedInvertedIndex,
        MappedSearchGraph,
        apply_pin_policy,
    )

    path = Path(path)
    mode = resolve_storage_mode(storage_mode)
    header, arrays = _read_arrays(path, eager=mode == "ram")
    num_nodes = int(header["num_nodes"])
    text = _text_sections(header, arrays, path, _decode_refs)
    stats = StorageStats(mode=mode, path=str(path))
    if mode == "mapped":
        stats.mapped_bytes = sum(int(arr.nbytes) for arr in arrays.values())
    try:
        graph = MappedSearchGraph._from_mapped(
            out_indptr=arrays["out_indptr"],
            out_dst=arrays["out_dst"],
            out_weight=arrays["out_weight"],
            out_fwd=arrays["out_fwd"],
            in_indptr=arrays["in_indptr"],
            in_src=arrays["in_src"],
            in_weight=arrays["in_weight"],
            in_fwd=arrays["in_fwd"],
            labels=text["labels"],
            tables=text["tables"],
            refs=text["refs"],
            num_forward_edges=header["num_forward_edges"],
            prestige=arrays["prestige"],
            in_inv_weight_sum=arrays["in_invw"],
            out_inv_weight_sum=arrays["out_invw"],
            stats=stats,
        )
    except ValueError as exc:
        # Residual inconsistencies (e.g. negative prestige) the explicit
        # checks above did not name.
        raise SnapshotError(f"{path} is corrupt: {exc}") from exc
    index = MappedInvertedIndex._from_mapped(
        post_terms=text["post_terms"],
        rel_terms=text["rel_terms"],
        post_indptr=arrays["post_indptr"],
        post_nodes=arrays["post_nodes"],
        rel_indptr=arrays["rel_indptr"],
        rel_nodes=arrays["rel_nodes"],
        num_nodes=num_nodes,
        stats=stats,
    )
    apply_pin_policy(graph, index, stats)
    return graph, index


def verify_snapshot(path: Union[str, os.PathLike]) -> dict:
    """Read every byte of ``path`` and check it: per-array checksums,
    CSR invariants, node-id ranges, every text section decoded and
    length-checked, and the content digest recomputed from the data.
    Raises :class:`~repro.errors.SnapshotError` naming what failed;
    returns :func:`snapshot_info` on success."""
    path = Path(path)
    header, arrays = _read_arrays(path, eager=True)
    text = {
        field: section.load()
        for field, section in _text_sections(header, arrays, path).items()
    }
    if _content_digest({**header, **text}, arrays) != header.get("content_digest"):
        raise SnapshotError(f"{path} content does not match its content_digest")
    return snapshot_info(path)


# ----------------------------------------------------------------------
# engine conveniences
# ----------------------------------------------------------------------
def save_engine(
    path: Union[str, os.PathLike],
    engine,
    *,
    version: int = 0,
    format: str = "mapped",
) -> Path:
    """Snapshot a :class:`~repro.core.engine.KeywordSearchEngine`'s state.

    Search parameters are *not* stored — they are run-time configuration,
    not dataset state — so :func:`load_engine` accepts them explicitly.
    ``version`` stamps the dataset epoch into the header.

    ``format`` selects nothing: ``"mapped"`` names the only layout there
    is.  The keyword survives because the frozen benchmark
    (``ledger/layers.py``) still passes it; drop it when the ledger is
    next re-frozen.
    """
    if format != "mapped":
        raise ValueError(
            f"unknown snapshot format {format!r}: the page-aligned "
            f"('mapped') layout is the only one written"
        )
    return save_snapshot(path, engine.graph, engine.index, version=version)


def load_engine(
    path: Union[str, os.PathLike],
    *,
    params=None,
    storage_mode: Optional[str] = None,
):
    """Rebuild a ready-to-query engine from a snapshot file."""
    from repro.core.engine import KeywordSearchEngine

    graph, index = load_snapshot(path, storage_mode=storage_mode)
    return KeywordSearchEngine(graph, index, params=params)


# ----------------------------------------------------------------------
# command line: provision shard fleets from the shell
# ----------------------------------------------------------------------
def _make_dataset(name: str, scale: float):
    """Build one of the synthetic databases by name, scaled."""
    from repro.datasets import (
        DblpConfig,
        ImdbConfig,
        PatentsConfig,
        make_dblp,
        make_imdb,
        make_patents,
    )

    makers = {
        "dblp": (make_dblp, DblpConfig),
        "imdb": (make_imdb, ImdbConfig),
        "patents": (make_patents, PatentsConfig),
    }
    try:
        make, config_cls = makers[name]
    except KeyError:
        raise SystemExit(
            f"unknown dataset {name!r}; expected one of {sorted(makers)}"
        ) from None
    return make(config_cls().scaled(scale))


def main(argv=None) -> int:
    """``python -m repro.service.snapshot`` — inspect, create and check
    snapshots.

    ``info <path>`` prints the versioned header fields from
    :func:`snapshot_info` — including the save-time pin-hint summary —
    without reading any data array, plus, when a sibling ``<path>.wal``
    mutation log exists, its last durable sequence number and the count
    of commits the log holds beyond this snapshot's ``dataset_version``
    — the at-a-glance "does the WAL carry unsnapshotted state" check.
    ``save <dataset> <path>`` builds a synthetic dataset (``dblp`` /
    ``imdb`` / ``patents``, optionally ``--scale``d) and writes its
    engine snapshot, so a shard fleet can be provisioned entirely from
    the shell.  ``verify <path>`` reads the whole file and checks every
    array's checksum, the structural invariants and the content digest
    (:func:`verify_snapshot`).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.snapshot",
        description="Inspect, create and verify engine snapshot files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info_cmd = commands.add_parser("info", help="print a snapshot's header fields")
    info_cmd.add_argument("path", help="snapshot file to inspect")

    save_cmd = commands.add_parser(
        "save", help="build a synthetic dataset and snapshot its engine"
    )
    save_cmd.add_argument(
        "dataset", help="dataset to build: dblp, imdb or patents"
    )
    save_cmd.add_argument("path", help="snapshot file to write")
    save_cmd.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset size multiplier (default 1.0)",
    )

    verify_cmd = commands.add_parser(
        "verify", help="read every byte and check checksums, structure and digest"
    )
    verify_cmd.add_argument("path", help="snapshot file to check")
    args = parser.parse_args(argv)

    if args.command == "save":
        from repro.core.engine import KeywordSearchEngine

        db = _make_dataset(args.dataset, args.scale)
        engine = KeywordSearchEngine.from_database(db)
        written = save_engine(args.path, engine)
        print(
            f"wrote {written} ({written.stat().st_size} bytes): "
            f"{engine.graph.num_nodes} nodes, "
            f"{engine.graph.num_forward_edges} forward edges"
        )
        return 0

    try:
        if args.command == "verify":
            info = verify_snapshot(args.path)
            print(f"ok: {args.path} ({info['file_bytes']} bytes, "
                  f"content_digest {info['content_digest']})")
            return 0
        info = snapshot_info(args.path)
    except SnapshotError as exc:
        print(f"error: {exc}")
        return 1
    for key, value in info.items():
        print(f"{key} = {value}")
    # A sibling WAL (the <snapshot>.wal convention) may hold commits
    # newer than this file: surface both positions so an operator
    # sees at a glance whether the log carries unsnapshotted state.
    from repro.wal.log import MutationLog, default_wal_path

    wal_path = default_wal_path(args.path)
    wal = MutationLog.peek(wal_path)
    if wal is not None:
        print(f"wal_path = {wal_path}")
        print(f"wal_seq = {wal['last_seq']}")
        print(f"wal_segments = {wal['segments']}")
        unsnapshotted = wal["last_seq"] - int(info["dataset_version"] or 0)
        print(f"wal_unsnapshotted_commits = {max(unsnapshotted, 0)}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
