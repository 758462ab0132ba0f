"""Lazy graph and index: rows materialized on demand from snapshot arrays.

:class:`MappedSearchGraph` and :class:`MappedInvertedIndex` are
read-only subclasses of the in-RAM classes whose bulk state —
adjacency rows, posting lists, and the per-node/per-term text metadata
— stays in the snapshot's flat arrays and materializes on first touch.
The arrays are typed ``memoryview`` casts of one buffer: an ``mmap`` of
the file (``storage_mode="mapped"``) or the file's bytes read into
process memory (``"ram"``); nothing here can tell the difference but
the id check below, and nothing here imports numpy.
Only prestige is resident from the start as Python numbers; the row
bounds and activation normalizers are indexed in place, adjacency and
postings materialize per row, and each text field (labels, tables,
refs, the two term vocabularies) is its own JSON section, decoded on
its own first read: a term lookup decodes the vocabularies, and no
search reads a node's label, table or ref.

Bit-identity contract: a materialized row is built through
``tolist()``/``zip``, so every neighbor id is a Python int, every
weight the Python float of the stored float64, and every search over a
loaded graph scores answers bit-identically to the same search over
the graph that was saved — the property
``tests/property/test_prop_storage.py`` pins across storage modes and
algorithms.  Under ``mapped`` every row's node
ids are checked against the node count as it materializes (the load
reads no data page, so this is where a damaged one is caught; a ``ram``
load has range-checked every id already): an id out of range is a
:class:`~repro.errors.SnapshotError` naming the array and the row,
never a neighbour read from the other end of the graph.

Materialized rows are cached and never evicted: the Python working set
grows with the rows a workload actually touches (counted by
:class:`~repro.storage.stats.StorageStats`).  Under ``mapped`` the OS
page cache underneath holds the raw arrays and stays evictable *and
shared* — N worker processes mapping one snapshot keep one physical
copy of the cold data, which is the bigger-than-RAM story.
"""

from __future__ import annotations

import json
from heapq import nlargest
from operator import add, sub
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.errors import SnapshotError
from repro.graph.searchgraph import Edge, SearchGraph
from repro.index.inverted import InvertedIndex
from repro.storage.stats import StorageStats

__all__ = [
    "MappedInvertedIndex",
    "MappedSearchGraph",
    "apply_pin_policy",
]


class _TextSection(Sequence):
    """One text field of a snapshot, a JSON list in its own data
    section, decoded and length-checked on first access.

    Parsing is O(field) text work that a lazy load should not pay
    before a query reads the field, and a query that resolves terms
    should not pay for the labels.  ``decode`` (if given) maps the
    parsed list once, as refs are turned back into tuples.
    """

    __slots__ = ("_raw", "_name", "_len", "_path", "_decode", "_items")

    def __init__(
        self, raw, name: str, length: int, path, decode: Optional[Callable] = None
    ) -> None:
        self._raw = raw
        self._name = name
        self._len = length
        self._path = str(path)
        self._decode = decode
        self._items: Optional[list] = None

    def load(self) -> list:
        items = self._items
        if items is None:
            try:
                items = json.loads(str(self._raw, "utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SnapshotError(
                    f"{self._path} has a corrupt {self._name} section: {exc}"
                ) from exc
            if not isinstance(items, list) or len(items) != self._len:
                raise SnapshotError(
                    f"{self._path} {self._name} section is inconsistent with "
                    f"its header (expected {self._len} entries)"
                )
            if self._decode is not None:
                items = self._decode(items)
            self._items = items
        return items

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self.load()[i]

    def __iter__(self):
        return iter(self.load())


def _unsigned(ids):
    """An int32 id view read as uint32: the same ints for every valid id
    and ``>= 2**31`` for a negative one, so a materializing row is in
    range exactly when ``max(row) < num_nodes`` — one pass, not two."""
    return ids.cast("B").cast("I")


def _verify_rows(stats: StorageStats) -> bool:
    """Whether rows must check their ids as they materialize: a ``ram``
    load has checked every stored id (``service.snapshot._ids_in_range``)."""
    return stats.mode == "mapped"


def _bad_row(stats: StorageStats, array: str, row: int, num_nodes: int):
    """The error for a row whose node ids leave ``[0, num_nodes)`` (a
    ``-1`` would otherwise read the last node as a neighbour)."""
    return SnapshotError(
        f"{stats.path} has out-of-range node ids in {array} row {row} "
        f"(expected [0, {num_nodes}))"
    )


class _LazyAdjacency(Sequence):
    """One adjacency side as a lazily materialized sequence of rows.

    Quacks like the ``tuple[tuple[Edge, ...], ...]`` the base
    :class:`SearchGraph` stores: ``len()`` is the node count and
    ``[u]`` is ``u``'s row as a tuple of ``(neighbor, weight,
    is_forward)`` tuples, built from the mapped arrays on first access
    and cached thereafter.  ``name`` is the ids array's, for errors.
    """

    __slots__ = (
        "_bounds", "_ids", "_weights", "_fwd",
        "_rows", "_stats", "_name", "_num_nodes", "_verify",
    )

    def __init__(
        self, bounds, ids, weights, fwd, stats: StorageStats, name: str
    ) -> None:
        # The int64 view the loader validated, indexed in place.
        self._bounds = bounds
        self._ids = _unsigned(ids)
        self._weights = weights
        self._fwd = fwd
        self._rows: dict[int, tuple[Edge, ...]] = {}
        self._stats = stats
        self._name = name
        self._num_nodes = len(bounds) - 1  # read on every fault
        self._verify = _verify_rows(stats)

    def __len__(self) -> int:
        return self._num_nodes

    def __getitem__(self, u: int) -> tuple[Edge, ...]:
        row = self._rows.get(u)
        if row is None:
            if not 0 <= u < self._num_nodes:
                raise IndexError(u)
            lo, hi = self._bounds[u], self._bounds[u + 1]
            # tolist() yields Python ints/floats/bools, whether the row
            # is pinned at load or faulted by a search.
            ids = self._ids[lo:hi].tolist()
            if self._verify and ids and max(ids) >= self._num_nodes:
                raise _bad_row(self._stats, self._name, u, self._num_nodes)
            row = tuple(
                zip(ids, self._weights[lo:hi].tolist(), self._fwd[lo:hi].tolist())
            )
            self._rows[u] = row
            self._stats.note_row(hi - lo)
        return row

    def __iter__(self) -> Iterator[tuple[Edge, ...]]:
        # Full iteration (snapshot re-save, compaction) faults every
        # row; that is inherent to the operation, not an accident.
        return (self[u] for u in range(len(self)))


class MappedSearchGraph(SearchGraph):
    """A :class:`SearchGraph` whose adjacency lives in snapshot arrays.

    Prestige is resident (a tuple of Python floats) and the activation
    normalizers are float64 views indexed in place; the two
    adjacency sides are :class:`_LazyAdjacency` objects and each
    per-node text field decodes from its snapshot section on first
    access.  Every read accessor of the base class works
    unchanged through the sequence protocols and ``with_prestige`` keeps
    the subclass and its ``storage``; what this class adds is the loader
    and :meth:`compact_nbytes`.
    """

    @classmethod
    def _from_mapped(
        cls,
        *,
        out_indptr,
        out_dst,
        out_weight,
        out_fwd,
        in_indptr,
        in_src,
        in_weight,
        in_fwd,
        labels,
        tables,
        refs,
        num_forward_edges: int,
        prestige,
        in_inv_weight_sum,
        out_inv_weight_sum,
        stats: StorageStats,
    ) -> "MappedSearchGraph":
        n = len(labels)
        g = cls._from_rows(
            out=_LazyAdjacency(
                out_indptr, out_dst, out_weight, out_fwd, stats, "out_dst"
            ),
            in_=_LazyAdjacency(in_indptr, in_src, in_weight, in_fwd, stats, "in_src"),
            # Lazy sections: stored as given, never tuple()d (that
            # would decode them at load time).
            labels=labels,
            tables=tables,
            refs=refs,
            num_forward_edges=num_forward_edges,
            prestige=cls._validate_prestige(prestige, n),
            # Read once per touched node: indexed in place, never listed.
            in_inv_weight_sum=in_inv_weight_sum,
            out_inv_weight_sum=out_inv_weight_sum,
        )
        g.storage = stats
        return g

    def compact_nbytes(self) -> int:
        """Bytes of the snapshot arrays the searches read edges and
        activation normalizers from: per direction, the neighbour ids
        (int32), weights (float64) and forward flags (uint8) of every
        combined edge, and the two float64 ``sum(1/w)`` vectors.  Row
        bounds and prestige are not counted."""
        edge_columns = (
            view
            for side in (self._out, self._in)
            for view in (side._ids, side._weights, side._fwd)
        )
        return sum(view.nbytes for view in edge_columns) + (
            self._in_inv_weight_sum.nbytes + self._out_inv_weight_sum.nbytes
        )


class _LazyPostings(Mapping):
    """Term -> posting-set mapping over concatenated snapshot arrays.

    Materializes one term's node set on first access (``tolist()``,
    so members are Python ints) and caches it.  Iteration order is the
    snapshot's term order, which is sorted.

    The term list itself is the ``post_terms`` section, decoded on the
    first *by-name* access; posting rows pinned at load time via
    :meth:`pin_row` cache by row index and need no term names at all.
    """

    __slots__ = (
        "_terms", "_positions",
        "_bounds", "_nodes", "_num_nodes", "_verify", "_sets", "_by_index", "_stats",
    )

    def __init__(
        self,
        terms: _TextSection,
        bounds,
        nodes,
        num_nodes: int,
        stats: StorageStats,
    ) -> None:
        self._terms = terms
        self._positions: Optional[dict[str, int]] = None
        self._bounds = bounds
        self._nodes = _unsigned(nodes)
        self._num_nodes = num_nodes
        self._verify = _verify_rows(stats)
        self._sets: dict[str, set[int]] = {}
        self._by_index: dict[int, set[int]] = {}
        self._stats = stats

    def _ensure_terms(self) -> list[str]:
        # The section's header count is the one the loader checked the
        # indptr against, so terms and rows pair up.
        terms = self._terms.load()
        if self._positions is None:
            self._positions = {term: i for i, term in enumerate(terms)}
        return terms

    def _row_set(self, i: int) -> set[int]:
        nodes = self._by_index.get(i)
        if nodes is None:
            lo, hi = self._bounds[i], self._bounds[i + 1]
            ids = self._nodes[lo:hi].tolist()
            if self._verify and ids and max(ids) >= self._num_nodes:
                raise _bad_row(self._stats, "post_nodes", i, self._num_nodes)
            nodes = self._by_index[i] = set(ids)
            self._stats.note_postings(hi - lo)
        return nodes

    def pin_row(self, i: int) -> None:
        """Materialize the ``i``-th posting row (no term name needed)."""
        self._row_set(i)

    def __getitem__(self, term: str) -> set[int]:
        nodes = self._sets.get(term)
        if nodes is None:
            self._ensure_terms()
            i = self._positions[term]  # KeyError for unknown terms
            nodes = self._row_set(i)
            self._sets[term] = nodes
        return nodes

    def __contains__(self, term: object) -> bool:
        # The Mapping default probes __getitem__, which would fault the
        # posting list just to answer a membership test.
        self._ensure_terms()
        return term in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self._ensure_terms())

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def frequency_of(self, i: int) -> int:
        """Posting size of the ``i``-th term without materializing it."""
        return self._bounds[i + 1] - self._bounds[i]


class MappedInvertedIndex(InvertedIndex):
    """An :class:`InvertedIndex` whose text postings live in snapshot
    arrays.

    The text posting map is a :class:`_LazyPostings` over the
    ``post_terms`` section; relation-name postings (a handful of
    table-name terms) materialize with the ``rel_terms`` section on
    first index read.  Every lookup decodes those two vocabularies and
    never a node's label, table or ref.  The inherited ``lookup`` memoization
    works unchanged — it only uses the mapping protocol — and the
    ``add_*`` mutators are disabled: snapshot state is read-only, live
    mutations go through a live epoch's index, an
    :class:`InvertedIndex` over :class:`~repro.live.overlay.OverlayPostings`
    deltas in RAM.
    """

    @classmethod
    def _from_mapped(
        cls,
        *,
        post_terms: _TextSection,
        rel_terms: _TextSection,
        post_indptr,
        post_nodes,
        rel_indptr,
        rel_nodes,
        num_nodes: int,
        stats: StorageStats,
    ) -> "MappedInvertedIndex":
        # Bypass __init__: ``_relation_nodes`` is a lazy property here,
        # and the base constructor would try to assign over it.
        index = cls.__new__(cls)
        index._postings = _LazyPostings(
            post_terms, post_indptr, post_nodes, num_nodes, stats
        )
        index._rel_terms = rel_terms
        index._rel_bounds = rel_indptr
        index._rel_nodes_flat = _unsigned(rel_nodes)
        index._num_nodes = num_nodes
        index._rel_materialized = None
        index._lookup_cache = {}
        index.storage = stats
        return index

    @property
    def _relation_nodes(self) -> dict[str, set[int]]:
        rel = self._rel_materialized
        if rel is None:
            bounds = self._rel_bounds
            flat = self._rel_nodes_flat.tolist()
            verify = _verify_rows(self.storage)
            rel = {}
            for i, term in enumerate(self._rel_terms):
                ids = flat[bounds[i] : bounds[i + 1]]
                if verify and ids and max(ids) >= self._num_nodes:
                    raise _bad_row(self.storage, "rel_nodes", i, self._num_nodes)
                rel[term] = set(ids)
            self._rel_materialized = rel
        return rel

    def _read_only(self, what: str):
        raise TypeError(
            f"{what}: a snapshot-loaded index is read-only; apply live "
            f"mutations through an overlay (repro.live), not in place"
        )

    def add_text(self, node: int, text: str) -> None:
        self._read_only("add_text")

    def add_term(self, node: int, term: str) -> None:
        self._read_only("add_term")

    def add_relation_node(self, relation: str, node: int) -> None:
        self._read_only("add_relation_node")

    def terms_by_frequency(self) -> list[tuple[str, int]]:
        # Posting sizes come from the indptr bounds — the base
        # implementation would materialize every posting set.
        postings = self._postings
        return sorted(
            (
                (term, postings.frequency_of(i))
                for i, term in enumerate(postings._ensure_terms())
            ),
            key=lambda item: (-item[1], item[0]),
        )


def _top(k: int, values: Sequence) -> list[int]:
    """Indices of the ``k`` largest ``values``, ties by index: what a
    stable argsort of the negated values ranks first (``nlargest`` keeps
    ties in input order; the bound method keeps the key in C)."""
    return nlargest(k, range(len(values)), key=values.__getitem__)


#: Which rows a snapshot load materializes eagerly.  The paper's
#: activation model concentrates traffic on high-prestige hubs, and
#: frontier expansion touches high-degree rows far more often than the
#: long tail — so the pin set is the union of the top-``PIN_NODES`` rows
#: by prestige and by combined degree (both adjacency sides are pinned
#: for each).  ``PIN_TERMS`` pins the largest posting lists: keyword
#: seeding reads whole origin sets, and the frequent-keyword case is
#: exactly where a posting list is big.
#:
#: Pinning only *materializes* the rows at load time (they live in the
#: ordinary row cache, which never evicts); it does not ``mlock`` pages
#: — the OS page cache underneath stays evictable, which is what lets N
#: worker processes share one physical copy of the file.
#:
#: The counts are deliberately small: pinning is O(pin set) Python tuple
#: construction at load time, and a lazy load's whole point is an
#: O(1)-ish warmup.  Hub nodes and frequent keywords are so skewed that a
#: few dozen rows cover most first-query traffic.
PIN_NODES = 64
PIN_TERMS = 16


def apply_pin_policy(
    graph: MappedSearchGraph, index: MappedInvertedIndex, stats: StorageStats
) -> None:
    """Fault in the pin set and record it in ``stats``.

    Node selection: union of the top-:data:`PIN_NODES` rows by prestige
    and by combined (in+out) degree, ties broken by node id — both
    rankings deterministic, so every replica pins the same set.  Term
    selection: the :data:`PIN_TERMS` largest text posting lists, ties by
    row index — which is term order, since the snapshot stores terms
    sorted; pinning by row index keeps the vocabulary undecoded at load
    time.  Counters are zeroed afterwards so ``row_faults`` /
    ``posting_faults`` measure post-warmup demand misses, while the pin
    set itself is reported through ``pinned_*``.
    """
    before = stats.resident_bytes

    ends = list(map(add, graph._out._bounds, graph._in._bounds))
    degree = list(map(sub, ends[1:], ends))
    pinned_nodes = {*_top(PIN_NODES, graph.prestige_values), *_top(PIN_NODES, degree)}
    for u in sorted(pinned_nodes):
        graph.out_edges(u)
        graph.in_edges(u)

    postings = index._postings
    freq = list(map(sub, postings._bounds[1:], postings._bounds))
    pinned_terms = _top(PIN_TERMS, freq)
    for i in pinned_terms:
        postings.pin_row(i)

    stats.pinned_nodes = len(pinned_nodes)
    stats.pinned_terms = len(pinned_terms)
    stats.pinned_bytes = stats.resident_bytes - before
    stats.row_faults = 0
    stats.posting_faults = 0
