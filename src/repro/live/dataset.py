"""``MutableDataset``: versioned live mutations over a frozen engine.

The paper's model assumes a static in-memory graph; a deployment's data
changes under live traffic.  This module closes that gap with an
MVCC-style epoch design:

* **Batches** — :meth:`MutableDataset.mutate` is the one way to change
  a dataset.  It applies a batch of structured mutations
  (:mod:`repro.live.mutations`) to a private scratch: copies of the
  adjacency rows it touches, the nodes it appends, the posting deltas
  of the terms it touches and its wire record.  A mutation or journal
  that raises drops the scratch, so there is nothing to undo.
* **Commit** — a batch that applied whole is merged into new committed
  delta maps.  They are never edited afterwards: an epoch's
  :class:`~repro.graph.SearchGraph` + :class:`~repro.index.InvertedIndex`
  pair reads them uncopied, as a copy-on-write overlay of the base's
  storage (:mod:`repro.live.overlay`), under a fresh
  :class:`~repro.core.engine.KeywordSearchEngine`, and the monotone
  ``version`` bumps.  In-flight searches keep the epoch they started
  on; new requests see the new one.
* **Compaction** — when the overlay grows past ``compact_ratio`` the
  deltas are folded back into flat :class:`~repro.graph.SearchGraph`
  arrays (adjacency order preserved, so scores stay bit-identical).
  Writing that state to disk is the serving tier's job: ``QueryService``
  stamps the file with the lineage version it serves.

Incremental maintenance is the subtle part: a forward edge into ``v``
changes ``indegree(v)``, and with it the weight of *every* derived
backward edge out of ``v`` (``w * log2(1 + indegree)``, paper
Section 2.3).  Adding or removing an edge therefore reweights ``v``'s
backward adjacency and each affected partner's in-list, and the
``sum(1/w)`` activation normalizers of touched rows are re-summed in
adjacency order — which keeps every float bit-identical to a
from-scratch rebuild of the final state (the equivalence property
``tests/property/test_prop_live.py`` pins).

Prestige policy: mutations never rerun PageRank (the paper computes
prestige once, when the graph is built).  Existing nodes keep their
prestige; a new node takes ``AddNode.prestige`` or, unset, the base's
mean.  To refresh prestige, build a new snapshot and ``reload`` it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from math import fsum
from typing import Optional, Sequence

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import MutationError
from repro.graph.searchgraph import Edge, SearchGraph
from repro.graph.weights import backward_edge_weight
from repro.index.inverted import InvertedIndex
from repro.index.tokenizer import tokenize
from repro.live.mutations import (
    AddEdge,
    AddNode,
    Mutation,
    RemoveEdge,
    UpdateText,
    coerce_mutations,
    mutation_to_dict,
)
from repro.live.overlay import Overlay, OverlayPostings, OverlayRefs

__all__ = ["MutableDataset", "Epoch", "MutationOutcome"]


@dataclass(frozen=True)
class Epoch:
    """One committed, immutable read view of a dataset.

    Searches hold an epoch (usually via its ``engine``) for their whole
    run; later commits produce new epochs and never touch old ones.
    """

    version: int
    graph: SearchGraph
    index: InvertedIndex
    engine: KeywordSearchEngine
    compacted: bool = False


@dataclass(frozen=True)
class MutationOutcome:
    """What :meth:`MutableDataset.mutate` reports back: the new epoch
    plus the real node ids assigned to the batch's ``AddNode``s."""

    epoch: Epoch
    applied: int
    new_nodes: tuple[int, ...]


class MutableDataset:
    """Versioned live view over a frozen graph + index pair, changed
    only by whole batches (:meth:`mutate`).

    Parameters
    ----------
    graph / index:
        The flat base state (a :class:`SearchGraph` as produced by
        ``freeze``/snapshot load, and its :class:`InvertedIndex`).
    params:
        Engine parameters for every epoch's engine.
    compact_ratio:
        Fold the overlay back into flat arrays when the number of
        mutations (of any kind) since the last compaction reaches this
        fraction of the base's forward edges (None disables).

    A node added without a prestige gets the base vector's mean (new
    entities rank as ordinary citizens, not as hubs or outcasts), taken
    as ``math.fsum(values) / n``: correctly rounded, so it does not
    depend on summation order or on an array library's build.  A
    commit's journal receives each node's resolved value, so a log
    replays the same floats onto a base with another mean.

    The dataset holds no durability sink and writes no file: a caller
    that wants a commit logged passes the write-ahead step to
    :meth:`mutate` as ``journal`` (``QueryService.apply`` passes its
    log's ``append``).
    """

    def __init__(
        self,
        graph: SearchGraph,
        index: InvertedIndex,
        *,
        params: Optional[SearchParams] = None,
        compact_ratio: Optional[float] = 0.25,
    ) -> None:
        if isinstance(graph._out, Overlay):
            raise MutationError(
                "MutableDataset needs a flat SearchGraph base; compact the "
                "source dataset first"
            )
        if compact_ratio is not None and compact_ratio <= 0:
            raise ValueError(f"compact_ratio must be > 0, got {compact_ratio!r}")
        self._params = params
        self._compact_ratio = compact_ratio
        self._lock = threading.RLock()
        self._version = 0
        self._rebase(graph, index)
        values = graph.prestige_values
        self._new_node_prestige = fsum(values) / len(values) if values else 1.0
        self._epoch = Epoch(
            version=0,
            graph=graph,
            index=index,
            engine=KeywordSearchEngine(graph, index, params=params),
        )

    def _rebase(self, graph: SearchGraph, index: InvertedIndex) -> None:
        """Start an empty committed delta over a new flat base
        (construction and compaction)."""
        self._base_graph = graph
        self._base_n = graph.num_nodes
        self._base_post, self._base_rel = index._export_postings()
        self._fwd_count = graph.num_forward_edges
        self._muts_since_compact = 0
        # The committed delta.  Each commit replaces these maps and
        # tuples with new ones and never edits them, so every epoch's
        # overlay holds them uncopied.
        self._out: dict[int, tuple[Edge, ...]] = {}
        self._in: dict[int, tuple[Edge, ...]] = {}
        self._out_invw: dict[int, float] = {}
        self._in_invw: dict[int, float] = {}
        self._added: dict[str, frozenset[int]] = {}
        self._removed: dict[str, frozenset[int]] = {}
        self._rel_added: dict[str, frozenset[int]] = {}
        self._labels_ext: tuple = ()
        self._tables_ext: tuple = ()
        self._refs_ext: tuple = ()
        self._prestige_ext: tuple[float, ...] = ()
        # node -> indexed text terms, built on the first text update.
        self._node_terms: Optional[dict[int, frozenset[str]]] = None

    # ------------------------------------------------------------------
    # construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(cls, engine: KeywordSearchEngine, **knobs) -> "MutableDataset":
        """Wrap an already-built engine's graph + index."""
        knobs.setdefault("params", engine.params)
        return cls(engine.graph, engine.index, **knobs)

    @classmethod
    def replay(
        cls, log, *, graph: SearchGraph, index: InvertedIndex
    ) -> "MutableDataset":
        """A live dataset over ``graph`` + ``index`` (the base, built or
        loaded by the caller) with every record of ``log`` — a
        :class:`repro.wal.MutationLog`, or a path opened read-only —
        past its oldest retained base applied by :meth:`replay_records`,
        strictly.  The recovery paths call :meth:`replay_records`
        directly; this spelling is what the ledger's
        ``wal.replay_ms_per_100`` probe times.
        """
        from repro.wal.log import MutationLog

        if not hasattr(log, "records"):
            log = MutationLog(log, readonly=True)
        dataset = cls(graph, index)
        start = log.first_base
        dataset.replay_records(log.records(start_after=start), expected=start + 1)
        return dataset

    def replay_records(self, records, *, expected: int, strict: bool = True) -> int:
        """Apply an iterable of :class:`~repro.wal.WalRecord` in order,
        each as one :meth:`mutate` journalled nowhere (the record *is*
        the journal).

        ``expected`` names the sequence number the first record must
        carry; a gap raises :class:`~repro.errors.WalError` (exact
        recovery is impossible), as does a record that fails to apply or
        that this code refuses (:attr:`~repro.wal.WalRecord.refused`) —
        unless ``strict=False``, which stops at the previous epoch with
        a warning instead (the degraded-but-serving replica choice).
        Returns the number of records applied.  The one recovery path:
        ``QueryService.attach_wal`` (and through it every fleet
        worker's startup replay) calls it, and so does :meth:`replay`.
        """
        import warnings

        from repro.errors import WalError

        applied = 0
        for record in records:
            if record.seq != expected:
                raise WalError(
                    f"replay gap: log record seq {record.seq} does not "
                    f"continue {expected - 1} (the log no longer reaches "
                    f"back to this snapshot; recover from a newer one)"
                )
            try:
                if record.refused is not None:
                    raise MutationError(record.refused)
                self.mutate(record.mutations)
            except Exception as exc:
                if strict:
                    raise WalError(
                        f"WAL record seq {record.seq} failed to apply: {exc}"
                    ) from exc
                warnings.warn(
                    f"WAL replay stopped before seq {record.seq} "
                    f"(record failed to apply: {exc}); serving the last "
                    f"recovered epoch {expected - 1}",
                    stacklevel=2,
                )
                break
            applied += 1
            expected += 1
        return applied

    # ------------------------------------------------------------------
    # epoch access (lock-free reads: epochs are immutable)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._epoch.version

    @property
    def epoch(self) -> Epoch:
        return self._epoch

    @property
    def engine(self) -> KeywordSearchEngine:
        return self._epoch.engine

    @property
    def graph(self):
        return self._epoch.graph

    @property
    def index(self):
        return self._epoch.index

    # ------------------------------------------------------------------
    # mutation, commit and compaction
    # ------------------------------------------------------------------
    def mutate(self, mutations: Sequence, *, journal=None) -> MutationOutcome:
        """Apply a whole batch atomically and commit it as one epoch.

        ``mutations`` holds mutation objects or their wire dicts
        (:mod:`repro.live.mutations`); negative node ids are batch
        aliases (``-(k+1)`` names the k-th ``AddNode`` of this batch).
        The batch is staged into a private scratch, so a mutation that
        raises leaves the dataset exactly as it was — a malformed batch
        never leaves half its edges behind.  An empty batch commits
        nothing, so idle batches never invalidate caches.

        ``journal``, when given, is called once the whole batch has
        applied and before its epoch is installed (write-ahead), as
        ``journal(batch)`` — a :class:`repro.wal.MutationLog`'s
        ``append`` fits — with the batch's wire form: aliases resolved
        to real node ids and every new node's prestige resolved, so
        :meth:`replay` reconstructs identical state.  A journal that
        raises — disk full, sequence misalignment — drops the batch
        too: an epoch is never visible that the log does not contain.
        """
        with self._lock:
            batch = coerce_mutations(mutations)
            scratch = _Scratch(self)
            for mutation in batch:
                scratch.apply(mutation)
            if batch:
                if journal is not None:
                    journal(scratch.wire)
                self._commit(scratch, len(batch))
            return MutationOutcome(
                epoch=self._epoch,
                applied=len(batch),
                new_nodes=tuple(range(scratch.start, scratch.end)),
            )

    def _commit(self, scratch: "_Scratch", applied: int) -> None:
        """Merge a batch's scratch into new committed maps, install the
        epoch built over them and compact if the policy says so."""
        out = {node: tuple(row) for node, row in scratch.out.items()}
        in_ = {node: tuple(row) for node, row in scratch.in_.items()}
        self._out = _merged(self._out, out)
        self._in = _merged(self._in, in_)
        self._out_invw = _merged(self._out_invw, _inv_weight_sums(out))
        self._in_invw = _merged(self._in_invw, _inv_weight_sums(in_))
        self._added = _merged(self._added, _frozen(scratch.added))
        self._removed = _merged(self._removed, _frozen(scratch.removed))
        self._rel_added = _merged(self._rel_added, _frozen(scratch.rel_added))
        if scratch.nodes:
            labels, tables, refs, prestige = zip(*scratch.nodes)
            self._labels_ext += labels
            self._tables_ext += tables
            self._refs_ext += refs
            self._prestige_ext += prestige
        if self._node_terms is not None:
            self._node_terms.update(scratch.node_terms)
        self._fwd_count = scratch.fwd_count
        self._muts_since_compact += applied
        self._version += 1

        graph = self._build_view()
        index = InvertedIndex._from_maps(
            OverlayPostings(self._base_post, self._added, self._removed),
            OverlayPostings(self._base_rel, self._rel_added),
        )
        self._epoch = Epoch(
            version=self._version,
            graph=graph,
            index=index,
            engine=KeywordSearchEngine(graph, index, params=self._params),
        )
        ratio = self._compact_ratio
        base_edges = max(self._base_graph.num_forward_edges, 1)
        if ratio is not None and self._muts_since_compact >= ratio * base_edges:
            self.compact()

    def compact(self) -> Epoch:
        """Fold the overlay into flat base arrays.  Answers and scores
        are unchanged — adjacency order and every weight survive
        verbatim — so the version does *not* bump and cached results
        stay valid."""
        with self._lock:
            graph = self._epoch.graph
            if graph is self._base_graph:
                return self._epoch  # nothing committed since: nothing to fold
            flat = SearchGraph._from_adjacency(
                out=graph._out,
                in_=graph._in,
                labels=graph._labels,
                tables=graph._tables,
                refs=graph._refs,
                num_forward_edges=graph.num_forward_edges,
                prestige=graph.prestige_values,
                in_inv_weight_sum=graph._in_inv_weight_sum,
                out_inv_weight_sum=graph._out_inv_weight_sum,
            )
            flat_index = InvertedIndex._from_postings(
                *self._epoch.index._export_postings()
            )
            self._rebase(flat, flat_index)
            self._epoch = Epoch(
                version=self._version,
                graph=flat,
                index=flat_index,
                engine=KeywordSearchEngine(flat, flat_index, params=self._params),
                compacted=True,
            )
            return self._epoch

    def _text_terms(self) -> dict[int, frozenset[str]]:
        """Node -> its indexed text terms in the committed state, built
        from the current epoch's postings on first use and kept current
        by every commit."""
        if self._node_terms is None:
            node_terms: dict[int, set[str]] = {}
            for term, nodes in self._epoch.index._export_postings()[0].items():
                for node in nodes:
                    node_terms.setdefault(node, set()).add(term)
            self._node_terms = {
                node: frozenset(terms) for node, terms in node_terms.items()
            }
        return self._node_terms

    def _build_view(self) -> SearchGraph:
        base, start = self._base_graph, self._base_n
        new = range(start, start + len(self._labels_ext))

        def overlay(rows, replaced: dict) -> Overlay:
            return Overlay(rows, replaced, [replaced[u] for u in new])

        return SearchGraph._from_rows(
            out=overlay(base._out, self._out),
            in_=overlay(base._in, self._in),
            labels=Overlay(base._labels, {}, self._labels_ext),
            tables=Overlay(base._tables, {}, self._tables_ext),
            refs=Overlay(base._refs, {}, self._refs_ext),
            num_forward_edges=self._fwd_count,
            # Validated piecewise: the base's tuple, and each appended
            # node's float by its AddNode.
            prestige=base.prestige_values + self._prestige_ext,
            in_inv_weight_sum=overlay(base._in_inv_weight_sum, self._in_invw),
            out_inv_weight_sum=overlay(base._out_inv_weight_sum, self._out_invw),
            ref_to_node=OverlayRefs(base, self._refs_ext, start),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        graph = self.graph
        return (
            f"MutableDataset(version={self.version}, nodes={graph.num_nodes}, "
            f"forward_edges={graph.num_forward_edges})"
        )


def _merged(committed: dict, changes: dict) -> dict:
    """A new map: ``committed`` with ``changes`` laid over it, a None
    value dropping its key — or ``committed`` itself when nothing
    changed (committed maps are never edited, so epochs share them)."""
    if not changes:
        return committed
    merged = dict(committed)
    for key, value in changes.items():
        if value is None:
            merged.pop(key, None)
        else:
            merged[key] = value
    return merged


def _inv_weight_sums(rows: dict[int, tuple[Edge, ...]]) -> dict[int, float]:
    """Each row's ``sum(1/w)``, in adjacency order (as a rebuild sums)."""
    return {node: sum(1.0 / w for _, w, _ in row) for node, row in rows.items()}


def _frozen(postings: dict[str, set[int]]) -> dict[str, Optional[frozenset[int]]]:
    """Per-term posting deltas as committed: a term left with no node
    maps to None, which drops it."""
    return {term: frozenset(nodes) or None for term, nodes in postings.items()}


class _Scratch:
    """One batch's private working state over a dataset's committed
    state, which it only reads: the adjacency rows it touches (lists
    copied from the committed rows), the nodes it appends, the posting
    deltas of the terms it touches, the text terms of the nodes it
    retexts and its wire record.  Dropping it undoes the batch."""

    def __init__(self, dataset: MutableDataset) -> None:
        self._ds = dataset
        self.start = dataset._base_n + len(dataset._labels_ext)
        self.nodes: list[tuple] = []  # (label, table, ref, prestige)
        self.out: dict[int, list[Edge]] = {}
        self.in_: dict[int, list[Edge]] = {}
        self.added: dict[str, set[int]] = {}
        self.removed: dict[str, set[int]] = {}
        self.rel_added: dict[str, set[int]] = {}
        self.node_terms: dict[int, frozenset[str]] = {}
        self.fwd_count = dataset._fwd_count
        # The batch's wire form, aliases resolved: what its journal
        # records, so replay is exact.
        self.wire: list[dict] = []

    @property
    def end(self) -> int:
        """One past the last node id, the batch's own nodes included."""
        return self.start + len(self.nodes)

    def apply(self, mutation: Mutation) -> None:
        """Stage one mutation, its node ids and batch aliases resolved."""
        if isinstance(mutation, AddNode):
            self._add_node(mutation)
        elif isinstance(mutation, UpdateText):
            node = self._node(mutation.node, "update_text node")
            self._update_text(replace(mutation, node=node))
        elif isinstance(mutation, AddEdge):
            u = self._node(mutation.u, "add_edge u")
            v = self._node(mutation.v, "add_edge v")
            self._add_edge(replace(mutation, u=u, v=v))
        else:
            u = self._node(mutation.u, "remove_edge u")
            v = self._node(mutation.v, "remove_edge v")
            self._remove_edge(u, v, mutation.weight)

    def _node(self, node: int, what: str) -> int:
        """A real node id: a batch alias resolved, the id checked."""
        if node < 0:
            k = -node - 1
            if k >= len(self.nodes):
                raise MutationError(
                    f"alias {node} refers to the {k + 1}th added node of this "
                    f"batch, but only {len(self.nodes)} were added so far"
                )
            return self.start + k
        if node >= self.end:
            raise MutationError(f"{what}: node {node} does not exist")
        return node

    # ------------------------------------------------------------------
    # the four mutations (each validated by its own dataclass)
    # ------------------------------------------------------------------
    def _add_node(self, mutation: AddNode) -> None:
        """Append a node, registered under its relation name (paper
        Section 2.2: a keyword matching a relation name matches every
        tuple of it) and indexed under its text's terms — what
        :func:`repro.index.build_index` does for one inserted tuple."""
        if mutation.prestige is None:
            mutation = replace(mutation, prestige=self._ds._new_node_prestige)
        node = self.end
        self.nodes.append(
            (mutation.label, mutation.table, mutation.ref, mutation.prestige)
        )
        self.out[node] = []
        self.in_[node] = []
        if mutation.table is not None:
            for term in tokenize(mutation.table):
                self._edit_nodes(self.rel_added, self._ds._rel_added, term).add(node)
        if mutation.text:
            terms = self.node_terms[node] = frozenset(tokenize(mutation.text))
            for term in terms:
                self._post_add(term, node)
        self.wire.append(mutation_to_dict(mutation))

    def _add_edge(self, mutation: AddEdge) -> None:
        """A forward edge ``u -> v`` plus its derived backward edge,
        reweighting ``v``'s other backward edges for the new
        indegree."""
        u, v, weight = mutation.u, mutation.v, mutation.weight
        if u == v:
            raise MutationError(f"self loops are not allowed (node {u})")
        # Every backward weight into ``v`` is rescaled for the new
        # indegree: refuse the edge before staging it if the heaviest
        # would overflow.
        heaviest = max(
            [weight] + [w for _, w, forward in self._row(self.in_, v) if forward]
        )
        try:
            backward_edge_weight(heaviest, self._fwd_indegree(v) + 1)
        except ValueError as exc:
            raise MutationError(str(exc)) from None
        self._edit(self.out, u).append((v, weight, True))
        self._edit(self.in_, v).append((u, weight, True))
        indegree = self._fwd_indegree(v)
        bw = backward_edge_weight(weight, indegree)
        self._edit(self.out, v).append((u, bw, False))
        self._edit(self.in_, u).append((v, bw, False))
        self._reweight_backward(v, indegree)
        self.fwd_count += 1
        self.wire.append(mutation_to_dict(mutation))

    def _remove_edge(self, u: int, v: int, weight: Optional[float]) -> None:
        """Remove one forward edge ``u -> v`` (the earliest-inserted
        match; ``weight`` narrows it among parallel edges), dropping
        its backward twin and reweighting ``v``'s remaining backward
        edges for the reduced indegree."""
        for i, (target, w, forward) in enumerate(self._row(self.out, u)):
            if forward and target == v and (weight is None or w == weight):
                break
        else:
            described = f"{u} -> {v}" + (
                f" (weight {weight!r})" if weight is not None else ""
            )
            raise MutationError(f"no forward edge {described} to remove")
        indegree = self._fwd_indegree(v)
        bw = backward_edge_weight(w, indegree)
        del self._edit(self.out, u)[i]
        self._edit(self.in_, v).remove((u, w, True))
        self._edit(self.out, v).remove((u, bw, False))
        self._edit(self.in_, u).remove((v, bw, False))
        if indegree > 1:
            self._reweight_backward(v, indegree - 1)
        self.fwd_count -= 1
        self.wire.append(mutation_to_dict(RemoveEdge(u=u, v=v, weight=w)))

    def _update_text(self, mutation: UpdateText) -> None:
        """Replace the node's indexed text terms with the tokens of the
        new text (relation-name postings stay)."""
        node = mutation.node
        old = self.node_terms.get(node)
        if old is None:
            old = self._ds._text_terms().get(node, frozenset())
        new = self.node_terms[node] = frozenset(tokenize(mutation.text))
        for term in old - new:
            self._post_remove(term, node)
        for term in new - old:
            self._post_add(term, node)
        self.wire.append(mutation_to_dict(mutation))

    # ------------------------------------------------------------------
    # adjacency rows
    # ------------------------------------------------------------------
    def _row(self, side: dict[int, list[Edge]], node: int) -> Sequence[Edge]:
        """``node``'s current row on ``side`` (``self.out`` or
        ``self.in_``), uncopied: this batch's, else the committed one,
        else the base's (every appended node has a committed row)."""
        row = side.get(node)
        if row is None:
            ds, out = self._ds, side is self.out
            row = (ds._out if out else ds._in).get(node)
            if row is None:
                base = ds._base_graph
                row = base.out_edges(node) if out else base.in_edges(node)
        return row

    def _edit(self, side: dict[int, list[Edge]], node: int) -> list[Edge]:
        """This batch's own copy of ``node``'s row on ``side``."""
        row = side.get(node)
        if row is None:
            row = side[node] = list(self._row(side, node))
        return row

    def _fwd_indegree(self, v: int) -> int:
        return sum(1 for _, _, forward in self._row(self.in_, v) if forward)

    def _reweight_backward(self, v: int, indegree: int) -> None:
        """Re-derive every backward edge out of ``v`` for its new
        forward ``indegree``, updating both ``v``'s out-list and each
        source node's in-list (positional correspondence: the k-th
        backward entry pairs with the k-th forward edge into ``v``,
        both orders being global edge-insertion order)."""
        forward_sources = [
            (src, w) for src, w, forward in self._row(self.in_, v) if forward
        ]
        out_v = self._edit(self.out, v)
        pairs = iter(forward_sources)
        for i, (target, old_w, forward) in enumerate(out_v):
            if forward:
                continue
            src, w = next(pairs)
            if src != target:  # pragma: no cover - internal invariant
                raise MutationError(
                    f"backward adjacency of node {v} out of sync with its in-list"
                )
            new_w = backward_edge_weight(w, indegree)
            if new_w != old_w:
                out_v[i] = (target, new_w, False)
        for src in {src for src, _ in forward_sources}:
            weights = iter(
                w
                for target, w, forward in self._row(self.out, src)
                if forward and target == v
            )
            in_src = self._edit(self.in_, src)
            for i, (target, old_w, forward) in enumerate(in_src):
                if forward or target != v:
                    continue
                new_w = backward_edge_weight(next(weights), indegree)
                if new_w != old_w:
                    in_src[i] = (target, new_w, False)

    # ------------------------------------------------------------------
    # posting deltas: ``added`` / ``removed`` against the base's text
    # postings, ``rel_added`` to its relation-name postings
    # ------------------------------------------------------------------
    @staticmethod
    def _nodes(delta: dict, committed: dict, term: str):
        """``term``'s current node set in a delta map, uncopied."""
        nodes = delta.get(term)
        return committed.get(term, ()) if nodes is None else nodes

    @staticmethod
    def _edit_nodes(delta: dict, committed: dict, term: str) -> set[int]:
        """This batch's own copy of ``term``'s node set in a delta map."""
        nodes = delta.get(term)
        if nodes is None:
            nodes = delta[term] = set(committed.get(term, ()))
        return nodes

    def _post_add(self, term: str, node: int) -> None:
        ds = self._ds
        if node in self._nodes(self.removed, ds._removed, term):
            self._edit_nodes(self.removed, ds._removed, term).discard(node)
        else:
            base = ds._base_post.get(term)
            if base is None or node not in base:
                self._edit_nodes(self.added, ds._added, term).add(node)

    def _post_remove(self, term: str, node: int) -> None:
        ds = self._ds
        if node in self._nodes(self.added, ds._added, term):
            self._edit_nodes(self.added, ds._added, term).discard(node)
        else:
            base = ds._base_post.get(term)
            if base is not None and node in base:
                self._edit_nodes(self.removed, ds._removed, term).add(node)
