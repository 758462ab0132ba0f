"""``MutableDataset``: versioned live mutations over a frozen engine.

The paper's model assumes a static in-memory graph; a deployment's data
changes under live traffic.  This module closes that gap with an
MVCC-style epoch design:

* **Staging** — :meth:`MutableDataset.add_node` / :meth:`add_edge` /
  :meth:`remove_edge` / :meth:`update_text` apply structured mutations
  to *working* copy-on-write state: touched nodes get private
  adjacency lists, new nodes live in extension arrays, index changes
  live in posting deltas.  Nothing a search can see changes yet.
* **Commit** — :meth:`commit` freezes the working deltas into an
  immutable :class:`~repro.graph.SearchGraph` +
  :class:`~repro.index.InvertedIndex` pair whose storage is a
  copy-on-write overlay of the base's (:mod:`repro.live.overlay`),
  builds a fresh :class:`~repro.core.engine.KeywordSearchEngine` over
  them, and bumps the monotone ``version``.  In-flight searches keep
  the epoch they started on; new requests see the new one.
* **Compaction** — when the overlay grows past ``compact_ratio`` the
  deltas are folded back into flat :class:`~repro.graph.SearchGraph`
  arrays (adjacency order preserved, so scores stay bit-identical).
  Writing that state to disk is the serving tier's job: ``QueryService``
  stamps the file with the lineage version it serves.

Incremental maintenance is the subtle part: a forward edge into ``v``
changes ``indegree(v)``, and with it the weight of *every* derived
backward edge out of ``v`` (``w * log2(1 + indegree)``, paper
Section 2.3).  :meth:`add_edge` / :meth:`remove_edge` therefore reweight
``v``'s backward adjacency and each affected partner's in-list, and the
``sum(1/w)`` activation normalizers of touched nodes are re-summed in
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
from dataclasses import dataclass
from math import fsum, inf
from typing import Hashable, Optional, Sequence

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.errors import MutationError
from repro.graph.searchgraph import Edge, SearchGraph
from repro.graph.weights import DEFAULT_FORWARD_WEIGHT, backward_edge_weight
from repro.index.inverted import InvertedIndex
from repro.index.tokenizer import tokenize
from repro.live.mutations import (
    AddEdge,
    AddNode,
    Mutation,
    RemoveEdge,
    coerce_mutations,
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
    """Copy-on-write mutable view over a frozen graph + index pair.

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
    :meth:`mutate` / :meth:`commit` as ``journal`` (``QueryService.apply``
    passes its log's ``append``).
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
        self._commits = 0
        self._muts_since_compact = 0
        self._applied_total = 0
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
        """Reset all delta state on top of a new flat base (construction
        and compaction)."""
        self._base_graph = graph
        self._base_n = graph.num_nodes
        self._base_post, self._base_rel = index._export_postings()
        # Working (mutable) state — what staging edits.
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        self._labels_ext: list[str] = []
        self._tables_ext: list[Optional[str]] = []
        self._refs_ext: list[Optional[tuple[str, Hashable]]] = []
        self._prestige_ext: list[float] = []
        self._fwd_count = graph.num_forward_edges
        self._added: dict[str, set[int]] = {}
        self._removed: dict[str, set[int]] = {}
        self._rel_added: dict[str, set[int]] = {}
        self._node_terms: Optional[dict[int, set[str]]] = None
        # Committed (frozen) overlay — what epochs are built from.
        self._frozen_out: dict[int, tuple[Edge, ...]] = {}
        self._frozen_in: dict[int, tuple[Edge, ...]] = {}
        self._out_invw: dict[int, float] = {}
        self._in_invw: dict[int, float] = {}
        self._f_added: dict[str, frozenset[int]] = {}
        self._f_removed: dict[str, frozenset[int]] = {}
        self._f_rel_added: dict[str, frozenset[int]] = {}
        # Staging bookkeeping (cleared on commit, restored on rollback).
        self._dirty_nodes: set[int] = set()
        self._dirty_terms: set[str] = set()
        self._staged = 0
        # Wire-dict mirror of the staged mutations, aliases resolved —
        # what a commit's journal records so replay is exact.
        self._staged_wire: list[dict] = []
        self._committed_ext = 0
        self._committed_fwd = self._fwd_count
        self._committed_muts = self._muts_since_compact

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

    def replay_records(
        self, records, *, expected: int, strict: bool = True
    ) -> int:
        """Apply an iterable of :class:`~repro.wal.WalRecord` in order.

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
                self._replay_record(record)
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

    def _replay_record(self, record) -> Epoch:
        """Apply one :class:`~repro.wal.WalRecord` as a single commit,
        journalled nowhere (the record *is* the journal)."""
        if record.refused is not None:
            raise MutationError(record.refused)
        with self._lock:
            batch = coerce_mutations(record.mutations)
            new_nodes: list[int] = []
            try:
                for mutation in batch:
                    self._apply_one(mutation, new_nodes)
            except Exception:
                self.rollback()
                raise
            return self.commit()

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

    def stats(self) -> dict:
        """Overlay size counters (for metrics and compaction tuning)."""
        with self._lock:
            return {
                "version": self._epoch.version,
                "commits": self._commits,
                "mutations_applied": self._applied_total,
                "base_nodes": self._base_n,
                "added_nodes": len(self._labels_ext),
                "touched_nodes": len(self._frozen_out),
                "forward_edges": self._fwd_count,
                "staged": self._staged,
                "mutations_since_compaction": self._muts_since_compact,
            }

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------
    def add_node(
        self,
        label: str = "",
        *,
        table: Optional[str] = None,
        ref: Optional[tuple[str, Hashable]] = None,
        text: Optional[str] = None,
        prestige: Optional[float] = None,
    ) -> int:
        """Stage a new node; returns its (immediately final) id.

        ``table`` registers the node under the relation name (paper
        Section 2.2 semantics: a keyword matching a relation name
        matches every tuple of it); ``text`` indexes the node's terms —
        together they mirror what :func:`repro.index.build_index` does
        for one inserted tuple.  ``prestige`` overrides the default, the
        base's mean prestige; the journal always records the resolved
        value, so replay assigns it bit-identically regardless of which
        snapshot lineage it starts from.
        """
        with self._lock:
            if prestige is None:
                prestige = self._new_node_prestige
            else:
                prestige = float(prestige)
                if prestige < 0:
                    raise MutationError(
                        f"prestige must be >= 0, got {prestige!r}"
                    )
            node = self._base_n + len(self._labels_ext)
            self._labels_ext.append(label)
            self._tables_ext.append(table)
            self._refs_ext.append(ref if ref is None else tuple(ref))
            self._prestige_ext.append(prestige)
            self._out[node] = []
            self._in[node] = []
            self._dirty_nodes.add(node)
            if table is not None:
                for term in tokenize(table):
                    self._rel_added.setdefault(term, set()).add(node)
                    self._dirty_terms.add(term)
            if text:
                terms = set(tokenize(text))
                for term in terms:
                    self._post_add(term, node)
                if self._node_terms is not None:
                    self._node_terms[node] = terms
            self._staged_wire.append(
                {
                    "op": "add_node",
                    "label": label,
                    "table": table,
                    "ref": list(ref) if ref is not None else None,
                    "text": text,
                    "prestige": prestige,
                }
            )
            self._staged += 1
            self._muts_since_compact += 1
            return node

    def add_edge(
        self, u: int, v: int, weight: float = DEFAULT_FORWARD_WEIGHT
    ) -> None:
        """Stage a forward edge ``u -> v`` plus its derived backward
        edge, reweighting ``v``'s other backward edges for the new
        indegree."""
        with self._lock:
            self._check_node(u, "add_edge u")
            self._check_node(v, "add_edge v")
            if u == v:
                raise MutationError(f"self loops are not allowed (node {u})")
            weight = float(weight)
            if not 0.0 < weight < inf:  # NaN fails too
                raise MutationError(
                    f"edge weight must be finite and > 0, got {weight!r}"
                )
            # Every backward weight into ``v`` is rescaled for the new
            # indegree: refuse the edge before staging it if the
            # heaviest would overflow.
            heaviest = max(
                [weight]
                + [w for _, w, forward in self._current_list(self._in, v) if forward]
            )
            try:
                backward_edge_weight(heaviest, self._fwd_indegree(v) + 1)
            except ValueError as exc:
                raise MutationError(str(exc)) from None
            self._wlist(self._out, u).append((v, weight, True))
            self._wlist(self._in, v).append((u, weight, True))
            indegree = self._fwd_indegree(v)
            bw = backward_edge_weight(weight, indegree)
            self._wlist(self._out, v).append((u, bw, False))
            self._wlist(self._in, u).append((v, bw, False))
            self._dirty_nodes.add(u)
            self._dirty_nodes.add(v)
            self._reweight_backward(v, indegree)
            self._fwd_count += 1
            self._staged_wire.append(
                {"op": "add_edge", "u": u, "v": v, "weight": weight}
            )
            self._staged += 1
            self._muts_since_compact += 1

    def remove_edge(
        self, u: int, v: int, weight: Optional[float] = None
    ) -> None:
        """Stage removal of one forward edge ``u -> v`` (the
        earliest-inserted match; ``weight`` narrows it among parallel
        edges), dropping its backward twin and reweighting ``v``'s
        remaining backward edges for the reduced indegree."""
        with self._lock:
            self._check_node(u, "remove_edge u")
            self._check_node(v, "remove_edge v")
            out_u = self._wlist(self._out, u)
            found = None
            for i, (target, w, forward) in enumerate(out_u):
                if (
                    forward
                    and target == v
                    and (weight is None or w == float(weight))
                ):
                    found = (i, w)
                    break
            if found is None:
                described = f"{u} -> {v}" + (
                    f" (weight {weight!r})" if weight is not None else ""
                )
                raise MutationError(f"no forward edge {described} to remove")
            i, w = found
            indegree_old = self._fwd_indegree(v)
            bw_old = backward_edge_weight(w, indegree_old)
            del out_u[i]
            self._remove_first(self._wlist(self._in, v), (u, w, True))
            self._remove_first(self._wlist(self._out, v), (u, bw_old, False))
            self._remove_first(self._wlist(self._in, u), (v, bw_old, False))
            self._dirty_nodes.add(u)
            self._dirty_nodes.add(v)
            indegree_new = indegree_old - 1
            if indegree_new:
                self._reweight_backward(v, indegree_new)
            self._fwd_count -= 1
            self._staged_wire.append(
                {"op": "remove_edge", "u": u, "v": v, "weight": w}
            )
            self._staged += 1
            self._muts_since_compact += 1

    def update_text(self, node: int, text: str) -> None:
        """Stage replacement of ``node``'s indexed text terms with the
        tokens of ``text`` (relation-name postings stay)."""
        with self._lock:
            self._check_node(node, "update_text node")
            node_terms = self._ensure_node_terms()
            old = node_terms.get(node, set())
            new = set(tokenize(text))
            for term in old - new:
                self._post_remove(term, node)
            for term in new - old:
                self._post_add(term, node)
            node_terms[node] = new
            self._staged_wire.append(
                {"op": "update_text", "node": node, "text": text}
            )
            self._staged += 1
            self._muts_since_compact += 1

    def mutate(self, mutations: Sequence, *, journal=None) -> MutationOutcome:
        """Apply a whole batch atomically, then commit.

        ``mutations`` holds mutation objects or their wire dicts
        (:mod:`repro.live.mutations`); negative node ids are batch
        aliases (``-(k+1)`` names the k-th ``AddNode`` of this batch).
        Any failure rolls back *all* uncommitted staging — a malformed
        batch never leaves half its edges behind — and re-raises.
        ``journal`` is the commit's write-ahead step (see
        :meth:`commit`).
        """
        with self._lock:
            batch = coerce_mutations(mutations)
            new_nodes: list[int] = []
            try:
                for mutation in batch:
                    self._apply_one(mutation, new_nodes)
                # Commit inside the same rollback scope: a journal
                # failure (disk full, misaligned log) must discard the
                # staging too, or the "failed" batch would silently
                # ride along with the next commit.  A failure *after*
                # the epoch is installed (in compaction) leaves nothing
                # staged, so the rollback below degrades to a no-op and
                # the commit stands.
                epoch = self.commit(journal=journal)
            except Exception:
                self.rollback()
                raise
            return MutationOutcome(
                epoch=epoch, applied=len(batch), new_nodes=tuple(new_nodes)
            )

    def _apply_one(self, mutation: Mutation, new_nodes: list[int]) -> None:
        if isinstance(mutation, AddNode):
            new_nodes.append(
                self.add_node(
                    mutation.label,
                    table=mutation.table,
                    ref=mutation.ref,
                    text=mutation.text,
                    prestige=mutation.prestige,
                )
            )
        elif isinstance(mutation, AddEdge):
            self.add_edge(
                self._resolve_alias(mutation.u, new_nodes),
                self._resolve_alias(mutation.v, new_nodes),
                mutation.weight,
            )
        elif isinstance(mutation, RemoveEdge):
            self.remove_edge(
                self._resolve_alias(mutation.u, new_nodes),
                self._resolve_alias(mutation.v, new_nodes),
                mutation.weight,
            )
        else:
            self.update_text(
                self._resolve_alias(mutation.node, new_nodes), mutation.text
            )

    @staticmethod
    def _resolve_alias(node: int, new_nodes: list[int]) -> int:
        if node >= 0:
            return node
        k = -node - 1
        if k >= len(new_nodes):
            raise MutationError(
                f"alias {node} refers to the {k + 1}th added node of this "
                f"batch, but only {len(new_nodes)} were added so far"
            )
        return new_nodes[k]

    def rollback(self) -> None:
        """Discard every staged-but-uncommitted change."""
        with self._lock:
            for node in self._dirty_nodes:
                if node >= self._base_n + self._committed_ext:
                    self._out.pop(node, None)
                    self._in.pop(node, None)
                    continue
                self._restore_list(self._out, self._frozen_out, node)
                self._restore_list(self._in, self._frozen_in, node)
            del self._labels_ext[self._committed_ext :]
            del self._tables_ext[self._committed_ext :]
            del self._refs_ext[self._committed_ext :]
            del self._prestige_ext[self._committed_ext :]
            for term in self._dirty_terms:
                self._restore_postings(self._added, self._f_added, term)
                self._restore_postings(self._removed, self._f_removed, term)
                self._restore_postings(self._rel_added, self._f_rel_added, term)
            self._fwd_count = self._committed_fwd
            self._muts_since_compact = self._committed_muts
            self._node_terms = None  # rebuilt lazily from committed state
            self._dirty_nodes.clear()
            self._dirty_terms.clear()
            self._staged = 0
            self._staged_wire.clear()

    # ------------------------------------------------------------------
    # commit / compaction
    # ------------------------------------------------------------------
    def commit(self, *, journal=None) -> Epoch:
        """Freeze staged changes into a new epoch (no-op when nothing
        is staged, so idle commits never invalidate caches).

        ``journal``, when given, is called *first* (write-ahead) as
        ``journal(batch)`` — a :class:`repro.wal.MutationLog`'s
        ``append`` fits — with the staged batch's wire form: aliases
        resolved to real node ids and every new node's prestige
        resolved, so :meth:`replay`
        reconstructs identical state.  A journal failure — disk full,
        sequence misalignment — raises here with the staged state
        intact (roll back or retry), and an epoch is never visible that
        the log does not contain.
        """
        with self._lock:
            if not self._staged:
                return self._epoch
            if journal is not None:
                journal(list(self._staged_wire))
            for node in self._dirty_nodes:
                out = self._current_list(self._out, node)
                in_ = self._current_list(self._in, node)
                self._frozen_out[node] = tuple(out)
                self._frozen_in[node] = tuple(in_)
                self._out_invw[node] = sum(1.0 / w for _, w, _ in out)
                self._in_invw[node] = sum(1.0 / w for _, w, _ in in_)
            for term in self._dirty_terms:
                self._freeze_postings(self._added, self._f_added, term)
                self._freeze_postings(self._removed, self._f_removed, term)
                self._freeze_postings(self._rel_added, self._f_rel_added, term)
            applied = self._staged
            self._dirty_nodes.clear()
            self._dirty_terms.clear()
            self._staged = 0
            self._staged_wire.clear()
            self._committed_ext = len(self._labels_ext)
            self._committed_fwd = self._fwd_count
            self._committed_muts = self._muts_since_compact
            self._applied_total += applied
            self._version += 1
            self._commits += 1

            graph = self._build_view()
            index = InvertedIndex._from_maps(
                OverlayPostings(self._base_post, self._f_added, self._f_removed),
                OverlayPostings(self._base_rel, self._f_rel_added),
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
            return self._epoch

    def compact(self) -> Epoch:
        """Fold the overlay into flat base arrays (committing any staged
        changes first).  Answers and scores are unchanged — adjacency
        order and every weight survive verbatim — so the version does
        *not* bump and cached results stay valid."""
        with self._lock:
            if self._staged:
                self.commit()
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
            self._muts_since_compact = 0  # before _rebase checkpoints it
            self._rebase(flat, flat_index)
            self._epoch = Epoch(
                version=self._version,
                graph=flat,
                index=flat_index,
                engine=KeywordSearchEngine(flat, flat_index, params=self._params),
                compacted=True,
            )
            return self._epoch

    # ------------------------------------------------------------------
    # working-state internals (lock held by callers)
    # ------------------------------------------------------------------
    def _check_node(self, node: int, what: str) -> None:
        if not 0 <= node < self._base_n + len(self._labels_ext):
            raise MutationError(f"{what}: node {node} does not exist")

    def _wlist(self, side: dict[int, list[Edge]], node: int) -> list[Edge]:
        """Copy-on-write working adjacency list for ``node``."""
        lst = side.get(node)
        if lst is None:
            frozen = self._frozen_out if side is self._out else self._frozen_in
            committed = frozen.get(node)
            if committed is not None:
                lst = list(committed)
            elif node < self._base_n:
                base = (
                    self._base_graph.out_edges(node)
                    if side is self._out
                    else self._base_graph.in_edges(node)
                )
                lst = list(base)
            else:  # pragma: no cover - ext nodes get lists at add_node
                lst = []
            side[node] = lst
        return lst

    def _current_list(self, side: dict[int, list[Edge]], node: int) -> Sequence[Edge]:
        """Read-only view of ``node``'s current adjacency (no copy)."""
        lst = side.get(node)
        if lst is not None:
            return lst
        frozen = self._frozen_out if side is self._out else self._frozen_in
        committed = frozen.get(node)
        if committed is not None:
            return committed
        if node < self._base_n:
            return (
                self._base_graph.out_edges(node)
                if side is self._out
                else self._base_graph.in_edges(node)
            )
        return ()

    def _restore_list(
        self,
        side: dict[int, list[Edge]],
        frozen: dict[int, tuple[Edge, ...]],
        node: int,
    ) -> None:
        committed = frozen.get(node)
        if committed is not None:
            side[node] = list(committed)
        else:
            side.pop(node, None)

    def _fwd_indegree(self, v: int) -> int:
        return sum(1 for _, _, forward in self._current_list(self._in, v) if forward)

    @staticmethod
    def _remove_first(lst: list[Edge], entry: Edge) -> None:
        try:
            lst.remove(entry)
        except ValueError:  # pragma: no cover - internal invariant
            raise MutationError(
                f"internal adjacency inconsistency removing {entry!r}"
            ) from None

    def _reweight_backward(self, v: int, indegree: int) -> None:
        """Re-derive every backward edge out of ``v`` for its new
        forward ``indegree``, updating both ``v``'s out-list and each
        source node's in-list (positional correspondence: the k-th
        backward entry pairs with the k-th forward edge into ``v``,
        both orders being global edge-insertion order)."""
        forward_sources = [
            (src, w) for src, w, forward in self._current_list(self._in, v) if forward
        ]
        out_v = self._wlist(self._out, v)
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
                for target, w, forward in self._current_list(self._out, src)
                if forward and target == v
            )
            in_src = self._wlist(self._in, src)
            for i, (target, old_w, forward) in enumerate(in_src):
                if forward or target != v:
                    continue
                new_w = backward_edge_weight(next(weights), indegree)
                if new_w != old_w:
                    in_src[i] = (target, new_w, False)
            self._dirty_nodes.add(src)

    # ------------------------------------------------------------------
    # index-delta internals (lock held by callers)
    # ------------------------------------------------------------------
    def _post_add(self, term: str, node: int) -> None:
        removed = self._removed.get(term)
        if removed is not None and node in removed:
            removed.discard(node)
        else:
            base = self._base_post.get(term)
            if base is None or node not in base:
                self._added.setdefault(term, set()).add(node)
        self._dirty_terms.add(term)
        if self._node_terms is not None:
            self._node_terms.setdefault(node, set()).add(term)

    def _post_remove(self, term: str, node: int) -> None:
        added = self._added.get(term)
        if added is not None and node in added:
            added.discard(node)
        else:
            base = self._base_post.get(term)
            if base is not None and node in base:
                self._removed.setdefault(term, set()).add(node)
        self._dirty_terms.add(term)
        if self._node_terms is not None:
            terms = self._node_terms.get(node)
            if terms is not None:
                terms.discard(term)

    def _ensure_node_terms(self) -> dict[int, set[str]]:
        """Reverse map node -> indexed text terms, built on first text
        update from the current (base + delta) posting state."""
        if self._node_terms is None:
            node_terms: dict[int, set[str]] = {}
            for term, nodes in self._base_post.items():
                for node in nodes:
                    node_terms.setdefault(node, set()).add(term)
            for term, nodes in self._removed.items():
                for node in nodes:
                    terms = node_terms.get(node)
                    if terms is not None:
                        terms.discard(term)
            for term, nodes in self._added.items():
                for node in nodes:
                    node_terms.setdefault(node, set()).add(term)
            self._node_terms = node_terms
        return self._node_terms

    @staticmethod
    def _freeze_postings(
        working: dict[str, set], frozen: dict[str, frozenset], term: str
    ) -> None:
        nodes = working.get(term)
        if nodes:
            frozen[term] = frozenset(nodes)
        else:
            working.pop(term, None)
            frozen.pop(term, None)

    @staticmethod
    def _restore_postings(working: dict, frozen: dict, term: str) -> None:
        committed = frozen.get(term)
        if committed is not None:
            working[term] = set(committed)
        else:
            working.pop(term, None)

    # ------------------------------------------------------------------
    # view construction (lock held by callers)
    # ------------------------------------------------------------------
    def _build_view(self) -> SearchGraph:
        base, start = self._base_graph, self._base_n
        new = range(start, start + len(self._labels_ext))

        def overlay(rows, replaced: dict) -> Overlay:
            return Overlay(rows, replaced, [replaced[u] for u in new])

        return SearchGraph._from_rows(
            out=overlay(base._out, self._frozen_out),
            in_=overlay(base._in, self._frozen_in),
            labels=Overlay(base._labels, {}, self._labels_ext),
            tables=Overlay(base._tables, {}, self._tables_ext),
            refs=Overlay(base._refs, {}, self._refs_ext),
            num_forward_edges=self._fwd_count,
            # Validated piecewise: the base's tuple, and each appended
            # node's float at add_node.
            prestige=base.prestige_values + tuple(self._prestige_ext),
            in_inv_weight_sum=overlay(base._in_inv_weight_sum, self._in_invw),
            out_inv_weight_sum=overlay(base._out_inv_weight_sum, self._out_invw),
            ref_to_node=OverlayRefs(base, self._refs_ext, start),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableDataset(version={self.version}, "
            f"nodes={self._base_n + len(self._labels_ext)}, "
            f"forward_edges={self._fwd_count})"
        )
