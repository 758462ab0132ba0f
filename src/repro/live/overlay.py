"""Copy-on-write read views over a frozen graph + index (live subsystem).

An :class:`OverlayGraph` presents the full
:class:`~repro.graph.searchgraph.SearchGraph` read API — adjacency,
labels, refs, prestige, activation normalizers — over an immutable
*base* graph plus per-node deltas: nodes whose adjacency changed carry
a full replacement tuple, appended nodes carry extension metadata, and
everything untouched reads straight from the base with zero copying.
An :class:`OverlayIndex` does the same for the inverted index: posting
deltas (adds and removals) over a frozen base.

Both views are **immutable**: :class:`~repro.live.MutableDataset`
builds a fresh pair per committed epoch, which is what gives the
service tier its MVCC semantics — an in-flight search holds one epoch's
views and can never observe a later commit.

The views preserve *byte-level* fidelity with a from-scratch rebuild of
the same final state: adjacency tuples keep global edge-insertion
order, the activation normalizers are summed in that same order, and
weights are the exact floats :func:`~repro.graph.weights.backward_edge_weight`
produces — the property ``tests/property/test_prop_live.py`` pins.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Iterator, Mapping, Optional, Sequence

from repro.errors import UnknownNodeError
from repro.graph.searchgraph import Edge, SearchGraph
from repro.index.inverted import InvertedIndex
from repro.index.tokenizer import normalize_term

if TYPE_CHECKING:
    import numpy as np

__all__ = ["OverlayGraph", "OverlayIndex"]

_EMPTY: tuple[Edge, ...] = ()
_EMPTY_NODES: frozenset[int] = frozenset()


class OverlayGraph:
    """Immutable search-graph view: a frozen base plus committed deltas.

    Built by :meth:`~repro.live.MutableDataset.commit`; not meant for
    direct construction.  ``out_over`` / ``in_over`` map *touched* node
    ids to their full replacement adjacency tuples (appended nodes
    included); the ``*_ext`` sequences carry metadata for nodes beyond
    ``base.num_nodes``; ``prestige_base`` replaces the base's prestige
    vector so a recomputed ranking can ride a commit without copying
    the graph.
    """

    def __init__(
        self,
        base: SearchGraph,
        *,
        out_over: Mapping[int, tuple[Edge, ...]],
        in_over: Mapping[int, tuple[Edge, ...]],
        labels_ext: Sequence[str] = (),
        tables_ext: Sequence[Optional[str]] = (),
        refs_ext: Sequence[Optional[tuple[str, Hashable]]] = (),
        prestige_base: Optional[Sequence[float]] = None,
        prestige_ext: Sequence[float] = (),
        num_forward_edges: Optional[int] = None,
        num_edges: Optional[int] = None,
        out_invw_over: Optional[Mapping[int, float]] = None,
        in_invw_over: Optional[Mapping[int, float]] = None,
    ) -> None:
        self._base = base
        self._base_n = base.num_nodes
        self._out_over = dict(out_over)
        self._in_over = dict(in_over)
        self._labels_ext = tuple(labels_ext)
        self._tables_ext = tuple(tables_ext)
        self._refs_ext = tuple(refs_ext)
        if not len(self._labels_ext) == len(self._tables_ext) == len(self._refs_ext):
            raise ValueError("extension metadata lengths disagree")
        # The base's own tuple, shared; a caller's replacement passes
        # the one validator both graph kinds use.
        self._prestige_base = (
            base.prestige_values
            if prestige_base is None
            else SearchGraph._validate_prestige(prestige_base, self._base_n)
        )
        self._prestige_ext = tuple(float(p) for p in prestige_ext)
        if len(self._prestige_ext) != len(self._labels_ext):
            raise ValueError("prestige extension length disagrees with metadata")
        self._num_forward_edges = (
            int(num_forward_edges)
            if num_forward_edges is not None
            else base.num_forward_edges
        )
        self._num_edges = int(num_edges) if num_edges is not None else base.num_edges
        self._out_invw_over = dict(out_invw_over or {})
        self._in_invw_over = dict(in_invw_over or {})
        self._prestige_cache: Optional[np.ndarray] = None
        self._ref_to_node_ext: Optional[dict] = None

    # ------------------------------------------------------------------
    # basic accessors (SearchGraph read API)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._base_n + len(self._labels_ext)

    @property
    def num_forward_edges(self) -> int:
        return self._num_forward_edges

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_edges(self, u: int) -> Sequence[Edge]:
        over = self._out_over.get(u)
        if over is not None:
            return over
        if u < self._base_n:
            return self._base.out_edges(u)
        self._check_node(u)
        return _EMPTY

    def in_edges(self, v: int) -> Sequence[Edge]:
        over = self._in_over.get(v)
        if over is not None:
            return over
        if v < self._base_n:
            return self._base.in_edges(v)
        self._check_node(v)
        return _EMPTY

    def out_degree(self, u: int) -> int:
        return len(self.out_edges(u))

    def in_degree(self, v: int) -> int:
        return len(self.in_edges(v))

    def label(self, node: int) -> str:
        if node < self._base_n:
            return self._base.label(node)
        self._check_node(node)
        return self._labels_ext[node - self._base_n]

    def table(self, node: int) -> Optional[str]:
        if node < self._base_n:
            return self._base.table(node)
        self._check_node(node)
        return self._tables_ext[node - self._base_n]

    def ref(self, node: int) -> Optional[tuple[str, Hashable]]:
        if node < self._base_n:
            return self._base.ref(node)
        self._check_node(node)
        return self._refs_ext[node - self._base_n]

    def node_by_ref(self, table: str, pk: Hashable) -> int:
        if self._ref_to_node_ext is None:
            self._ref_to_node_ext = {
                ref: self._base_n + i
                for i, ref in enumerate(self._refs_ext)
                if ref is not None
            }
        node = self._ref_to_node_ext.get((table, pk))
        if node is not None:
            return node
        return self._base.node_by_ref(table, pk)

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def edge_weight(self, u: int, v: int) -> float:
        """Smallest weight among (possibly parallel) edges ``u -> v``."""
        best = None
        for target, w, _ in self.out_edges(u):
            if target == v and (best is None or w < best):
                best = w
        if best is None:
            raise UnknownNodeError(v)
        return best

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayGraph(nodes={self.num_nodes}, "
            f"forward_edges={self.num_forward_edges}, "
            f"touched={len(self._out_over)})"
        )

    # ------------------------------------------------------------------
    # prestige and activation support
    # ------------------------------------------------------------------
    @property
    def prestige(self) -> np.ndarray:
        """Full per-node prestige vector (read-only ndarray, built on
        first use, as :attr:`SearchGraph.prestige` is)."""
        if self._prestige_cache is None:
            import numpy as np

            vec = np.array(self.prestige_values, dtype=np.float64)
            vec.flags.writeable = False
            self._prestige_cache = vec
        return self._prestige_cache

    @cached_property
    def prestige_values(self) -> tuple[float, ...]:
        """The same vector as Python floats (what the scorer indexes)."""
        return self._prestige_base + self._prestige_ext

    def node_prestige(self, node: int) -> float:
        if node < self._base_n:
            if node < 0:
                raise UnknownNodeError(node)
            return self._prestige_base[node]
        self._check_node(node)
        return self._prestige_ext[node - self._base_n]

    @cached_property
    def max_prestige(self) -> float:
        # Read once per scorer, not per commit: an O(n) pass a replayed
        # epoch nobody searches never pays.
        return max(
            max(self._prestige_base, default=0.0),
            max(self._prestige_ext, default=0.0),
        )

    def in_inv_weight_sum(self, v: int) -> float:
        over = self._in_invw_over.get(v)
        if over is not None:
            return over
        if v < self._base_n:
            return self._base.in_inv_weight_sum(v)
        self._check_node(v)
        return 0.0

    def out_inv_weight_sum(self, u: int) -> float:
        over = self._out_invw_over.get(u)
        if over is not None:
            return over
        if u < self._base_n:
            return self._base.out_inv_weight_sum(u)
        self._check_node(u)
        return 0.0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise UnknownNodeError(node)


class OverlayIndex:
    """Immutable inverted-index view: a frozen base plus posting deltas.

    ``added`` / ``removed`` carry per-term node deltas against the
    base's *text* postings; ``rel_added`` extends the relation-name
    postings (relation membership is never removed — dropping a tuple
    from a relation is a remove-edge/rebuild concern, not a text
    update).  All payload sets are frozensets: the view is shared by
    concurrent searches of one epoch.
    """

    def __init__(
        self,
        base: InvertedIndex,
        *,
        added: Optional[Mapping[str, frozenset[int]]] = None,
        removed: Optional[Mapping[str, frozenset[int]]] = None,
        rel_added: Optional[Mapping[str, frozenset[int]]] = None,
    ) -> None:
        self._base = base
        base_post, base_rel = base._export_postings()
        self._base_post = base_post
        self._base_rel = base_rel
        self._added = {term: frozenset(nodes) for term, nodes in (added or {}).items()}
        self._removed = {
            term: frozenset(nodes) for term, nodes in (removed or {}).items()
        }
        self._rel_added = {
            term: frozenset(nodes) for term, nodes in (rel_added or {}).items()
        }
        # Same memo InvertedIndex.lookup carries, and even simpler to
        # justify: this view is immutable, so entries never go stale.
        # Known terms only — unknown query terms must not grow it.
        self._lookup_cache: dict[str, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # lookup (InvertedIndex read API)
    # ------------------------------------------------------------------
    def _text_nodes(self, key: str) -> frozenset[int]:
        """Final text postings of an already-normalized term."""
        base = self._base_post.get(key)
        added = self._added.get(key, _EMPTY_NODES)
        removed = self._removed.get(key, _EMPTY_NODES)
        if base is None:
            return frozenset(added)
        if not added and not removed:
            return frozenset(base)
        return frozenset((base - removed) | added)

    def _rel_nodes(self, key: str) -> frozenset[int]:
        base = self._base_rel.get(key)
        added = self._rel_added.get(key, _EMPTY_NODES)
        if base is None:
            return frozenset(added)
        if not added:
            return frozenset(base)
        return frozenset(base | added)

    def lookup(self, term: str) -> frozenset[int]:
        """All nodes matching ``term`` in this epoch: text matches plus
        relation-name matches.  Memoized per term (the view is
        immutable, so the memo can never go stale)."""
        key = normalize_term(term)
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        result = self._text_nodes(key) | self._rel_nodes(key)
        if result:
            self._lookup_cache[key] = result
        return result

    def frequency(self, term: str) -> int:
        return len(self.lookup(term))

    def has_term(self, term: str) -> bool:
        return bool(self.lookup(term))

    def terms(self) -> Iterator[str]:
        """All text terms with at least one live posting."""
        for term in self._base_post:
            if self._text_nodes(term):
                yield term
        for term in self._added:
            if term not in self._base_post and self._added[term]:
                yield term

    def vocabulary_size(self) -> int:
        return sum(1 for _ in self.terms())

    def terms_by_frequency(self) -> list[tuple[str, int]]:
        """Text terms with live posting sizes, most frequent first."""
        return sorted(
            ((term, len(self._text_nodes(term))) for term in self.terms()),
            key=lambda item: (-item[1], item[0]),
        )

    def __len__(self) -> int:
        return self.vocabulary_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayIndex(base_terms={len(self._base_post)}, "
            f"added={len(self._added)}, removed={len(self._removed)})"
        )

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def materialize(self) -> InvertedIndex:
        """Fold the deltas into a flat :class:`InvertedIndex` (what
        compaction re-bases on)."""
        postings: dict[str, set[int]] = {}
        for term in self._base_post:
            nodes = self._text_nodes(term)
            if nodes:
                postings[term] = set(nodes)
        for term, nodes in self._added.items():
            if term not in self._base_post and nodes:
                postings[term] = set(nodes)
        relations: dict[str, set[int]] = {
            term: set(nodes) for term, nodes in self._base_rel.items()
        }
        for term, nodes in self._rel_added.items():
            relations.setdefault(term, set()).update(nodes)
        return InvertedIndex._from_postings(postings, relations)
