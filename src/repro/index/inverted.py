"""Inverted keyword index: term -> set of graph nodes.

Mirrors the paper's "single index ... built on values from selected
string-valued attributes from multiple tables. The index maps from
keywords to (table-name, tuple-id) pairs" (Section 3); since tuples map
1:1 to graph nodes we store node ids directly.

Relation-name semantics (Section 2.2): "if a term matches a relation
name, all tuples in the relation are assumed to match the term".
Relation names are tokenized too, so the keyword ``paper`` matches every
row of a ``paper`` table even if no title contains the word.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping, Optional

from repro.index.tokenizer import normalize_term, tokenize

__all__ = ["InvertedIndex", "build_index"]


class InvertedIndex:
    """Maps normalized terms to the set of matching graph nodes.

    Lookups are memoized per term: :meth:`lookup` materializes a
    frozenset from the mutable posting sets, and repeated queries for
    the same term (the hot path — the engine resolves every keyword of
    every query) must not pay that copy again.  The memo is kept
    *coherent* with construction: ``add_text`` / ``add_term`` /
    ``add_relation_node`` after a lookup invalidate exactly the terms
    they touch, so interleaving reads and writes can never serve a
    stale frozenset.  Only known terms are memoized — unknown query
    terms must not grow the cache unboundedly.
    """

    def __init__(self) -> None:
        self._postings: dict[str, set[int]] = {}
        self._relation_nodes: dict[str, set[int]] = {}
        self._lookup_cache: dict[str, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_text(self, node: int, text: str) -> None:
        """Index every token of ``text`` for ``node``."""
        for term in tokenize(text):
            self._postings.setdefault(term, set()).add(node)
            self._lookup_cache.pop(term, None)

    def add_term(self, node: int, term: str) -> None:
        """Index a single already-normalized term for ``node``."""
        key = normalize_term(term)
        self._postings.setdefault(key, set()).add(node)
        self._lookup_cache.pop(key, None)

    def add_relation_node(self, relation: str, node: int) -> None:
        """Register ``node`` as a tuple of ``relation`` so that keywords
        matching the relation name match the node."""
        for term in tokenize(relation):
            self._relation_nodes.setdefault(term, set()).add(node)
            self._lookup_cache.pop(term, None)

    @classmethod
    def _from_postings(
        cls,
        postings: dict[str, Iterable[int]],
        relation_nodes: dict[str, Iterable[int]],
    ) -> "InvertedIndex":
        """Rebuild an index from already-normalized posting maps.

        Live compaction folds an epoch's overlaid maps through this;
        terms are stored verbatim (no re-tokenization) and every posting
        set is copied, so the rebuilt index answers lookups identically
        to the one it was folded from.
        """
        return cls._from_maps(
            {term: set(nodes) for term, nodes in postings.items()},
            {term: set(nodes) for term, nodes in relation_nodes.items()},
        )

    @classmethod
    def _from_maps(
        cls,
        postings: Mapping[str, AbstractSet[int]],
        relation_nodes: Mapping[str, AbstractSet[int]],
    ) -> "InvertedIndex":
        """An index over the given posting maps, stored uncopied.

        Any term -> node-set mapping will do; a live epoch's index reads
        a copy-on-write overlay of its base's maps
        (:mod:`repro.live.overlay`), and only dicts of sets take the
        ``add_*`` mutators.
        """
        index = cls()
        index._postings = postings
        index._relation_nodes = relation_nodes
        return index

    def _export_postings(
        self,
    ) -> tuple[Mapping[str, AbstractSet[int]], Mapping[str, AbstractSet[int]]]:
        """The raw posting maps, for snapshot serialization and live
        compaction."""
        return self._postings, self._relation_nodes

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, term: str) -> frozenset[int]:
        """All nodes matching ``term``: text matches plus relation-name
        matches.  Empty frozenset when the term is unknown.

        Memoized per term; any ``add_*`` touching the term invalidates
        its entry (see the class docstring), so a lookup after an add
        always reflects the add.
        """
        key = normalize_term(term)
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        text_nodes = self._postings.get(key)
        rel_nodes = self._relation_nodes.get(key)
        if text_nodes is None and rel_nodes is None:
            return frozenset()
        if rel_nodes is None:
            result = frozenset(text_nodes)
        elif text_nodes is None:
            result = frozenset(rel_nodes)
        else:
            result = frozenset(text_nodes | rel_nodes)
        self._lookup_cache[key] = result
        return result

    def frequency(self, term: str) -> int:
        """Origin-set size of ``term`` (paper: "#Keyword nodes")."""
        return len(self.lookup(term))

    def has_term(self, term: str) -> bool:
        key = normalize_term(term)
        return key in self._postings or key in self._relation_nodes

    def terms(self) -> Iterator[str]:
        """All indexed text terms (relation-name-only terms excluded)."""
        return iter(self._postings.keys())

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def terms_by_frequency(self) -> list[tuple[str, int]]:
        """Text terms with posting sizes, most frequent first.

        Used by the workload generator to pick keywords from a target
        origin-size band (paper Section 5.6 categories).
        """
        return sorted(
            ((term, len(nodes)) for term, nodes in self._postings.items()),
            key=lambda item: (-item[1], item[0]),
        )

    def __len__(self) -> int:
        return self.vocabulary_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvertedIndex(terms={len(self._postings)}, "
            f"relations={len(self._relation_nodes)})"
        )


def build_index(
    db,
    graph,
    *,
    text_columns: Optional[dict[str, Iterable[str]]] = None,
) -> InvertedIndex:
    """Build the keyword index of ``db`` against graph node ids.

    Parameters
    ----------
    db:
        Source :class:`~repro.relational.Database`.
    graph:
        The :class:`~repro.graph.SearchGraph` built from ``db`` (node
        ids are resolved via its ``(table, pk)`` references).
    text_columns:
        Optional override mapping table name -> columns to index; by
        default each table's declared ``text_columns`` are used.
    """
    index = InvertedIndex()
    for table in db.schema.tables:
        columns = (
            tuple(text_columns.get(table.name, ()))
            if text_columns is not None
            else table.text_columns
        )
        for row in db.rows(table.name):
            node = graph.node_by_ref(table.name, row[table.pk])
            index.add_relation_node(table.name, node)
            for column in columns:
                value = row[column]
                if value:
                    index.add_text(node, str(value))
    return index
