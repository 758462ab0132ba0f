"""Keyword tuple sets for candidate-network search (Discover/Sparse).

For a query ``{t_1..t_n}`` and each relation ``R``, the tuple set
``R^K`` contains the tuples of ``R`` whose matched-keyword set is
*exactly* ``K`` (the partition definition of Hristidis &
Papakonstantinou's Discover).  ``R^{}`` — the *free* tuple set — is the
whole relation and serves as connector material in candidate networks.

Matching reuses the library tokenizer, including the relation-name rule
(a keyword equal to a relation name matches every tuple of it), so
Sparse and the graph algorithms see the same keyword semantics.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.index.tokenizer import normalize_term, tokenize

__all__ = ["TupleSets"]


class TupleSets:
    """Partition of each relation by exact matched-keyword subset."""

    def __init__(self, db, keywords: Sequence[str]) -> None:
        self.db = db
        self.keywords = tuple(normalize_term(k) for k in keywords)
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError("duplicate keywords in query")
        self._matched: dict[str, dict[Hashable, frozenset[str]]] = {}
        self._partition: dict[str, dict[frozenset[str], list[Hashable]]] = {}
        self._build()

    def _build(self) -> None:
        query = set(self.keywords)
        for table in self.db.schema.tables:
            relation_matches = query & set(tokenize(table.name))
            matched_map: dict[Hashable, frozenset[str]] = {}
            partition: dict[frozenset[str], list[Hashable]] = {}
            for row in self.db.rows(table.name):
                tokens = set(relation_matches)
                for column in table.text_columns:
                    value = row[column]
                    if value:
                        tokens.update(t for t in tokenize(str(value)) if t in query)
                key = frozenset(tokens)
                pk = row[table.pk]
                matched_map[pk] = key
                partition.setdefault(key, []).append(pk)
            self._matched[table.name] = matched_map
            self._partition[table.name] = partition

    # ------------------------------------------------------------------
    def matched(self, table: str, pk: Hashable) -> frozenset[str]:
        """Query keywords matched by one tuple."""
        return self._matched[table].get(pk, frozenset())

    def members(self, table: str, subset: frozenset[str]) -> list[Hashable]:
        """Primary keys of ``table``'s tuples matching exactly ``subset``.

        The free tuple set (``subset == frozenset()`` requested via
        :meth:`free_members`) is *not* this — the empty partition class
        holds only tuples matching no keyword.
        """
        return self._partition[table].get(frozenset(subset), [])

    def free_members(self, table: str) -> list[Hashable]:
        """All tuples of ``table`` (the free tuple set ``R^{}``)."""
        return list(self.db.primary_keys(table))

    def has(self, table: str, subset: frozenset[str]) -> bool:
        """Is the non-free tuple set ``R^subset`` non-empty?

        Sparse prunes candidate networks referencing empty tuple sets
        before executing anything.
        """
        return bool(self._partition[table].get(frozenset(subset)))

    def in_tuple_set(self, table: str, pk: Hashable, subset: frozenset[str]) -> bool:
        """Membership test used during CN execution: free sets admit
        anything, non-free sets require the exact keyword subset."""
        if not subset:
            return True
        return self._matched[table].get(pk, frozenset()) == frozenset(subset)
