"""Copy-on-write storage behind a live epoch's graph and index.

A committed epoch of a :class:`~repro.live.MutableDataset` is a plain
:class:`~repro.graph.searchgraph.SearchGraph` +
:class:`~repro.index.inverted.InvertedIndex` pair, exactly as a
snapshot-loaded one is (:mod:`repro.storage.mapped`): the read API is
the classes' own, and only where the data is kept differs.  Every
per-node sequence of the graph — both adjacency sides, labels, tables,
refs and the two activation normalizers — is an :class:`Overlay`: the
base graph's own sequence, plus the rows commits replaced, plus the
rows of appended nodes, so everything untouched reads straight from the
base with zero copying.  The index's two posting maps are
:class:`OverlayPostings`: the base's map plus per-term node deltas.

All three are **immutable**: :class:`~repro.live.MutableDataset`
builds fresh ones per committed epoch over the committed delta maps,
which a commit replaces and never edits, so an overlay holds them
uncopied.  That is what gives the service tier its MVCC semantics —
an in-flight search holds one epoch's graph and index and can never
observe a later commit.

The storage preserves *byte-level* fidelity with a from-scratch rebuild
of the same final state: adjacency tuples keep global edge-insertion
order, the activation normalizers are summed in that same order, and
weights are the exact floats :func:`~repro.graph.weights.backward_edge_weight`
produces — the property ``tests/property/test_prop_live.py`` pins.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable, Iterator, Mapping, Optional, Sequence

__all__ = ["Overlay", "OverlayPostings", "OverlayRefs"]

_NO_NODES: frozenset[int] = frozenset()


class Overlay(Sequence):
    """A base sequence with replaced and appended rows.

    ``over`` maps indices to replacement rows (it may name appended
    indices too; a replacement wins), ``ext`` holds the rows past the
    end of ``base``.  Both are held as given, uncopied: the caller
    never edits them afterwards.  Callers bound the index first (the
    graph's ``_check_node``), so a read is one dict probe and one index
    into the base's own sequence.
    """

    __slots__ = ("_base", "_n", "_over", "_ext")

    def __init__(
        self, base: Sequence, over: Mapping[int, object], ext: Sequence = ()
    ) -> None:
        self._base = base
        self._n = len(base)
        self._over = over
        self._ext = ext

    def __len__(self) -> int:
        return self._n + len(self._ext)

    def __getitem__(self, i: int):
        row = self._over.get(i)
        if row is None:
            n = self._n
            row = self._base[i] if i < n else self._ext[i - n]
        return row


class OverlayRefs:
    """``(table, pk) -> node`` for an overlaid graph: the appended
    nodes' refs first (the later node wins, as in a rebuild), then the
    base graph's own map, which the base builds once on first use and
    every epoch over it shares."""

    __slots__ = ("_base", "_ext")

    def __init__(
        self, base, refs_ext: Sequence[Optional[tuple[str, Hashable]]], start: int
    ) -> None:
        self._base = base
        self._ext = {
            ref: node for node, ref in enumerate(refs_ext, start) if ref is not None
        }

    def __getitem__(self, ref: tuple[str, Hashable]) -> int:
        node = self._ext.get(ref)
        return self._base.node_by_ref(*ref) if node is None else node


class OverlayPostings(Mapping):
    """Term -> node set: ``(base - removed) | added`` per term.

    ``added`` / ``removed`` hold non-empty per-term node deltas against
    ``base`` (removals only of nodes ``base`` holds), held as given,
    uncopied: the caller never edits them afterwards.  A term left with
    no node is not a key, as in an index rebuilt from the same state;
    terms iterate in the base's order, then the added terms it lacks.
    """

    __slots__ = ("_base", "_added", "_removed")

    def __init__(
        self,
        base: Mapping[str, AbstractSet[int]],
        added: Mapping[str, frozenset[int]],
        removed: Optional[Mapping[str, frozenset[int]]] = None,
    ) -> None:
        self._base = base
        self._added = added
        self._removed = {} if removed is None else removed

    def __getitem__(self, term: str) -> AbstractSet[int]:
        added = self._added.get(term, _NO_NODES)
        nodes = self._base.get(term)
        if nodes is None:
            if added:
                return added
            raise KeyError(term)
        removed = self._removed.get(term)
        if removed is not None:
            nodes = nodes - removed
        if added:
            nodes = nodes | added
        if not nodes:
            raise KeyError(term)
        return nodes

    def __iter__(self) -> Iterator[str]:
        base, removed = self._base, self._removed
        for term in base:
            if term not in removed or term in self:
                yield term
        for term in self._added:
            if term not in base:
                yield term

    def __len__(self) -> int:
        base = self._base
        return (
            len(base)
            + sum(term not in base for term in self._added)
            - sum(term not in self for term in self._removed)
        )
