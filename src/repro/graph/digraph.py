"""Mutable weighted directed data graph (the BANKS data model, Section 2.1).

A :class:`DataGraph` is the *construction-time* representation: nodes are
entities (tuples, XML elements, web pages) and edges are forward
relationships (foreign keys, containment, hrefs).  Once built it is
frozen into an immutable, compact :class:`~repro.graph.searchgraph.SearchGraph`
that additionally materializes the derived backward edges and is what the
search algorithms run on.

Only small node identifiers, labels and table tags live in the graph;
attribute values stay in the relational store, mirroring the paper's
"the in-memory graph structure is really only an index" (Section 5.1).
"""

from __future__ import annotations

from math import inf
from typing import Hashable, Iterable, Iterator, Optional

from repro.errors import GraphError, GraphFrozenError, UnknownNodeError
from repro.graph.weights import DEFAULT_FORWARD_WEIGHT

__all__ = ["DataGraph"]


class DataGraph:
    """Weighted directed graph under construction.

    Nodes are dense integer ids assigned by :meth:`add_node` in order.
    Edges are *forward* edges only; backward edges are derived at freeze
    time (see :mod:`repro.graph.weights`).

    Parallel edges are allowed (two relationships may link the same pair
    of tuples); self loops are rejected because answer trees never use
    them and they would corrupt the backward-weight indegree count.
    """

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._tables: list[Optional[str]] = []
        self._refs: list[Optional[tuple[str, Hashable]]] = []
        self._edges: list[tuple[int, int, float]] = []
        self._indegree: list[int] = []
        self._outdegree: list[int] = []
        self._frozen = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        label: str = "",
        *,
        table: Optional[str] = None,
        ref: Optional[tuple[str, Hashable]] = None,
    ) -> int:
        """Add a node and return its integer id.

        Parameters
        ----------
        label:
            Human-readable display label (used by renderers only).
        table:
            Name of the relation this node's tuple belongs to, if any.
        ref:
            Back-reference ``(table_name, primary_key)`` into the
            relational store, if the node was built from a tuple.
        """
        self._check_mutable()
        node = len(self._labels)
        self._labels.append(label)
        self._tables.append(table)
        self._refs.append(ref)
        self._indegree.append(0)
        self._outdegree.append(0)
        return node

    def add_edge(self, u: int, v: int, weight: float = DEFAULT_FORWARD_WEIGHT) -> None:
        """Add a forward edge ``u -> v`` with the given positive weight."""
        self._check_mutable()
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self loops are not allowed (node {u})")
        if not 0.0 < weight < inf:  # NaN fails too
            raise GraphError(f"edge weight must be finite and > 0, got {weight!r}")
        self._edges.append((u, v, float(weight)))
        self._outdegree[u] += 1
        self._indegree[v] += 1

    def add_nodes(self, labels: Iterable[str]) -> list[int]:
        """Add one node per label; convenience for tests and examples."""
        return [self.add_node(label) for label in labels]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of *forward* edges."""
        return len(self._edges)

    def label(self, node: int) -> str:
        self._check_node(node)
        return self._labels[node]

    def table(self, node: int) -> Optional[str]:
        self._check_node(node)
        return self._tables[node]

    def ref(self, node: int) -> Optional[tuple[str, Hashable]]:
        self._check_node(node)
        return self._refs[node]

    def indegree(self, node: int) -> int:
        """Forward indegree (used for backward-edge weights)."""
        self._check_node(node)
        return self._indegree[node]

    def outdegree(self, node: int) -> int:
        self._check_node(node)
        return self._outdegree[node]

    def forward_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, weight)`` for every forward edge, insertion order."""
        return iter(self._edges)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataGraph(nodes={self.num_nodes}, forward_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------
    def freeze(self, prestige=None):
        """Freeze into an immutable :class:`SearchGraph`.

        Parameters
        ----------
        prestige:
            Optional precomputed per-node prestige vector.  When omitted
            the search graph is built with uniform prestige and
            :func:`repro.graph.prestige.compute_prestige` can be applied
            afterwards via :meth:`SearchGraph.with_prestige`.
        """
        from repro.graph.searchgraph import SearchGraph  # local: avoid cycle

        self._frozen = True
        return SearchGraph._from_datagraph(self, prestige=prestige)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphFrozenError(
                "DataGraph has been frozen; build a new one to mutate"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._labels):
            raise UnknownNodeError(node)
