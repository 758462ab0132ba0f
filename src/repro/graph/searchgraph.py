"""Frozen search graph: forward + derived backward edges.

The :class:`SearchGraph` is what every search algorithm operates on.  It
contains, for each original forward edge ``u -> v`` of the
:class:`~repro.graph.digraph.DataGraph`, both that edge and the derived
backward edge ``v -> u`` weighted per :func:`repro.graph.weights.backward_edge_weight`.
Answer trees are rooted directed trees over this combined edge set
(paper Sections 2.1 and 2.3).

Adjacency is tuple-based, one row of ``(neighbour, weight, is_forward)``
per node and direction: what the per-pop search loops iterate.  The
only array form of a graph is a snapshot's (:mod:`repro.service.snapshot`).
Where the rows are kept is the graph's storage, not its class: tuples
when a graph is built here, rows materialized on demand from a snapshot
(:mod:`repro.storage.mapped`), or a live epoch's copy-on-write overlay
of a base graph (:mod:`repro.live.overlay`).
"""

from __future__ import annotations

from copy import copy
from typing import TYPE_CHECKING, Hashable, Iterator, Optional, Sequence

from repro.errors import UnknownNodeError
from repro.graph.weights import backward_edge_weight

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SearchGraph", "Edge"]

#: Adjacency entry: (neighbour, weight, is_forward).
Edge = tuple[int, float, bool]


class SearchGraph:
    """Immutable weighted directed graph with forward and backward edges."""

    def __init__(self) -> None:
        # Populated by the _from_rows factory only.
        self._out: Sequence[Sequence[Edge]] = ()
        self._in: Sequence[Sequence[Edge]] = ()
        self._labels: Sequence[str] = ()
        self._tables: Sequence[Optional[str]] = ()
        self._refs: Sequence[Optional[tuple[str, Hashable]]] = ()
        self._num_forward_edges = 0
        # Resident Python floats, like the two normalizer vectors: the
        # per-pop schedule indexes them and never needs numpy for it.
        self._prestige: tuple[float, ...] = ()
        self._prestige_array: Optional[np.ndarray] = None
        self._in_inv_weight_sum: Sequence[float] = ()
        self._out_inv_weight_sum: Sequence[float] = ()
        # (table, pk) -> node: anything indexable, see node_by_ref.
        self._ref_to_node = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_datagraph(cls, dg, prestige=None) -> "SearchGraph":
        """Derive the backward edges of ``dg`` (from DataGraph.freeze)."""
        n = dg.num_nodes
        out_lists: list[list[Edge]] = [[] for _ in range(n)]
        in_lists: list[list[Edge]] = [[] for _ in range(n)]
        for u, v, w in dg.forward_edges():
            out_lists[u].append((v, w, True))
            in_lists[v].append((u, w, True))
            bw = backward_edge_weight(w, dg.indegree(v))
            out_lists[v].append((u, bw, False))
            in_lists[u].append((v, bw, False))
        if prestige is None:
            prestige = (1.0 / n,) * n if n else ()
        return cls._from_adjacency(
            out=out_lists,
            in_=in_lists,
            labels=[dg.label(i) for i in range(n)],
            tables=[dg.table(i) for i in range(n)],
            refs=[dg.ref(i) for i in range(n)],
            num_forward_edges=dg.num_edges,
            prestige=prestige,
        )

    @classmethod
    def _from_adjacency(
        cls,
        *,
        out: Sequence[Sequence[Edge]],
        in_: Sequence[Sequence[Edge]],
        labels: Sequence[str],
        tables: Sequence[Optional[str]],
        refs: Sequence[Optional[tuple[str, Hashable]]],
        num_forward_edges: int,
        prestige,
        in_inv_weight_sum: Optional[Sequence[float]] = None,
        out_inv_weight_sum: Optional[Sequence[float]] = None,
    ) -> "SearchGraph":
        """Build a flat graph from pre-derived adjacency lists.

        Freezing and live compaction build through this;
        every row and per-node sequence is copied into tuples.  Both
        adjacency sides are taken verbatim — preserving the original edge
        iteration order is what makes rebuilt searches bit-identical.
        The ``sum(1/w)`` activation normalizers are taken verbatim too
        when given; otherwise they are recomputed in that same edge
        order.
        """
        out = tuple(tuple(edges) for edges in out)
        in_ = tuple(tuple(edges) for edges in in_)
        return cls._from_rows(
            out=out,
            in_=in_,
            labels=tuple(labels),
            tables=tuple(tables),
            refs=tuple(refs),
            num_forward_edges=num_forward_edges,
            prestige=cls._validate_prestige(prestige, len(out)),
            in_inv_weight_sum=(
                tuple(in_inv_weight_sum)
                if in_inv_weight_sum is not None
                else tuple(sum(1.0 / w for _, w, _ in edges) for edges in in_)
            ),
            out_inv_weight_sum=(
                tuple(out_inv_weight_sum)
                if out_inv_weight_sum is not None
                else tuple(sum(1.0 / w for _, w, _ in edges) for edges in out)
            ),
        )

    @classmethod
    def _from_rows(
        cls,
        *,
        out: Sequence[Sequence[Edge]],
        in_: Sequence[Sequence[Edge]],
        labels: Sequence[str],
        tables: Sequence[Optional[str]],
        refs: Sequence[Optional[tuple[str, Hashable]]],
        num_forward_edges: int,
        prestige: tuple[float, ...],
        in_inv_weight_sum: Sequence[float],
        out_inv_weight_sum: Sequence[float],
        ref_to_node=None,
    ) -> "SearchGraph":
        """Store the given sequences as the graph's data, uncopied.

        The one place a graph's fields are filled in.  Any sequence
        indexable by node id will do: tuples (:meth:`_from_adjacency`),
        a snapshot's lazy rows (:mod:`repro.storage.mapped`), or a live
        epoch's copy-on-write overlay (:mod:`repro.live.overlay`).
        ``prestige`` must be a validated tuple; its length is the node
        count.
        """
        n = len(prestige)
        if not len(out) == len(in_) == len(labels) == len(tables) == len(refs) == n:
            raise ValueError("adjacency and per-node metadata lengths disagree")
        if len(in_inv_weight_sum) != n or len(out_inv_weight_sum) != n:
            raise ValueError("inv-weight-sum lengths disagree with adjacency")
        g = cls()
        g._out = out
        g._in = in_
        g._labels = labels
        g._tables = tables
        g._refs = refs
        g._num_forward_edges = int(num_forward_edges)
        g._prestige = prestige
        g._in_inv_weight_sum = in_inv_weight_sum
        g._out_inv_weight_sum = out_inv_weight_sum
        g._ref_to_node = ref_to_node
        return g

    @staticmethod
    def _validate_prestige(prestige, n: int) -> tuple[float, ...]:
        # An ndarray, a float64 memoryview of a snapshot, or a sequence.
        if hasattr(prestige, "shape"):
            shape, prestige = tuple(prestige.shape), prestige.tolist()
        else:
            shape = (len(prestige),)
        if shape != (n,):
            raise ValueError(f"prestige vector must have shape ({n},), got {shape}")
        vec = tuple(map(float, prestige))
        if vec and not min(vec) >= 0.0:  # a leading NaN fails too
            raise ValueError("prestige values must be non-negative")
        return vec

    def with_prestige(self, prestige) -> "SearchGraph":
        """A structurally shared copy using the given prestige vector
        (same class, same storage)."""
        g = copy(self)
        g._prestige = self._validate_prestige(prestige, self.num_nodes)
        g._prestige_array = None
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        # Every factory fixes the prestige tuple at the node count; on a
        # mapped graph ``len(self._out)`` is a python-level call.
        return len(self._prestige)

    @property
    def num_forward_edges(self) -> int:
        """Number of original (forward) edges."""
        return self._num_forward_edges

    @property
    def num_edges(self) -> int:
        """Number of combined directed edges: every forward edge and its
        derived backward twin, so ``2 * num_forward_edges`` on every
        kind of graph (a live commit adds and removes them in pairs)."""
        return 2 * self._num_forward_edges

    def out_edges(self, u: int) -> Sequence[Edge]:
        """Edges leaving ``u`` as ``(target, weight, is_forward)`` tuples."""
        self._check_node(u)
        return self._out[u]

    def in_edges(self, v: int) -> Sequence[Edge]:
        """Edges entering ``v`` as ``(source, weight, is_forward)`` tuples."""
        self._check_node(v)
        return self._in[v]

    def out_degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._out[u])

    def in_degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._in[v])

    def label(self, node: int) -> str:
        self._check_node(node)
        return self._labels[node]

    def table(self, node: int) -> Optional[str]:
        self._check_node(node)
        return self._tables[node]

    def ref(self, node: int) -> Optional[tuple[str, Hashable]]:
        """The ``(table, primary key)`` the node was built from, if any."""
        self._check_node(node)
        return self._refs[node]

    def node_by_ref(self, table: str, pk: Hashable) -> int:
        """Inverse of :meth:`ref`; built lazily on first use (a live
        epoch's is given at build: its new nodes over the base's map)."""
        if self._ref_to_node is None:
            self._ref_to_node = {
                ref: node for node, ref in enumerate(self._refs) if ref is not None
            }
        return self._ref_to_node[(table, pk)]

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchGraph(nodes={self.num_nodes}, "
            f"forward_edges={self.num_forward_edges}, edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # prestige and activation support
    # ------------------------------------------------------------------
    @property
    def prestige(self) -> np.ndarray:
        """Per-node prestige vector (read-only ndarray, built on first
        use — array consumers pay for numpy, the per-pop schedule reads
        :attr:`prestige_values`)."""
        if self._prestige_array is None:
            import numpy as np

            vec = np.array(self._prestige, dtype=np.float64)
            vec.flags.writeable = False
            self._prestige_array = vec
        return self._prestige_array

    @property
    def prestige_values(self) -> tuple[float, ...]:
        """Per-node prestige as Python floats, indexable by node id."""
        return self._prestige

    def node_prestige(self, node: int) -> float:
        # _check_node inlined: the scorer reads this once per leaf.
        prestige = self._prestige
        if not 0 <= node < len(prestige):
            raise UnknownNodeError(node)
        return prestige[node]

    @property
    def max_prestige(self) -> float:
        return max(self._prestige, default=0.0)

    def in_inv_weight_sum(self, v: int) -> float:
        """``sum(1/w)`` over edges entering ``v``; activation normalizer."""
        self._check_node(v)
        return self._in_inv_weight_sum[v]

    def out_inv_weight_sum(self, u: int) -> float:
        """``sum(1/w)`` over edges leaving ``u``; activation normalizer."""
        self._check_node(u)
        return self._out_inv_weight_sum[u]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        # Once per edge-list read: the tuple's C-level length, see
        # :attr:`num_nodes`.
        if not 0 <= node < len(self._prestige):
            raise UnknownNodeError(node)
