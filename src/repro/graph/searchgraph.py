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
"""

from __future__ import annotations

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
        # Populated by the _from_datagraph factory only.
        self._out: tuple[tuple[Edge, ...], ...] = ()
        self._in: tuple[tuple[Edge, ...], ...] = ()
        self._labels: tuple[str, ...] = ()
        self._tables: tuple[Optional[str], ...] = ()
        self._refs: tuple[Optional[tuple[str, Hashable]], ...] = ()
        self._num_forward_edges = 0
        # Resident Python floats, like the two normalizer vectors: the
        # per-pop schedule indexes them and never needs numpy for it.
        self._prestige: tuple[float, ...] = ()
        self._prestige_array: Optional[np.ndarray] = None
        self._in_inv_weight_sum: tuple[float, ...] = ()
        self._out_inv_weight_sum: tuple[float, ...] = ()
        self._ref_to_node: Optional[dict[tuple[str, Hashable], int]] = None

    # ------------------------------------------------------------------
    # construction (from DataGraph.freeze only)
    # ------------------------------------------------------------------
    @classmethod
    def _from_datagraph(cls, dg, prestige=None) -> "SearchGraph":
        n = dg.num_nodes
        out_lists: list[list[Edge]] = [[] for _ in range(n)]
        in_lists: list[list[Edge]] = [[] for _ in range(n)]
        for u, v, w in dg.forward_edges():
            out_lists[u].append((v, w, True))
            in_lists[v].append((u, w, True))
            bw = backward_edge_weight(w, dg.indegree(v))
            out_lists[v].append((u, bw, False))
            in_lists[u].append((v, bw, False))

        g = cls()
        g._out = tuple(tuple(edges) for edges in out_lists)
        g._in = tuple(tuple(edges) for edges in in_lists)
        g._labels = tuple(dg.label(i) for i in range(n))
        g._tables = tuple(dg.table(i) for i in range(n))
        g._refs = tuple(dg.ref(i) for i in range(n))
        g._num_forward_edges = dg.num_edges
        if prestige is None:
            g._prestige = (1.0 / n,) * n if n else ()
        else:
            g._prestige = cls._validate_prestige(prestige, n)
        g._in_inv_weight_sum = tuple(
            sum(1.0 / w for _, w, _ in edges) for edges in g._in
        )
        g._out_inv_weight_sum = tuple(
            sum(1.0 / w for _, w, _ in edges) for edges in g._out
        )
        return g

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
        """Rebuild a graph from pre-derived adjacency lists.

        Snapshot loading (:mod:`repro.service.snapshot`) uses this to
        restore a frozen graph without re-deriving backward edges.  Both
        adjacency sides are taken verbatim — preserving the original edge
        iteration order is what makes restored searches bit-identical.
        The ``sum(1/w)`` activation normalizers are taken verbatim too
        when given (snapshots store them); otherwise they are recomputed
        in that same edge order.
        """
        n = len(out)
        if len(in_) != n or len(labels) != n or len(tables) != n or len(refs) != n:
            raise ValueError("adjacency and per-node metadata lengths disagree")
        g = cls()
        g._out = tuple(tuple(edges) for edges in out)
        g._in = tuple(tuple(edges) for edges in in_)
        g._labels = tuple(labels)
        g._tables = tuple(tables)
        g._refs = tuple(refs)
        g._num_forward_edges = int(num_forward_edges)
        g._prestige = cls._validate_prestige(prestige, n)
        g._in_inv_weight_sum = (
            tuple(in_inv_weight_sum)
            if in_inv_weight_sum is not None
            else tuple(sum(1.0 / w for _, w, _ in edges) for edges in g._in)
        )
        g._out_inv_weight_sum = (
            tuple(out_inv_weight_sum)
            if out_inv_weight_sum is not None
            else tuple(sum(1.0 / w for _, w, _ in edges) for edges in g._out)
        )
        if len(g._in_inv_weight_sum) != n or len(g._out_inv_weight_sum) != n:
            raise ValueError("inv-weight-sum lengths disagree with adjacency")
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
        """Return a structurally shared copy using the given prestige vector."""
        g = SearchGraph()
        g._out = self._out
        g._in = self._in
        g._labels = self._labels
        g._tables = self._tables
        g._refs = self._refs
        g._num_forward_edges = self._num_forward_edges
        g._in_inv_weight_sum = self._in_inv_weight_sum
        g._out_inv_weight_sum = self._out_inv_weight_sum
        g._prestige = self._validate_prestige(prestige, self.num_nodes)
        g._ref_to_node = self._ref_to_node
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
        """Number of combined directed edges.

        Equals ``2 * num_forward_edges`` on a freshly frozen graph; an
        edge-policy view (:mod:`repro.graph.policy`) may drop forward
        and backward edges asymmetrically, so the count comes from the
        adjacency itself.
        """
        return sum(len(edges) for edges in self._out)

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
        """Inverse of :meth:`ref`; built lazily on first use."""
        if self._ref_to_node is None:
            self._ref_to_node = {
                ref: node for node, ref in enumerate(self._refs) if ref is not None
            }
        return self._ref_to_node[(table, pk)]

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def edge_weight(self, u: int, v: int) -> float:
        """Smallest weight among (possibly parallel) edges ``u -> v``."""
        self._check_node(u)
        best = None
        for target, w, _ in self._out[u]:
            if target == v and (best is None or w < best):
                best = w
        if best is None:
            raise UnknownNodeError(v)
        return best

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
        self._check_node(node)
        return self._prestige[node]

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
