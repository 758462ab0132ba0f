"""Shared single-iterator state: distances, ``sp`` pointers, ATTACH.

Bidirectional and SI-Backward search keep, for every node ``u`` reached
so far and every keyword ``t_i`` (paper Figure 2):

* ``dist[u][i]`` — length of the best known path from ``u`` down to a
  node matching ``t_i``;
* ``sp[u][i]`` — the child to follow from ``u`` on that path;
* ``P[v]`` — the explored parents of ``v``: nodes ``u`` such that the
  edge ``(u, v)`` has been explored.

When a distance improves, the change must be pushed to every reached
ancestor (procedure ATTACH, Figure 3) — that is exactly a best-first
relaxation through the explored-parents map, implemented here once and
shared by both algorithms.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, Iterable, Optional, Sequence

__all__ = ["PathTable"]


class PathTable:
    """Per-keyword distance/successor table with upward propagation."""

    def __init__(
        self,
        graph,
        keyword_sets: Sequence[frozenset[int]],
        *,
        on_dist_change: Optional[Callable[[int], None]] = None,
    ) -> None:
        """
        Parameters
        ----------
        graph:
            The search graph (used only to size sanity checks; edges are
            supplied by the caller as it explores them).
        keyword_sets:
            ``S_i`` per query keyword.
        on_dist_change:
            Invoked with the node id after any of its distances
            improves (queue-priority upkeep for SI-Backward).
        """
        self._graph = graph
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = len(self.keyword_sets)
        if self.k == 0:
            raise ValueError("at least one keyword set is required")
        #: Per-keyword ``node -> dist`` dicts (missing = unknown); read
        #: directly by emission, like ``DensePathState.dist_rows``.
        self.dist_rows: list[dict[int, float]] = [dict() for _ in range(self.k)]
        # sp[i][u] = (child, edge weight) of the best edge out of u for i.
        self._sp: list[dict[int, tuple[int, float]]] = [dict() for _ in range(self.k)]
        self._parents: dict[int, dict[int, float]] = {}
        self._finite_count: dict[int, int] = {}
        self._on_dist_change = on_dist_change
        #: Rows written by ATTACH cascades — harvested into
        #: ``SearchStats.cascade_touches`` by the owning search.
        self.cascade_touches = 0

    def detach(self) -> None:
        """Forget ``on_dist_change`` (the owning search is finished)."""
        self._on_dist_change = None

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    def seed(self, node: int) -> tuple[int, ...]:
        """Set ``dist = 0`` for every keyword ``node`` matches.

        Returns the matched keyword indices (empty if none).
        """
        matched = tuple(
            i for i, nodes in enumerate(self.keyword_sets) if node in nodes
        )
        for i in matched:
            if self.dist_rows[i].get(node, inf) > 0.0:
                self.dist_rows[i][node] = 0.0
                self._sp[i].pop(node, None)
                self._bump_finite(node)
        return matched

    def seed_all(self) -> set[int]:
        """Seed every keyword node; returns the union of the ``S_i``."""
        seeds: set[int] = set()
        for nodes in self.keyword_sets:
            seeds.update(nodes)
        for node in seeds:
            self.seed(node)
        return seeds

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def dist(self, node: int, i: int) -> float:
        return self.dist_rows[i].get(node, inf)

    def dist_vector(self, node: int) -> tuple[float, ...]:
        return tuple(self.dist_rows[i].get(node, inf) for i in range(self.k))

    def min_dist(self, node: int) -> float:
        """Distance to the nearest keyword (SI-Backward's priority)."""
        return min(self.dist_vector(node))

    def is_complete(self, node: int) -> bool:
        """Has ``node`` a known path to every keyword? (Figure 3 Is-Complete)"""
        return self._finite_count.get(node, 0) == self.k

    def known_keywords(self, node: int) -> int:
        return self._finite_count.get(node, 0)

    def seen_nodes(self) -> Iterable[int]:
        """Nodes with at least one finite distance."""
        return self._finite_count.keys()

    def parents_of(self, node: int) -> dict[int, float]:
        return self._parents.get(node, {})

    def parents_map(self) -> dict[int, dict[int, float]]:
        """The full explored-parents map ``P`` (Figure 2), shared with the
        ACTIVATE cascade so activation flows along explored edges only."""
        return self._parents

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def explore_edge(self, u: int, v: int, w: float) -> set[int]:
        """Explore edge ``(u, v)``: register the parent link and pull
        ``v``'s distances into ``u``, cascading improvements upward.

        Returns the set of nodes that became or remained *complete*
        while their distances changed — the caller emits answer trees
        for them (Figure 3 ExploreEdge lines 1-5 plus ATTACH).
        """
        if w <= 0.0:
            raise ValueError(f"edge weight must be > 0, got {w!r}")
        bucket = self._parents.setdefault(v, {})
        prev = bucket.get(u)
        if prev is None or w < prev:
            bucket[u] = w
        completions: set[int] = set()
        for i in range(self.k):
            dv = self.dist_rows[i].get(v)
            if dv is None:
                continue
            nd = dv + w
            if nd < self.dist_rows[i].get(u, inf):
                self._set_dist(u, i, nd, v, w, completions)
                self._propagate_up(u, i, completions)
        return completions

    def _propagate_up(self, start: int, i: int, completions: set[int]) -> None:
        """ATTACH: best-first push of an improved ``dist[·][i]`` to
        reached ancestors through the explored-parents map."""
        heap = [(self.dist_rows[i][start], start)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > self.dist_rows[i].get(x, inf):
                continue  # stale entry
            for parent, w in self._parents.get(x, {}).items():
                nd = d + w
                if nd < self.dist_rows[i].get(parent, inf):
                    self._set_dist(parent, i, nd, x, w, completions)
                    heapq.heappush(heap, (nd, parent))

    def _set_dist(
        self,
        node: int,
        i: int,
        value: float,
        child: int,
        weight: float,
        completions: set[int],
    ) -> None:
        self.cascade_touches += 1
        if node not in self.dist_rows[i]:
            self._bump_finite(node)
        self.dist_rows[i][node] = value
        self._sp[i][node] = (child, weight)
        if self.is_complete(node):
            completions.add(node)
        if self._on_dist_change is not None:
            self._on_dist_change(node)

    def _bump_finite(self, node: int) -> None:
        self._finite_count[node] = self._finite_count.get(node, 0) + 1

    # ------------------------------------------------------------------
    # tree extraction
    # ------------------------------------------------------------------
    def build_paths(
        self, root: int
    ) -> tuple[list[tuple[int, ...]], list[float]]:
        """Follow the ``sp`` pointers from ``root`` to each keyword.

        Returns per-keyword ``(path, actual path weight)``; the weight is
        re-summed from the stored edge weights so emitted trees are
        scored on their true cost even if a propagation cascade is still
        in flight (the table's recorded ``dist`` may lag briefly).
        """
        if not self.is_complete(root):
            raise ValueError(f"node {root} has no path to every keyword")
        paths: list[tuple[int, ...]] = []
        weights: list[float] = []
        limit = self._graph.num_nodes + 1
        for i in range(self.k):
            node = root
            path = [node]
            total = 0.0
            steps = 0
            while self.dist_rows[i].get(node, inf) > 0.0:
                child, w = self._sp[i][node]
                total += w
                node = child
                path.append(node)
                steps += 1
                if steps > limit:  # pragma: no cover - defensive
                    raise RuntimeError("sp pointer cycle detected")
            paths.append(tuple(path))
            weights.append(total)
        return paths, weights
