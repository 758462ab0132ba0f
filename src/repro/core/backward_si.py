"""Single-Iterator Backward search (paper Section 4.6, "SI-Backward").

The control experiment the paper built to isolate the effect of the
merged iterator from the other Bidirectional ideas: "identical to
Backward search except that it uses only one merged backward iterator
... it does not use a forward iterator, and its backward iterator is
prioritized only by distance from the keyword, as in the original
backward search, without any spreading activation component."

Concretely: all keyword nodes are seeded into one priority queue ordered
by distance to the *nearest* keyword; popping a node expands its
incoming edges, relaxing the shared :class:`~repro.core.pathtable.PathTable`
(which propagates improvements to reached ancestors); a node with known
paths to every keyword emits an answer tree.  Top-k output uses the same
Section 4.5 bound machinery as Bidirectional.
"""

from __future__ import annotations

from math import inf
from typing import Optional, Sequence

from repro.core.answer import SearchResult
from repro.core.driver import BaseSearch, frontier_minima, nra_edge_bound
from repro.core.heaps import LazyMinHeap
from repro.core.params import SearchParams
from repro.core.pathtable import PathTable
from repro.core.scoring import Scorer

__all__ = ["SingleIteratorBackwardSearch"]


class SingleIteratorBackwardSearch(BaseSearch):
    """SI-Backward: merged backward iterator, distance prioritized."""

    algorithm = "si-backward"

    def __init__(
        self,
        graph,
        keywords: Sequence[str],
        keyword_sets: Sequence[frozenset[int]],
        *,
        params: Optional[SearchParams] = None,
        scorer: Optional[Scorer] = None,
        token=None,
    ) -> None:
        super().__init__(
            graph, keywords, keyword_sets, params=params, scorer=scorer, token=token
        )
        self._queue = LazyMinHeap()
        self._explored: set[int] = set()
        self._depth: dict[int, int] = {}
        self._table = PathTable(
            graph, self.keyword_sets, on_dist_change=self._on_dist_change
        )

    # ------------------------------------------------------------------
    def _on_dist_change(self, node: int) -> None:
        """Keep queue priorities equal to the current nearest-keyword
        distance (decrease-key via lazy reinsertion)."""
        if node in self._queue and node not in self._explored:
            self._queue.push(node, self._table.min_dist(node))
            self.stats.heap_ops += 1

    def _detach(self) -> None:
        self._table.detach()

    def _touch(self, node: int, depth: int) -> None:
        if node in self._explored or node in self._queue:
            return
        self._depth.setdefault(node, depth)
        self._queue.push(node, self._table.min_dist(node))
        self.stats.touch()
        self.stats.heap_ops += 1

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        if self.params.expansion_backend == "vectorized":
            from repro.core.kernels import run_si_batched

            return run_si_batched(self)
        seeds = self._table.seed_all()
        for node in sorted(seeds):
            self._depth[node] = 0
            self._queue.push(node, 0.0)
            self.stats.touch()
            self.stats.heap_ops += 1

        while self._queue and not self._done and not self._budget_exhausted():
            if self._cancelled():
                break
            node, _ = self._queue.pop()
            if node in self._explored:
                continue
            self._explored.add(node)
            self.stats.explore()
            self.stats.pops_in += 1
            self._pops_since_flush += 1
            self._profile_tick()

            if self._table.is_complete(node):
                self._emit_root(self._table, node)

            if self._depth[node] < self.params.dmax:
                self._expand(node)

            if self._should_flush():
                self._flush(self._edge_bound())

        if (
            not self._queue
            and not self._done
            and not self._stopped_by_cancel
            and not self._budget_exhausted()
        ):
            self._tie_sweep(
                self._table,
                sorted(
                    node
                    for node in self._table.seen_nodes()
                    if self._table.is_complete(node)
                ),
            )
        self.stats.cascade_touches += self._table.cascade_touches
        return self._finish()

    def _frontier_sizes(self) -> dict[str, int]:
        return {"queue": len(self._queue)}

    # ------------------------------------------------------------------
    def _expand(self, v: int) -> None:
        """Traverse incoming edges of ``v``, propagating keyword
        distances backward (the single merged iterator step)."""
        depth = self._depth[v] + 1
        for u, w, _ in self.graph.in_edges(v):
            self.stats.explore_edge()
            completions = self._table.explore_edge(u, v, w)
            for done_node in completions:
                self._emit_root(self._table, done_node)
            if u not in self._explored:
                self._touch(u, depth)

    # ------------------------------------------------------------------
    def _edge_bound(self) -> float:
        """Section 4.5 bound over the single backward frontier."""
        ms = frontier_minima(
            self.k,
            [(node for node, _ in self._queue.items())],
            self._table.dist,
        )
        if all(m == inf for m in ms):
            return inf
        incomplete = (
            self._table.dist_vector(node)
            for node in self._table.seen_nodes()
            if not self._table.is_complete(node)
        )
        return nra_edge_bound(ms, incomplete)
