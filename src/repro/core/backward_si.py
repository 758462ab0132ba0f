"""Single-Iterator Backward search (paper Section 4.6, "SI-Backward").

The control experiment the paper built to isolate the effect of the
merged iterator from the other Bidirectional ideas: "identical to
Backward search except that it uses only one merged backward iterator
... it does not use a forward iterator, and its backward iterator is
prioritized only by distance from the keyword, as in the original
backward search, without any spreading activation component."

Concretely: all keyword nodes are seeded into one priority queue ordered
by distance to the *nearest* keyword; popping a node expands its
incoming edges, relaxing the shared :class:`~repro.core.state.PathState`
(which propagates improvements to reached ancestors); a node with known
paths to every keyword emits an answer tree.  Top-k output uses the same
Section 4.5 bound machinery as Bidirectional.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.core.answer import SearchResult
from repro.core.driver import BaseSearch, frontier_minima
from repro.core.heaps import LazyMinHeap
from repro.core.params import SearchParams
from repro.core.scoring import Scorer
from repro.core.state import PathState

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

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        state = self._state = PathState(self.graph, self.keyword_sets)
        queue = self._queue
        for node in state.seed_all():
            self._depth[node] = 0
            queue.push(node, 0.0)
            self.stats.touch()
            self.stats.heap_ops += 1

        while queue and not self._done and not self._budget_exhausted():
            if self._cancelled():
                break
            node, _ = queue.pop()
            if node in self._explored:
                continue
            self._explored.add(node)
            self.stats.explore()
            self.stats.pops_in += 1
            self._pops_since_flush += 1
            self._explain_tick()

            if state.is_complete(node):
                self._emit_root(state, node)

            if self._depth[node] < self.params.dmax:
                self._expand(node)

            if self._should_flush():
                self._flush(
                    state.edge_bound(
                        frontier_minima(state.dist_rows, [n for n, _ in queue.items()])
                    )
                )

        if (
            not queue
            and not self._done
            and not self._stopped_by_cancel
            and not self._budget_exhausted()
        ):
            self._tie_sweep(state)
        self.stats.cascade_touches += state.cascade_touches
        return self._finish()

    def _frontier_sizes(self) -> dict[str, int]:
        return {"queue": len(self._queue)}

    # ------------------------------------------------------------------
    def _expand(self, v: int) -> None:
        """Traverse incoming edges of ``v``, propagating keyword
        distances backward (the single merged iterator step), then
        bring the queue up to date with what moved."""
        state = self._state
        queue = self._queue
        explored = self._explored
        depth = self._depth[v] + 1
        emit = partial(self._emit_root, state)
        state.expanded_in.add(v)
        for u, w, _ in self.graph.in_edges(v):
            self.stats.explore_edge()
            state.explore_edge(u, v, w, emit)
            if u not in explored and u not in queue:
                self._depth.setdefault(u, depth)
                queue.push(u, state.min_dist(u))
                self.stats.touch()
                self.stats.heap_ops += 1
        # Keep queue priorities equal to the current nearest-keyword
        # distance (decrease-key via lazy reinsertion).
        for node in state.drain_changed():
            if node in queue:
                nearest = state.min_dist(node)
                if nearest < queue.get_priority(node):
                    queue.push(node, nearest)
                    self.stats.heap_ops += 1
