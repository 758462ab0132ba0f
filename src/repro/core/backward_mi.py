"""Multi-Iterator Backward Expanding search (paper Section 3; BANKS-I).

The baseline algorithm of Bhalotia et al. (ICDE 2002), as described in
Section 3 of the paper: one single-source-shortest-path iterator per
keyword node, each traversing edges *in reverse*; the iterator whose
next frontier node is nearest to its origin is scheduled; a node settled
by at least one iterator of every keyword is the root of answer trees —
one per combination of origins — which pass the minimality filter and
are released through the Section 4.5 bound, exactly like the other
algorithms so the comparison isolates the search strategy.

This is the algorithm whose time/space degrade when a keyword matches
many nodes (many iterators) or the search meets a large fan-in hub (huge
frontiers) — the motivation for Bidirectional search.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Optional, Sequence

from repro.core.answer import SearchResult
from repro.core.driver import BaseSearch, nra_edge_bound
from repro.core.heaps import LazyMinHeap
from repro.core.params import SearchParams
from repro.core.scoring import Scorer
from repro.core.stats import SearchStats

__all__ = ["BackwardExpandingSearch", "ShortestPathIterator"]


class ShortestPathIterator:
    """Dijkstra from one origin over the reversed search graph.

    ``settled[v]`` is the final distance of the best path ``v -> origin``
    in forward direction; ``succ[v]`` the next hop on it.  Expansion
    stops at ``dmax`` hops from the origin.
    """

    def __init__(
        self,
        graph,
        origin: int,
        keyword_indices: tuple[int, ...],
        stats: SearchStats,
    ) -> None:
        self.graph = graph
        self.origin = origin
        self.keyword_indices = keyword_indices
        self.settled: dict[int, float] = {}
        self.succ: dict[int, tuple[int, float]] = {}
        self._hops: dict[int, int] = {origin: 0}
        self._frontier = LazyMinHeap()
        self._frontier.push(origin, 0.0)
        self._stats = stats
        stats.heap_ops += 1
        stats.touch()

    def peek(self) -> Optional[float]:
        """Distance of the next node to settle, or None when exhausted."""
        return self._frontier.peek_priority()

    def settle_next(self, dmax: int) -> Optional[int]:
        """Settle and return the nearest frontier node (one getnext() step)."""
        try:
            node, dist = self._frontier.pop()
        except IndexError:
            return None
        self.settled[node] = dist
        hops = self._hops[node] + 1
        if hops <= dmax:
            for u, w, _ in self.graph.in_edges(node):
                self._stats.explore_edge()
                if u in self.settled:
                    continue
                nd = dist + w
                current = self._frontier.get_priority(u)
                if current is None:
                    self._stats.touch()
                elif nd >= current:
                    continue
                self.succ[u] = (node, w)
                self._hops[u] = hops
                self._frontier.push(u, nd)
                self._stats.heap_ops += 1
        return node

    def path_to_origin(self, node: int) -> tuple[int, ...]:
        """The settled path ``node -> ... -> origin`` (forward direction)."""
        path = [node]
        while path[-1] != self.origin:
            nxt, _ = self.succ[path[-1]]
            path.append(nxt)
        return tuple(path)


class BackwardExpandingSearch(BaseSearch):
    """MI-Backward: the multi-iterator baseline."""

    algorithm = "mi-backward"

    #: Most origin combinations emitted per confluence node: bounds
    #: the cross-product blowup inherent to the multi-iterator
    #: algorithm.
    MAX_COMBOS_PER_NODE = 64

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
        # One iterator per *node* in S = union of the S_i; an origin
        # matching several keywords serves them all (Section 3).
        origin_keywords: dict[int, list[int]] = {}
        for i, nodes in enumerate(self.keyword_sets):
            for node in nodes:
                origin_keywords.setdefault(node, []).append(i)
        self._iterators = [
            ShortestPathIterator(graph, origin, tuple(indices), self.stats)
            for origin, indices in sorted(origin_keywords.items())
        ]
        # visited[v][i] -> iterators (by index) that settled v for keyword i.
        self._visited: dict[int, list[list[int]]] = {}
        self._best_dist: dict[int, list[float]] = {}
        self._combos_emitted: dict[int, int] = {}
        self._schedule = LazyMinHeap()
        for idx, iterator in enumerate(self._iterators):
            peek = iterator.peek()
            if peek is not None:
                self._schedule.push(idx, peek)

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        while self._schedule and not self._done and not self._budget_exhausted():
            if self._cancelled():
                break
            idx, _ = self._schedule.pop()
            iterator = self._iterators[idx]
            node = iterator.settle_next(self.params.dmax)
            if node is not None:
                self.stats.explore()
                self.stats.pops_in += 1
                self._pops_since_flush += 1
                self._record_visit(node, idx)
                self._explain_tick()
            peek = iterator.peek()
            if peek is not None:
                self._schedule.push(idx, peek)
            if self._should_flush():
                self._flush(self._edge_bound())
        return self._finish()

    def _frontier_sizes(self) -> dict[str, int]:
        return {"iterators": len(self._schedule)}

    # ------------------------------------------------------------------
    def _record_visit(self, node: int, iterator_idx: int) -> None:
        """Register a settle and emit the *new* origin combinations it
        completes (Section 3's visited-list intersection)."""
        iterator = self._iterators[iterator_idx]
        slots = self._visited.setdefault(node, [[] for _ in range(self.k)])
        best = self._best_dist.setdefault(node, [inf] * self.k)
        dist = iterator.settled[node]
        for i in iterator.keyword_indices:
            slots[i].append(iterator_idx)
            if dist < best[i]:
                best[i] = dist
        if any(not slot for slot in slots):
            return
        for i in iterator.keyword_indices:
            self._emit_new_combos(node, slots, i, iterator_idx)

    def _emit_new_combos(
        self, node: int, slots: list[list[int]], new_slot: int, new_iterator: int
    ) -> None:
        """Emit combinations that place the newly-arrived iterator in
        ``new_slot``; older combinations were emitted on earlier visits.
        Capped by :attr:`MAX_COMBOS_PER_NODE` to bound the cross-product."""
        cap = self.MAX_COMBOS_PER_NODE
        pools = [
            slot if i != new_slot else [new_iterator] for i, slot in enumerate(slots)
        ]
        for combo in itertools.product(*pools):
            emitted = self._combos_emitted.get(node, 0)
            if emitted >= cap:
                return
            self._combos_emitted[node] = emitted + 1
            self._emit_combo(node, combo)

    def _emit_combo(self, node: int, combo: tuple[int, ...]) -> None:
        iterators = self._iterators
        dists = [iterators[idx].settled[node] for idx in combo]
        # The leaves are among this combo's origins, so the gate gets
        # their prestige, not the per-keyword maximum.
        origins = {iterators[idx].origin for idx in combo}
        origins.discard(node)
        leaf_prestige = sum(map(self.graph.node_prestige, origins))
        if self._gate_blocks(node, float(sum(dists)), leaf_prestige):
            return
        paths = [iterators[idx].path_to_origin(node) for idx in combo]
        self._emit_tree(node, paths, dists)

    # ------------------------------------------------------------------
    def _edge_bound(self) -> float:
        """Section 4.5 bound: ``m_i`` is the nearest next-settle distance
        among keyword-i iterators; exhausted keywords contribute inf
        (no new node can be reached from them)."""
        ms = [inf] * self.k
        for idx, _ in self._schedule.items():
            iterator = self._iterators[idx]
            peek = iterator.peek()
            if peek is None:
                continue
            for i in iterator.keyword_indices:
                if peek < ms[i]:
                    ms[i] = peek
        incomplete = (
            vector
            for vector in self._best_dist.values()
            if any(d == inf for d in vector)
        )
        return nra_edge_bound(ms, incomplete)
