"""Near queries (paper Section 4.3, footnote 6).

The BANKS system exposes a query form that ranks *individual nodes* by
their aggregate proximity to the query keywords — "near queries" —
implemented by spreading activation with sum-combining instead of
max-combining ("With scoring models that aggregate scores along
multiple paths ... we could use other ways of combining the activation,
such as adding them up").

:class:`NearSearch` runs a best-first activation-ordered exploration
from the keyword nodes (both edge directions — proximity is
direction-agnostic) and returns nodes ranked by total received
activation.  Useful for "find entities related to X and Y" queries
where a connecting tree is not the desired answer shape.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.heaps import LazyMaxHeap
from repro.core.state import ActivationState
from repro.core.stats import SearchStats

__all__ = ["NearSearch", "NearResult"]


class NearResult:
    """Ranked nodes with their activation scores plus run statistics."""

    def __init__(self, ranking: list[tuple[int, float]], stats: SearchStats) -> None:
        self.ranking = ranking
        self.stats = stats

    def nodes(self) -> list[int]:
        return [node for node, _ in self.ranking]

    def __iter__(self):
        return iter(self.ranking)

    def __len__(self) -> int:
        return len(self.ranking)


class NearSearch:
    """Rank nodes by aggregated spreading activation from keywords."""

    def __init__(
        self,
        graph,
        keyword_sets: Sequence[frozenset[int]],
        *,
        mu: float = 0.5,
        node_budget: int = 1000,
    ) -> None:
        if node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget!r}")
        self.graph = graph
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        if not self.keyword_sets:
            raise ValueError("at least one keyword set is required")
        self.node_budget = node_budget
        self.stats = SearchStats()
        self._queue = LazyMaxHeap()
        # Proximity is direction-agnostic: an explored node's edges
        # feed the ACTIVATE cascade in both directions, so one set
        # stands for both explored sets.
        self._explored: set[int] = set()
        self._act = ActivationState(
            graph,
            self.keyword_sets,
            self._explored,
            self._explored,
            mu=mu,
            combine="sum",
        )

    # ------------------------------------------------------------------
    def run(self, k: Optional[int] = 10) -> NearResult:
        """Explore and return the top-``k`` non-keyword nodes by
        activation (``None`` returns every activated one)."""
        act = self._act
        total = act.total
        graph = self.graph
        act.seed_all()
        seeds: set[int] = set()
        for nodes in self.keyword_sets:
            seeds.update(nodes)
        for node in sorted(seeds):
            self._queue.push(node, total[node])
            self.stats.touch()

        explored = self._explored
        while self._queue and len(explored) < self.node_budget:
            node, _ = self._queue.pop()
            if node in explored:
                continue
            explored.add(node)
            self.stats.explore()
            for edges in (graph.in_edges(node), graph.out_edges(node)):
                for other, _, _ in edges:
                    self.stats.explore_edge()
                    if other not in explored and other not in self._queue:
                        self._queue.push(other, total[other])
                        self.stats.touch()
            act.spread(node, graph.in_edges(node), graph.in_inv_weight_sum(node))
            act.spread(node, graph.out_edges(node), graph.out_inv_weight_sum(node))
            for changed in act.drain_changed():
                if changed in self._queue:
                    self._queue.push(changed, total[changed])

        ranking = [
            (node, score)
            for node, score in total.items()
            if score > 0.0 and node not in seeds
        ]
        ranking.sort(key=lambda item: (-item[1], item[0]))
        if k is not None:
            ranking = ranking[:k]
        self.stats.finish()
        return NearResult(ranking, self.stats)
