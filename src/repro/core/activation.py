"""Spreading activation (paper Section 4.3).

Keyword node ``u in S_i`` is seeded with ``a(u, i) = prestige(u) /
|S_i|``: prestigious origins rank high, huge origin sets are damped.
When a node spreads, a fraction ``mu`` (default 0.5) of its per-keyword
activation is divided among its neighbours in inverse proportion to the
connecting edge weight; per-keyword activation combines by ``max``
(the tree score uses the *shortest* path per keyword) and a node's
overall activation — its queue priority — is the sum over keywords
(close to several keywords => fewer connections left to find).

Increases reaching an already-explored node are propagated to its
reached ancestors best-first (procedure ACTIVATE, Figure 3), through
the explored-parents map shared with :class:`~repro.core.pathtable.PathTable`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Sequence

__all__ = ["ActivationTable"]


class ActivationTable:
    """Per-keyword and total activation with spreading and propagation."""

    def __init__(
        self,
        graph,
        keyword_sets: Sequence[frozenset[int]],
        *,
        mu: float = 0.5,
        combine: str = "max",
        min_contribution: float = 1e-9,
        on_activation_change: Optional[Callable[[int], None]] = None,
    ) -> None:
        """
        ``combine`` selects how activation reaching a node from several
        edges is merged per keyword: ``"max"`` (the paper's default —
        trees are scored by the single shortest path per keyword) or
        ``"sum"`` (the footnote-6 extension for scoring models that
        aggregate along multiple paths; powers "near queries").  In sum
        mode cascades terminate via the ``min_contribution`` floor.
        """
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {mu!r}")
        if combine not in ("max", "sum"):
            raise ValueError(f"combine must be 'max' or 'sum', got {combine!r}")
        if min_contribution <= 0.0:
            raise ValueError(
                f"min_contribution must be > 0, got {min_contribution!r}"
            )
        self._graph = graph
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = len(self.keyword_sets)
        self.mu = mu
        self.combine = combine
        self._min_contribution = min_contribution
        self._act: list[dict[int, float]] = [dict() for _ in range(self.k)]
        self._total: dict[int, float] = {}
        self._on_change = on_activation_change
        #: Rows written by the ACTIVATE cascades — harvested into
        #: ``SearchStats.cascade_touches`` by the owning search.
        self.cascade_touches = 0

    def detach(self) -> None:
        """Forget ``on_activation_change`` (the owning search is finished)."""
        self._on_change = None

    # ------------------------------------------------------------------
    def seed_all(self) -> None:
        """Seed ``a(u, i) = prestige(u) / |S_i|`` for every keyword node."""
        for i, nodes in enumerate(self.keyword_sets):
            if not nodes:
                continue
            size = len(nodes)
            for node in nodes:
                seed = self._graph.node_prestige(node) / size
                self._raise(node, i, seed, parents=None)

    # ------------------------------------------------------------------
    def activation(self, node: int, i: int) -> float:
        return self._act[i].get(node, 0.0)

    def total(self, node: int) -> float:
        """Overall activation ``a_u = sum_i a(u, i)`` — the queue priority."""
        return self._total.get(node, 0.0)

    def totals(self):
        """Live ``(node, total activation)`` pairs, arbitrary order."""
        return self._total.items()

    # ------------------------------------------------------------------
    # spreading on expansion
    # ------------------------------------------------------------------
    def spread_backward(self, v: int, parents: dict[int, dict[int, float]]) -> None:
        """Spread ``v``'s activation to its in-neighbours (incoming
        iterator expansion): each in-edge ``(u, v)`` of weight ``w``
        carries ``mu * a(v, i) * (1/w) / sum(1/w over in-edges)``."""
        edges = self._graph.in_edges(v)
        if not edges:
            return
        norm = self._graph.in_inv_weight_sum(v)
        for i in range(self.k):
            av = self._act[i].get(v)
            if not av:
                continue
            budget = self.mu * av
            for u, w, _ in edges:
                self._raise(u, i, budget * (1.0 / w) / norm, parents)

    def spread_forward(self, u: int, parents: dict[int, dict[int, float]]) -> None:
        """Spread ``u``'s activation to its out-neighbours (outgoing
        iterator expansion): nodes near a potential root rank high."""
        edges = self._graph.out_edges(u)
        if not edges:
            return
        norm = self._graph.out_inv_weight_sum(u)
        for i in range(self.k):
            au = self._act[i].get(u)
            if not au:
                continue
            budget = self.mu * au
            for v, w, _ in edges:
                self._raise(v, i, budget * (1.0 / w) / norm, parents)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _raise(
        self,
        node: int,
        i: int,
        value: float,
        parents: Optional[dict[int, dict[int, float]]],
    ) -> None:
        """Combine ``value`` into ``a(node, i)``; on increase, notify and
        cascade to reached ancestors (ACTIVATE)."""
        if self.combine == "sum":
            if value <= self._min_contribution:
                return
            self._set(node, i, self._act[i].get(node, 0.0) + value)
            if parents is not None:
                self._propagate_sum(node, i, value, parents)
            return
        current = self._act[i].get(node, 0.0)
        if value <= current:
            return
        self._set(node, i, value)
        if parents is not None:
            self._propagate_up(node, i, parents)

    def _set(self, node: int, i: int, value: float) -> None:
        self.cascade_touches += 1
        current = self._act[i].get(node, 0.0)
        self._act[i][node] = value
        self._total[node] = self._total.get(node, 0.0) + (value - current)
        if self._on_change is not None:
            self._on_change(node)

    def _propagate_sum(
        self, start: int, i: int, delta: float, parents: dict[int, dict[int, float]]
    ) -> None:
        """Sum-mode ACTIVATE: push the *added* mass up through explored
        parents, attenuated by ``mu`` and the share split; terminates by
        geometric decay plus the ``min_contribution`` floor."""
        stack = [(start, delta)]
        while stack:
            x, d = stack.pop()
            bucket = parents.get(x)
            if not bucket:
                continue
            norm = self._graph.in_inv_weight_sum(x)
            if norm <= 0.0:
                continue
            budget = self.mu * d
            for parent, w in bucket.items():
                contribution = budget * (1.0 / w) / norm
                if contribution > self._min_contribution:
                    self._set(
                        parent, i, self._act[i].get(parent, 0.0) + contribution
                    )
                    stack.append((parent, contribution))

    def _propagate_up(
        self, start: int, i: int, parents: dict[int, dict[int, float]]
    ) -> None:
        """ACTIVATE: best-first cascade of an increase through explored
        parents; dies out geometrically thanks to ``mu`` attenuation and
        max-combining."""
        heap = [(-self._act[i][start], start)]
        while heap:
            neg, x = heapq.heappop(heap)
            ax = -neg
            if ax < self._act[i].get(x, 0.0):
                continue  # superseded by a later, larger increase
            bucket = parents.get(x)
            if not bucket:
                continue
            norm = self._graph.in_inv_weight_sum(x)
            if norm <= 0.0:
                continue
            budget = self.mu * ax
            for parent, w in bucket.items():
                contribution = budget * (1.0 / w) / norm
                if contribution > self._act[i].get(parent, 0.0):
                    self._set(parent, i, contribution)
                    heapq.heappush(heap, (-contribution, parent))
