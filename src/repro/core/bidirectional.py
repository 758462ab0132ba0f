"""Bidirectional Expanding search (paper Section 4, Figure 3).

The paper's contribution.  Differences from Backward search (Section 4.2):

* all per-keyword-node backward iterators are merged into a single
  *incoming* iterator (queue ``Qin``);
* a concurrent *outgoing* iterator (queue ``Qout``) expands **forward**
  from potential answer roots — every node the incoming iterator has
  explored — toward keyword nodes, so a frequent keyword's huge origin
  set need never be expanded backward: roots discovered from the rare
  keywords connect to it going forward;
* both frontiers are prioritized by **spreading activation**
  (Section 4.3): nodes on small origin sets and in less bushy subtrees
  float to the top, and the two queues compete — whichever holds the
  globally highest-activation node is scheduled (Figure 3's switch).

Distance bookkeeping (``dist``/``sp``/ATTACH) lives in the shared
:class:`~repro.core.pathtable.PathTable`; activation (seeding, spreading,
ACTIVATE) in :class:`~repro.core.activation.ActivationTable`; emission,
duplicate discard and the Section 4.5 bounded top-k output in the
:class:`~repro.core.driver.BaseSearch` plumbing, all shared with the
baselines so measured differences come from the strategy alone.
"""

from __future__ import annotations

from math import inf
from typing import Optional, Sequence

from repro.core.activation import ActivationTable
from repro.core.answer import SearchResult
from repro.core.driver import BaseSearch, frontier_minima, nra_edge_bound
from repro.core.heaps import LazyMaxHeap
from repro.core.params import SearchParams
from repro.core.pathtable import PathTable
from repro.core.scoring import Scorer

__all__ = ["BidirectionalSearch"]


class BidirectionalSearch(BaseSearch):
    """Bidirectional expanding search with spreading activation."""

    algorithm = "bidirectional"

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
        self._qin = LazyMaxHeap()
        self._qout = LazyMaxHeap()
        self._xin: set[int] = set()
        self._xout: set[int] = set()
        self._depth: dict[int, int] = {}
        self._table = PathTable(graph, self.keyword_sets)
        self._act = ActivationTable(
            graph,
            self.keyword_sets,
            mu=self.params.mu,
            combine=self.params.activation_combine,
            on_activation_change=self._on_activation_change,
        )

    # ------------------------------------------------------------------
    # priority upkeep (ACTIVATE's "update priority if present in Q...")
    # ------------------------------------------------------------------
    def _on_activation_change(self, node: int) -> None:
        total = self._act.total(node)
        if node in self._qin:
            self._qin.push(node, total)
            self.stats.heap_ops += 1
        if node in self._qout:
            self._qout.push(node, total)
            self.stats.heap_ops += 1

    def _detach(self) -> None:
        self._act.detach()

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        if self.params.expansion_backend == "vectorized":
            from repro.core.kernels import run_bidi_batched

            return run_bidi_batched(self)
        seeds = self._table.seed_all()
        self._act.seed_all()
        self._explain_side: Optional[bool] = None
        for node in sorted(seeds):
            self._depth[node] = 0
            self._qin.push(node, self._act.total(node))
            self.stats.touch()
            self.stats.heap_ops += 1

        while (self._qin or self._qout) and not self._done:
            if self._budget_exhausted() or self._cancelled():
                break
            pin = self._qin.peek_priority()
            pout = self._qout.peek_priority()
            # Figure 3's switch: expand whichever queue holds the node
            # with the highest activation (ties favour backward search,
            # which discovers the potential roots).
            incoming = pin is not None and (pout is None or pin >= pout)
            if self._explain_every and incoming is not self._explain_side:
                # Record only actual direction changes (with the balance
                # rule's inputs) — per-pop entries would flood the
                # bounded timeline with repeats.
                self._explain_side = incoming
                self.explain_note(
                    "switch",
                    rule="activation",
                    pin=pin,
                    pout=pout,
                    chose="in" if incoming else "out",
                )
            if incoming:
                self._expand_incoming()
            else:
                self._expand_outgoing()
            self._profile_tick()
            if self._should_flush():
                self._flush(self._edge_bound())
        if (
            not self._qin
            and not self._qout
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
        self.stats.cascade_touches += (
            self._table.cascade_touches + self._act.cascade_touches
        )
        return self._finish()

    def _frontier_sizes(self) -> dict[str, int]:
        return {"incoming": len(self._qin), "outgoing": len(self._qout)}

    # ------------------------------------------------------------------
    # incoming iterator (Figure 3 lines 6-14)
    # ------------------------------------------------------------------
    def _expand_incoming(self) -> None:
        v, _ = self._qin.pop()
        self._xin.add(v)
        self.stats.explore()
        self.stats.pops_in += 1
        self._pops_since_flush += 1

        if self._table.is_complete(v):
            self._emit_root(self._table, v)

        if self._depth[v] < self.params.dmax:
            depth = self._depth[v] + 1
            for u, w, _ in self.graph.in_edges(v):
                self.stats.explore_edge()
                completions = self._table.explore_edge(u, v, w)
                for node in completions:
                    self._emit_root(self._table, node)
                if u not in self._xin and u not in self._qin:
                    self._depth.setdefault(u, depth)
                    self._qin.push(u, self._act.total(u))
                    self.stats.touch()
                    self.stats.heap_ops += 1
            # Spread after the edges are registered so the ACTIVATE
            # cascade sees the freshly explored parent links.
            self._act.spread_backward(v, self._table_parents())

        # Every node explored backward is a potential answer root.
        if v not in self._xout and v not in self._qout:
            self._qout.push(v, self._act.total(v))
            self.stats.touch()
            self.stats.heap_ops += 1

    # ------------------------------------------------------------------
    # outgoing iterator (Figure 3 lines 15-23)
    # ------------------------------------------------------------------
    def _expand_outgoing(self) -> None:
        u, _ = self._qout.pop()
        self._xout.add(u)
        self.stats.explore()
        self.stats.pops_out += 1
        self._pops_since_flush += 1

        if self._table.is_complete(u):
            self._emit_root(self._table, u)

        if self._depth[u] < self.params.dmax:
            depth = self._depth[u] + 1
            for v, w, _ in self.graph.out_edges(u):
                self.stats.explore_edge()
                # Forward exploration: u may gain a (shorter) path to a
                # keyword *through* v — the payoff of forward search.
                completions = self._table.explore_edge(u, v, w)
                for node in completions:
                    self._emit_root(self._table, node)
                if v not in self._xout and v not in self._qout:
                    self._depth.setdefault(v, depth)
                    self._qout.push(v, self._act.total(v))
                    self.stats.touch()
                    self.stats.heap_ops += 1
            self._act.spread_forward(u, self._table_parents())

    # ------------------------------------------------------------------
    def _table_parents(self) -> dict[int, dict[int, float]]:
        return self._table.parents_map()

    # ------------------------------------------------------------------
    def _edge_bound(self) -> float:
        """Section 4.5: frontier minima over both queues, refined NRA-style
        over every seen-but-incomplete node."""
        ms = frontier_minima(
            self.k,
            [
                (node for node, _ in self._qin.items()),
                (node for node, _ in self._qout.items()),
            ],
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
