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
:class:`~repro.core.state.PathState`; activation (seeding, spreading,
ACTIVATE) in :class:`~repro.core.state.ActivationState`; emission,
duplicate discard and the Section 4.5 bounded top-k output in the
:class:`~repro.core.driver.BaseSearch` plumbing, all shared with the
baselines so measured differences come from the strategy alone.  The
schedule is Figure 3's: one cursor per iteration from lazy binary heaps.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.core.answer import SearchResult
from repro.core.driver import BaseSearch, frontier_minima
from repro.core.heaps import LazyMaxHeap
from repro.core.params import SearchParams
from repro.core.scoring import Scorer
from repro.core.state import ActivationState, PathState

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
        # Nodes popped from Qin / Qout (a superset of the state's
        # expanded sets, which leave out nodes at depth ``dmax``).
        self._xin: set[int] = set()
        self._xout: set[int] = set()
        self._depth: dict[int, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        state = self._state = PathState(self.graph, self.keyword_sets)
        act = self._act = ActivationState(
            self.graph,
            self.keyword_sets,
            state.expanded_in,
            state.expanded_out,
            mu=self.params.mu,
            combine=self.params.activation_combine,
        )
        act.seed_all()
        total = act.total
        self._explain_side: Optional[bool] = None
        for node in state.seed_all():
            self._depth[node] = 0
            self._qin.push(node, total[node])
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
            # Priority upkeep (ACTIVATE's "update priority if present
            # in Q..."): re-push every queued node whose activation
            # moved.  Distance changes move no priority here.
            for node in act.drain_changed():
                if node in self._qin:
                    self._qin.push(node, total[node])
                    self.stats.heap_ops += 1
                if node in self._qout:
                    self._qout.push(node, total[node])
                    self.stats.heap_ops += 1
            self._profile_tick()
            if self._should_flush():
                frontier = [n for q in (self._qin, self._qout) for n, _ in q.items()]
                self._flush(
                    state.edge_bound(frontier_minima(state.dist_rows, frontier))
                )
        if (
            not self._qin
            and not self._qout
            and not self._done
            and not self._stopped_by_cancel
            and not self._budget_exhausted()
        ):
            self._tie_sweep(state)
        self.stats.cascade_touches += state.cascade_touches + act.cascade_touches
        return self._finish()

    def _frontier_sizes(self) -> dict[str, int]:
        return {"incoming": len(self._qin), "outgoing": len(self._qout)}

    # ------------------------------------------------------------------
    # incoming iterator (Figure 3 lines 6-14)
    # ------------------------------------------------------------------
    def _expand_incoming(self) -> None:
        state = self._state
        total = self._act.total
        v, _ = self._qin.pop()
        self._xin.add(v)
        self.stats.explore()
        self.stats.pops_in += 1
        self._pops_since_flush += 1

        if state.is_complete(v):
            self._emit_root(state, v)

        if self._depth[v] < self.params.dmax:
            depth = self._depth[v] + 1
            emit = partial(self._emit_root, state)
            edges = self.graph.in_edges(v)
            state.expanded_in.add(v)
            for u, w, _ in edges:
                self.stats.explore_edge()
                state.explore_edge(u, v, w, emit)
                if u not in self._xin and u not in self._qin:
                    self._depth.setdefault(u, depth)
                    self._qin.push(u, total[u])
                    self.stats.touch()
                    self.stats.heap_ops += 1
            self._act.spread(v, edges, self.graph.in_inv_weight_sum(v))

        # Every node explored backward is a potential answer root.
        if v not in self._xout and v not in self._qout:
            self._qout.push(v, total[v])
            self.stats.touch()
            self.stats.heap_ops += 1

    # ------------------------------------------------------------------
    # outgoing iterator (Figure 3 lines 15-23)
    # ------------------------------------------------------------------
    def _expand_outgoing(self) -> None:
        state = self._state
        total = self._act.total
        u, _ = self._qout.pop()
        self._xout.add(u)
        self.stats.explore()
        self.stats.pops_out += 1
        self._pops_since_flush += 1

        if state.is_complete(u):
            self._emit_root(state, u)

        if self._depth[u] < self.params.dmax:
            depth = self._depth[u] + 1
            emit = partial(self._emit_root, state)
            edges = self.graph.out_edges(u)
            state.expanded_out.add(u)
            for v, w, _ in edges:
                self.stats.explore_edge()
                # Forward exploration: u may gain a (shorter) path to a
                # keyword *through* v — the payoff of forward search.
                state.explore_edge(u, v, w, emit)
                if v not in self._xout and v not in self._qout:
                    self._depth.setdefault(v, depth)
                    self._qout.push(v, total[v])
                    self.stats.touch()
                    self.stats.heap_ops += 1
            self._act.spread(u, edges, self.graph.out_inv_weight_sum(u))
