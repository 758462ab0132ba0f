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
baselines so measured differences come from the strategy alone.

The schedule is Figure 3's, one step per pop: pop the queue whose top
has the higher activation, relax the node's edges in that direction
(pushing each newly reached neighbour right after its edge), spread
its activation, re-prioritise the queued nodes whose activation moved.
One loop body serves both iterators.  Each queue is a lazy-deletion
heap of ``(-priority, seq, node)`` beside a dict of live priorities
(:class:`~repro.core.heaps.LazyMaxHeap`, inlined): a queued node's
priority only grows and a popped node never returns to its queue, so
a stale entry never becomes live again.  Near queries keep the class:
they run outside every search workload, so inlining there would buy
no measured time.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import Optional, Sequence

from repro.core.answer import SearchResult
from repro.core.driver import BaseSearch, frontier_minima
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
        # Live priorities of the nodes queued in Qin / Qout.
        self._qin: dict[int, float] = {}
        self._qout: dict[int, float] = {}

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        graph = self.graph
        stats = self.stats
        state = PathState(graph, self.keyword_sets)
        act = ActivationState(
            graph,
            self.keyword_sets,
            state.expanded_in,
            state.expanded_out,
            mu=self.params.mu,
        )
        act.seed_all()
        total = act.total
        qin, qout = self._qin, self._qout
        heap_in: list[tuple[float, int, int]] = []
        heap_out: list[tuple[float, int, int]] = []
        seq = count()  # one tie-break counter: monotone within each heap
        # Nodes popped from Qin / Qout (a superset of the state's
        # expanded sets, which leave out nodes at depth ``dmax``).
        xin: set[int] = set()
        xout: set[int] = set()
        depth: dict[int, int] = {}
        for node in state.seed_all():
            depth[node] = 0
            qin[node] = priority = total[node]
            heappush(heap_in, (-priority, next(seq), node))
            stats.nodes_touched += 1
        heap_ops = len(qin)
        edges_explored = pops_in = pops_out = 0

        emit = partial(self._emit_root, state)
        relax = state.explore_edge
        spread = act.spread
        drain_changed = act.drain_changed
        finite, k = state.finite, state.k
        dmax = self.params.dmax
        incoming_side = (
            heap_in, qin, xin, state.expanded_in, graph.in_edges,
            graph.in_inv_weight_sum,
        )
        outgoing_side = (
            heap_out, qout, xout, state.expanded_out, graph.out_edges,
            graph.out_inv_weight_sum,
        )
        explaining = self._explain_every
        explain_side: Optional[bool] = None

        while (qin or qout) and not self._done:
            if self._budget_exhausted() or self._cancelled():
                break
            # Skim stale entries off both tops (a live entry carries its
            # node's current priority).
            while heap_in and qin.get(heap_in[0][2]) != -heap_in[0][0]:
                heappop(heap_in)
            while heap_out and qout.get(heap_out[0][2]) != -heap_out[0][0]:
                heappop(heap_out)
            pin = -heap_in[0][0] if heap_in else None
            pout = -heap_out[0][0] if heap_out else None
            # Figure 3's switch: expand whichever queue holds the node
            # with the highest activation (ties favour backward search,
            # which discovers the potential roots).
            incoming = pin is not None and (pout is None or pin >= pout)
            if explaining and incoming is not explain_side:
                # Record only actual direction changes (with the balance
                # rule's inputs) — per-pop entries would flood the
                # bounded timeline with repeats.
                explain_side = incoming
                self.explain_note(
                    "switch",
                    rule="activation",
                    pin=pin,
                    pout=pout,
                    chose="in" if incoming else "out",
                )

            # One iterator step (Figure 3 lines 6-14 incoming, 15-23
            # outgoing).
            heap, queue, popped, expanded, edges_of, norm_of = (
                incoming_side if incoming else outgoing_side
            )
            if incoming:
                pops_in += 1
            else:
                pops_out += 1
            node = heappop(heap)[2]
            del queue[node]
            popped.add(node)
            stats.nodes_explored += 1
            self._pops_since_flush += 1
            if finite[node] == k:
                emit(node)
            if depth[node] < dmax:
                reached = depth[node] + 1
                edges = edges_of(node)
                expanded.add(node)
                for other, w, _ in edges:
                    edges_explored += 1
                    # Backward, the in-neighbour ``other`` may gain a
                    # path through ``node``; forward, ``node`` may gain
                    # a (shorter) one *through* ``other`` — the payoff
                    # of forward search.
                    if incoming:
                        relax(other, node, w, emit)
                    else:
                        relax(node, other, w, emit)
                    if other not in popped and other not in queue:
                        depth.setdefault(other, reached)
                        queue[other] = priority = total[other]
                        heappush(heap, (-priority, next(seq), other))
                        stats.nodes_touched += 1
                        heap_ops += 1
                spread(node, edges, norm_of(node))
            # Every node explored backward is a potential answer root.
            if incoming and node not in xout and node not in qout:
                qout[node] = priority = total[node]
                heappush(heap_out, (-priority, next(seq), node))
                stats.nodes_touched += 1
                heap_ops += 1

            # Priority upkeep (ACTIVATE's "update priority if present
            # in Q..."): re-push every queued node whose activation
            # moved.  Distance changes move no priority here.
            for node in drain_changed():
                if node in qin:
                    qin[node] = priority = total[node]
                    heappush(heap_in, (-priority, next(seq), node))
                    heap_ops += 1
                if node in qout:
                    qout[node] = priority = total[node]
                    heappush(heap_out, (-priority, next(seq), node))
                    heap_ops += 1
            if explaining:
                self._explain_tick()
            if self._should_flush():
                self._flush(
                    state.edge_bound(frontier_minima(state.dist_rows, [*qin, *qout]))
                )
        stats.heap_ops += heap_ops
        stats.edges_explored += edges_explored
        stats.pops_in += pops_in
        stats.pops_out += pops_out
        if (
            not qin
            and not qout
            and not self._done
            and not self._stopped_by_cancel
            and not self._budget_exhausted()
        ):
            self._tie_sweep(state)
        stats.cascade_touches += state.cascade_touches + act.cascade_touches
        return self._finish()

    def _frontier_sizes(self) -> dict[str, int]:
        return {"incoming": len(self._qin), "outgoing": len(self._qout)}
