"""The one search state: ``dist``/``sp``/``P`` and activation (Figures 2-3).

SI-Backward and Bidirectional keep, for every node ``u`` reached so far
and every keyword ``t_i`` (paper Figure 2):

* ``dist[u][i]`` — length of the best known path from ``u`` down to a
  node matching ``t_i``;
* ``sp[u][i]`` — the child to follow from ``u`` on that path, and the
  weight of the edge to it;
* ``P[v]`` — the explored parents of ``v``: nodes ``u`` such that the
  edge ``(u, v)`` has been explored.

:class:`PathState` holds the first two per keyword and represents ``P``
*implicitly*: every expansion explores a node's edge list in full, so an
edge ``(u, v)`` is explored exactly when ``v`` was expanded backward
(``expanded_in``) or ``u`` forward (``expanded_out``).  A distance
improvement is pushed to every reached ancestor by one best-first
cascade (procedure ATTACH, Figure 3) over the graph's deduplicated
parent rows filtered by those two sets.  :class:`ActivationState` is
the spreading activation of Section 4.3 over the same explored sets
(procedure ACTIVATE).

Rows are sparse — dicts in which an untouched node reads ``inf`` /
``0`` — so the per-pop loops (``backward_si`` / ``bidirectional``) pay
O(touched) per search, never O(n).  ``drain_changed`` hands back the
nodes whose values moved since the last call: what the loops need for
priority upkeep.

The loops call ``explore_edge`` once per edge and ``spread`` once per
pop, so both are plain loops over the rows: ``explore_edge`` allocates
only when a distance improves (on the ledger's ``cached_fleet`` pool
three relaxed edges in four improve none), and ``spread`` combines
each share in place.
"""

from __future__ import annotations

import heapq
import weakref
from collections import defaultdict
from itertools import repeat
from math import inf
from typing import Sequence

from repro.core.driver import nra_edge_bound

__all__ = ["PathState", "ActivationState"]

_MEMO_ATTR = "_explored_parents_memo"


def _sparse_row(fill) -> defaultdict:
    """Row container of the search state: a dict in which an
    untouched node reads ``fill``.  The read stores it, so the miss is
    handled in C and happens once per node: the tie walks probe the same
    unreached hub neighbours over and over, and a python ``__missing__``
    that stored nothing made the ``snapshot_cycle`` pool a third slower."""
    return defaultdict(repeat(fill).__next__)


class _ParentMemo(dict):
    """``x -> (((parent, weight), ...), norm)``: the in-edges of ``x``
    with parallel edges collapsed to their minimum weight at the first
    occurrence's position — the bucket ``P[x]`` of a fully explored
    ``x`` — and its activation normalizer ``sum(1/w)``.  A row is built
    when first asked for and kept on the graph (graphs are immutable; a
    mutation makes a new graph object), so a search pays for the rows
    its cascades read, not for ``n``.  (Pairs, not the graph's own
    ``(parent, weight, is_forward)`` edge tuples: a cascade unpacks one
    per parent it visits, and the flag is dead weight there.)

    The memo lives on its graph, so it refers back to it weakly: a
    strong reference (a bound ``graph.in_edges`` included) would make a
    cycle and leave every dropped graph to the cyclic collector.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph) -> None:
        self._graph = weakref.ref(graph)

    def __missing__(self, x: int) -> tuple[tuple[tuple[int, float], ...], float]:
        graph = self._graph()
        bucket: dict[int, float] = {}
        for u, w, _ in graph.in_edges(x):
            prev = bucket.get(u)
            if prev is None or w < prev:
                bucket[u] = w
        row = self[x] = (tuple(bucket.items()), graph.in_inv_weight_sum(x))
        return row


def _parents_memo(graph) -> _ParentMemo:
    """The graph's parent-row memo, created on first use."""
    memo = getattr(graph, _MEMO_ATTR, None)
    if memo is None:
        memo = _ParentMemo(graph)
        try:
            setattr(graph, _MEMO_ATTR, memo)
        except AttributeError:  # pragma: no cover - exotic graph wrappers
            pass
    return memo


class PathState:
    """Per-keyword distance/successor rows with upward propagation."""

    def __init__(self, graph, keyword_sets: Sequence[frozenset[int]]) -> None:
        self.graph = graph
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = k = len(self.keyword_sets)
        if k == 0:
            raise ValueError("at least one keyword set is required")
        self.dist_rows = [_sparse_row(inf) for _ in range(k)]
        self.sp = [{} for _ in range(k)]
        self.finite = _sparse_row(0)
        #: Nodes with at least one finite distance, in first-touch order.
        self.seen: list[int] = []
        self.expanded_in: set[int] = set()
        self.expanded_out: set[int] = set()
        self._parents = _parents_memo(graph)
        self._changed: set[int] = set()
        #: Rows written by ATTACH cascades — harvested into
        #: ``SearchStats.cascade_touches`` by the owning search.
        self.cascade_touches = 0

    # ------------------------------------------------------------------
    # seeding / queries
    # ------------------------------------------------------------------
    def seed_all(self) -> list[int]:
        """``dist = 0`` for every keyword node; returns the sorted union."""
        seeds: set[int] = set()
        finite = self.finite
        for i, nodes in enumerate(self.keyword_sets):
            row = self.dist_rows[i]
            for node in nodes:
                if row[node] == inf:
                    finite[node] += 1
                    if finite[node] == 1:
                        self.seen.append(node)
                row[node] = 0.0
            seeds.update(nodes)
        return sorted(seeds)

    def is_complete(self, node: int) -> bool:
        """Has ``node`` a known path to every keyword? (Figure 3 Is-Complete)"""
        return self.finite[node] == self.k

    def complete_nodes(self) -> list[int]:
        """Every complete node, ascending (the exhaustion sweep's roots)."""
        finite, k = self.finite, self.k
        return sorted(x for x in self.seen if finite[x] == k)

    def min_dist(self, node: int) -> float:
        """Distance to the nearest keyword (SI-Backward's priority)."""
        return min(row[node] for row in self.dist_rows)

    def edge_bound(self, ms: Sequence[float]) -> float:
        """Section 4.5: the per-keyword frontier minima ``ms`` refined
        NRA-style over every seen-but-incomplete node."""
        if all(m == inf for m in ms):
            return inf
        finite, k = self.finite, self.k
        incomplete = [x for x in self.seen if finite[x] < k]
        return nra_edge_bound(
            ms, zip(*(map(row.__getitem__, incomplete) for row in self.dist_rows))
        )

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def explore_edge(self, u: int, v: int, w: float, emit) -> None:
        """Pull ``v``'s distances into ``u`` across the edge ``(u, v)``
        (Figure 3 ExploreEdge): per keyword, set an improved
        ``dist[u][i]``, ATTACH it upward, and hand ``emit``, ascending,
        every node that is complete once its distance moved.

        The caller has marked the edge explored — ``v`` in
        ``expanded_in`` or ``u`` in ``expanded_out`` — before the first
        edge of that expansion.
        """
        if not 0.0 < w < inf:  # NaN fails too
            raise ValueError(f"edge weight must be finite and > 0, got {w!r}")
        i = 0
        for row in self.dist_rows:
            nd = row[v] + w
            if nd < row[u]:
                # Set the improved distance (the cascade's own step,
                # for the start node), then ATTACH it upward.
                completions: set[int] = set()
                finite, k = self.finite, self.k
                if row[u] == inf:
                    count = finite[u] = finite[u] + 1
                    if count == 1:
                        self.seen.append(u)
                    if count == k:
                        completions.add(u)
                elif finite[u] == k:
                    completions.add(u)
                row[u] = nd
                self.sp[i][u] = (v, w)
                self._changed.add(u)
                self.cascade_touches += 1
                self._propagate_up(u, i, completions)
                for node in sorted(completions):
                    emit(node)
            i += 1

    def _propagate_up(self, start: int, i: int, completions: set[int]) -> None:
        """ATTACH: best-first push of an improved ``dist[·][i]`` through
        the explored-parent links (parent rows filtered by the sets)."""
        row = self.dist_rows[i]
        par = self._parents
        xin = self.expanded_in
        xout = self.expanded_out
        sp = self.sp[i]
        finite = self.finite
        seen = self.seen
        changed = self._changed
        k = self.k
        touches = 0
        heap = [(row[start], start)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > row[x]:
                continue  # stale entry
            unmasked = x in xin
            if not unmasked and not xout:
                # No edge into x is explored (always so under
                # SI-Backward until x is expanded): leave its row
                # unread — hub rows hold hundreds of parents.
                continue
            for parent, wt in par[x][0]:
                if not unmasked and parent not in xout:
                    continue
                ndist = d + wt
                if ndist < row[parent]:
                    if row[parent] == inf:
                        count = finite[parent] = finite[parent] + 1
                        if count == 1:
                            seen.append(parent)
                        if count == k:
                            completions.add(parent)
                    elif finite[parent] == k:
                        completions.add(parent)
                    row[parent] = ndist
                    sp[parent] = (x, wt)
                    changed.add(parent)
                    touches += 1
                    heapq.heappush(heap, (ndist, parent))
        self.cascade_touches += touches

    def drain_changed(self) -> list[int]:
        """Nodes whose distances changed since the last drain, sorted."""
        changed = sorted(self._changed)
        self._changed.clear()
        return changed

    # ------------------------------------------------------------------
    # tree extraction
    # ------------------------------------------------------------------
    def build_paths(self, root: int) -> tuple[list[tuple[int, ...]], list[float]]:
        """Follow the ``sp`` pointers from ``root`` to each keyword.

        Returns per-keyword ``(path, actual path weight)``; the weight is
        re-summed from the stored edge weights so emitted trees are
        scored on their true cost even if a propagation cascade is still
        in flight (the recorded ``dist`` may lag briefly).
        """
        if not self.is_complete(root):
            raise ValueError(f"node {root} has no path to every keyword")
        paths: list[tuple[int, ...]] = []
        weights: list[float] = []
        limit = self.graph.num_nodes + 1
        for row, sp in zip(self.dist_rows, self.sp):
            node = root
            path = [node]
            total = 0.0
            while row[node] > 0.0:
                node, w = sp[node]
                total += w
                path.append(node)
                if len(path) > limit:  # pragma: no cover - defensive
                    raise RuntimeError("sp pointer cycle detected")
            paths.append(tuple(path))
            weights.append(total)
        return paths, weights


class ActivationState:
    """Per-keyword and total activation with spreading and propagation.

    Keyword node ``u in S_i`` is seeded with ``a(u, i) = prestige(u) /
    |S_i|``: prestigious origins rank high, huge origin sets are damped.
    When a node spreads, a fraction ``mu`` of its per-keyword activation
    is divided among its neighbours in inverse proportion to the
    connecting edge weight; per-keyword activation combines by ``max``
    (the tree score uses the *shortest* path per keyword) and a node's
    overall activation — its queue priority — is the sum over keywords
    (close to several keywords => fewer connections left to find).
    Increases reaching an explored node are propagated to its reached
    ancestors best-first (procedure ACTIVATE, Figure 3) along the edges
    a :class:`PathState`'s two explored sets stand for.
    """

    def __init__(
        self,
        graph,
        keyword_sets: Sequence[frozenset[int]],
        expanded_in: set[int],
        expanded_out: set[int],
        *,
        mu: float = 0.5,
    ) -> None:
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {mu!r}")
        self.graph = graph
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = k = len(self.keyword_sets)
        self.mu = mu
        self.expanded_in = expanded_in
        self.expanded_out = expanded_out
        self.act_rows = [_sparse_row(0.0) for _ in range(k)]
        #: Overall activation ``a_u = sum_i a(u, i)`` — the queue priority.
        self.total = _sparse_row(0.0)
        self._parents = _parents_memo(graph)
        self._changed: set[int] = set()
        #: Rows written by ACTIVATE cascades — harvested into
        #: ``SearchStats.cascade_touches`` by the owning search.
        self.cascade_touches = 0

    # ------------------------------------------------------------------
    def seed_all(self) -> None:
        """Seed ``a(u, i) = prestige(u) / |S_i|`` per keyword node."""
        prestige = self.graph.node_prestige
        for i, nodes in enumerate(self.keyword_sets):
            size = len(nodes)
            row = self.act_rows[i]
            for node in sorted(nodes):
                seed = prestige(node) / size
                current = row[node]
                merged = max(current, seed)
                row[node] = merged
                self.total[node] += merged - current

    # ------------------------------------------------------------------
    # spreading on expansion
    # ------------------------------------------------------------------
    def spread(self, node: int, edges, norm: float) -> None:
        """Spread ``node``'s activation over ``edges`` — its in-edges
        (incoming iterator expansion) or out-edges (outgoing) — whose
        ``sum(1/w)`` is ``norm``: each edge of weight ``w`` carries
        ``mu * a(node, i) * (1/w) / norm`` to its other end, combined
        into ``a(other, i)``; an increase cascades to reached ancestors
        (ACTIVATE)."""
        i = 0
        for row in self.act_rows:
            a = row[node]
            if a:
                budget = self.mu * a
                for other, w, _ in edges:
                    value = budget * (1.0 / w) / norm
                    if value > row[other]:
                        self._set(other, i, value)
                        self._propagate_up(other, i)
            i += 1

    def _set(self, node: int, i: int, value: float) -> None:
        self.cascade_touches += 1
        row = self.act_rows[i]
        self.total[node] += value - row[node]
        row[node] = value
        self._changed.add(node)

    def _propagate_up(self, start: int, i: int) -> None:
        """ACTIVATE: best-first cascade of an increase; dies out
        geometrically thanks to ``mu`` attenuation and max-combining."""
        row = self.act_rows[i]
        par = self._parents
        xin = self.expanded_in
        xout = self.expanded_out
        total = self.total
        changed = self._changed
        touches = 0
        heap = [(-row[start], start)]
        while heap:
            neg, x = heapq.heappop(heap)
            ax = -neg
            if ax < row[x]:
                continue  # superseded by a later, larger increase
            unmasked = x in xin
            if not unmasked and not xout:
                continue  # no explored edge into x: leave its row unread
            parents, norm = par[x]
            if not parents:
                continue
            budget = self.mu * ax
            for parent, w in parents:
                if not unmasked and parent not in xout:
                    continue
                contribution = budget * (1.0 / w) / norm
                if contribution > row[parent]:
                    # _set, inlined for the per-event hot loop.
                    total[parent] += contribution - row[parent]
                    row[parent] = contribution
                    changed.add(parent)
                    touches += 1
                    heapq.heappush(heap, (-contribution, parent))
        self.cascade_touches += touches

    def drain_changed(self) -> list[int]:
        """Nodes whose activation changed since the last drain, sorted."""
        changed = sorted(self._changed)
        self._changed.clear()
        return changed
