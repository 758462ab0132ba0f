"""Equal-cost shortest-path tie handling for answer emission.

Under shortest-path ties the ``sp`` pointer tables of the searches (and
the oracle's Dijkstra) each settle on *one* of several equal-cost
decompositions of a root's answer tree — and which one is an accident
of exploration order.  That is not just cosmetic: the Section 3
minimality filter judges the decomposition, not the cost, so a path
table that settled on a non-minimal chain discards the root's only
emitted tree even though an equal-cost minimal star exists (the pinned
counterexample in ``tests/property/test_prop_search.py``).

This module defines one *canonical* decomposition that every consumer
— the exhaustive oracle and the searches under either schedule — can
compute independently from nothing but final distances and the static
graph:

    from each node ``u`` with ``dist_i(u) > 0`` follow the smallest
    ``(child, weight)`` pair among the **tight** out-edges, i.e. edges
    ``(u, v, w)`` with ``dist_i(v) + w == dist_i(u)`` exactly.

Exact float equality is deliberate: every producer of these distances
(the oracle's Dijkstra and :class:`~repro.core.state.PathState`)
accumulates path cost leaf-to-root with the same left-associated
additions, so at exhaustion the distances agree bit for bit and the
winning path's first hop always satisfies the equality.  Mid-search the
distances may not be final; the walk then either returns a valid
equal-cost-so-far decomposition or ``None``, and callers simply skip
the alternate.
"""

from __future__ import annotations

from math import inf
from typing import Optional, Sequence

__all__ = ["tight_decomposition"]


def tight_decomposition(
    graph, dist_rows: Sequence, root: int
) -> Optional[tuple[list[tuple[int, ...]], list[float]]]:
    """Canonical equal-cost decomposition of ``root``'s answer tree.

    ``dist_rows[i][node]`` is the known distance from ``node`` to
    keyword ``i``, ``inf`` when unknown.  Per keyword, follows the
    smallest ``(child, weight)`` among the tight out-edges — of the full
    static adjacency, not just explored edges, so every consumer
    enumerates identically — until a zero-distance (keyword-matching)
    node is reached.  Returns ``(paths, dists)`` shaped exactly like
    ``PathState.build_paths`` — per-keyword path tuples plus
    re-summed root-to-leaf weights — or ``None`` when any keyword's walk
    dead-ends or exceeds the node count (possible only on
    not-yet-consistent mid-search distances).
    """
    out_edges = graph.out_edges
    limit = graph.num_nodes + 1
    paths: list[tuple[int, ...]] = []
    dists: list[float] = []
    for row in dist_rows:
        node = root
        path = [node]
        total = 0.0
        while True:
            du = row[node]
            if du == inf:
                return None
            if du <= 0.0:
                break
            best: Optional[tuple[int, float]] = None
            for v, w, _ in out_edges(node):
                # An unknown neighbour reads inf, which never passes
                # the tight test against a finite distance.
                if row[v] + w == du:
                    if best is None or (v, w) < best:
                        best = (v, w)
            if best is None or len(path) > limit:
                return None
            node, w = best
            total += w
            path.append(node)
        paths.append(tuple(path))
        dists.append(total)
    return paths, dists
