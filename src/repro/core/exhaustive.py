"""Exhaustive answer enumeration — the correctness oracle.

For small graphs we can afford what the paper's algorithms avoid:
examine the whole graph.  One multi-source Dijkstra per keyword over the
reversed search graph yields, for *every* node, the true shortest path
down to that keyword; every node reaching all keywords then roots its
best answer tree.  The result — all minimal answer trees, deduplicated
by rotation, best score first — is the ground truth that unit,
integration and property tests compare the search algorithms against,
and that the workload generator uses for relevance judgments
(paper Section 5.4's "SQL queries to find relevant answers").
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Optional, Sequence

from repro.core.answer import AnswerTree, is_minimal_rooting
from repro.core.cancellation import CancellationToken
from repro.core.scoring import Scorer
from repro.core.ties import tight_decomposition
from repro.errors import SearchCancelledError

__all__ = ["keyword_distances", "exhaustive_answers"]


def _tick_or_raise(token: Optional[CancellationToken]) -> None:
    """The oracle's cooperative check: no anytime semantics here — a
    half-enumerated ground truth is worthless — so a fired token
    unwinds with :class:`SearchCancelledError` instead of returning a
    partial result."""
    if token is not None and token.tick():
        raise SearchCancelledError(token.reason or "cancelled")


def keyword_distances(
    graph, targets: frozenset[int], *, token: Optional[CancellationToken] = None
) -> tuple[dict[int, float], dict[int, tuple[int, float]]]:
    """Shortest distance from every node *down to* any node in ``targets``.

    Runs a multi-source Dijkstra over the reversed search graph.
    Returns ``(dist, sp)`` where ``sp[u] = (child, edge weight)`` is the
    first hop of ``u``'s best path (absent for the targets themselves).
    """
    dist: dict[int, float] = {node: 0.0 for node in targets}
    sp: dict[int, tuple[int, float]] = {}
    heap: list[tuple[float, int]] = [(0.0, node) for node in sorted(targets)]
    heapq.heapify(heap)
    while heap:
        _tick_or_raise(token)
        d, x = heapq.heappop(heap)
        if d > dist.get(x, inf):
            continue
        for u, w, _ in graph.in_edges(x):
            nd = d + w
            if nd < dist.get(u, inf):
                dist[u] = nd
                sp[u] = (x, w)
                heapq.heappush(heap, (nd, u))
    return dist, sp




def exhaustive_answers(
    graph,
    keyword_sets: Sequence[frozenset[int]],
    scorer: Optional[Scorer] = None,
    *,
    max_results: Optional[int] = None,
    max_edge_score: Optional[float] = None,
    token: Optional[CancellationToken] = None,
) -> list[AnswerTree]:
    """All minimal answer trees, best (shortest-path-per-keyword) per
    root, rotations deduplicated, sorted by descending score.

    ``max_edge_score`` optionally drops trees with ``E`` above a cap —
    the workload generator's notion of "relevant answers up to the
    planted size".
    """
    if scorer is None:
        scorer = Scorer(graph)
    per_keyword = [
        keyword_distances(graph, targets, token=token) for targets in keyword_sets
    ]

    dist_rows = [
        [dist.get(node, inf) for node in graph.nodes()] for dist, _ in per_keyword
    ]

    best: dict[object, AnswerTree] = {}
    for root in graph.nodes():
        _tick_or_raise(token)
        if any(row[root] == inf for row in dist_rows):
            continue
        # The *canonical* equal-cost decomposition (repro.core.ties),
        # not the Dijkstra sp pointers: under shortest-path ties the sp
        # choice is a heap-order accident, while the canonical rule is
        # reproducible from distances alone — the searches emit exactly
        # this decomposition for tied roots, making strict oracle
        # coverage a sound requirement.
        decomposition = tight_decomposition(graph, dist_rows, root)
        if decomposition is None:  # pragma: no cover - defensive
            continue
        paths, dists = decomposition
        if not is_minimal_rooting(root, paths):
            continue
        tree = scorer.build_tree(root, paths, dists)
        if max_edge_score is not None and tree.edge_score > max_edge_score:
            continue
        signature = tree.signature()
        existing = best.get(signature)
        if existing is None or tree.score > existing.score:
            best[signature] = tree

    answers = sorted(best.values(), key=lambda t: (-t.score, t.root))
    if max_results is not None:
        answers = answers[:max_results]
    return answers
