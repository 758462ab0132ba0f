"""Answer-tree scoring (paper Section 2.3).

* ``s(T, t_i)``: sum of edge weights on the root-to-keyword-i path —
  this is exactly the ``dist`` the algorithms maintain.
* Aggregate edge score ``E = sum_i s(T, t_i)`` (the paper's footnote 4
  simplification of BANKS-I's all-edges sum); smaller is better.
* Tree node score ``N``: sum of node prestige over the leaf nodes and
  the root.
* Overall score: the paper writes ``E N^lambda`` without fixing the
  direction of ``E``; following BANKS-I we normalize the edge score to
  ``1 / (1 + E)`` so the overall relevance ``N**lambda / (1 + E)`` is
  larger-is-better and decreases monotonically in ``E`` — the property
  the Section 4.5 output bound depends on.  ``lambda`` is the paper's
  0.2 (:data:`LAMBDA`): every experiment runs at it (Section 5.1).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.answer import AnswerTree, leaf_nodes

__all__ = ["LAMBDA", "Scorer", "edge_score", "overall_score"]

#: The exponent on the node score ``N`` (Section 2.3's default); a
#: :class:`Scorer` reads it when it is built.
LAMBDA = 0.2

#: Relative padding of :meth:`Scorer.tree_score_bound` — many orders
#: above float64 summation error, many below any score gap that matters.
BOUND_SLACK = 1.0 + 1e-9


def edge_score(dists: Sequence[float]) -> float:
    """Aggregate edge score ``E = sum_i s(T, t_i)``."""
    return float(sum(dists))


def overall_score(e: float, n: float, lam: float) -> float:
    """Overall relevance ``N**lambda / (1 + E)``, larger is better."""
    if e < 0.0:
        raise ValueError(f"edge score must be >= 0, got {e!r}")
    if n < 0.0:
        raise ValueError(f"node score must be >= 0, got {n!r}")
    return (n ** lam) / (1.0 + e)


class Scorer:
    """Binds a graph's prestige vector and :data:`LAMBDA` into tree
    scoring."""

    def __init__(self, graph) -> None:
        self._graph = graph
        self.lam = LAMBDA
        # Root + k leaves bounds N; cached for the output bound.
        self._max_prestige = graph.max_prestige
        self._prestige = graph.prestige_values

    # ------------------------------------------------------------------
    def node_score(self, root: int, leaves) -> float:
        """``N``: prestige of the root plus the (distinct) leaf nodes."""
        total = self._graph.node_prestige(root)
        for leaf in leaves:
            if leaf != root:
                total += self._graph.node_prestige(leaf)
        return total

    def build_tree(
        self,
        root: int,
        paths: Sequence[Sequence[int]],
        dists: Sequence[float],
    ) -> AnswerTree:
        """Assemble and score an :class:`AnswerTree` from per-keyword paths."""
        if len(paths) != len(dists):
            raise ValueError("paths and dists must have equal length")
        tree_paths = tuple(tuple(path) for path in paths)
        for path in tree_paths:
            if not path or path[0] != root:
                raise ValueError(f"every path must start at the root {root}")
        e = edge_score(dists)
        n = self.node_score(root, leaf_nodes(tree_paths))
        return AnswerTree(
            root=root,
            paths=tree_paths,
            dists=tuple(float(d) for d in dists),
            edge_score=e,
            node_score=n,
            score=overall_score(e, n, self.lam),
        )

    # ------------------------------------------------------------------
    # bounds (Section 4.5)
    # ------------------------------------------------------------------
    def node_score_upper_bound(self, num_keywords: int) -> float:
        """Largest possible ``N``: root plus one leaf per keyword, each at
        the maximum prestige."""
        return self._max_prestige * (num_keywords + 1)

    def tree_score_bound(
        self, root: int, leaf_prestige: float, edge_score: float
    ) -> float:
        """Upper bound on the score :meth:`build_tree` gives any tree
        rooted at ``root`` whose leaves carry at most ``leaf_prestige``
        and whose edge score is ``edge_score``.

        Padded by :data:`BOUND_SLACK`: the caller sums prestige and path
        weights in another order than :meth:`build_tree`, so values equal
        on paper can differ in their last bits.  Asked once per
        completion event, so it stays a few float operations.
        """
        n = self._prestige[root] + leaf_prestige
        return n**self.lam / (1.0 + edge_score) * BOUND_SLACK

    def score_upper_bound(self, min_edge_score: float, num_keywords: int) -> float:
        """Best overall score any tree with ``E >= min_edge_score`` can have."""
        if math.isinf(min_edge_score):
            return 0.0
        n_ub = self.node_score_upper_bound(num_keywords)
        return overall_score(min_edge_score, n_ub, self.lam)
