"""Node prestige: biased PageRank over the search graph (paper Section 2.3).

The paper computes node prestige "using a biased version of the Pagerank
random walk, similar to the computation of global ObjectRank, except
that ... the probability of following an edge is inversely proportional
to its edge weight taken from the data graph".  We implement exactly
that: from node ``u`` the walker follows edge ``e = (u, v)`` of the
*combined* search graph with probability ``(1/w_e) / sum(1/w)`` over
``u``'s out-edges, and teleports uniformly with probability
``1 - damping``.  The paper does not state a damping factor; we use the
Brin-Page default 0.85.

Prestige is a preprocessing step ("can be assumed to be precomputed",
Section 2.3); the PRES benchmark measures its cost as the paper does in
Section 5.1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["compute_prestige", "prestige_transition_matrix"]


def prestige_transition_matrix(graph) -> sp.csr_matrix:
    """Column-stochastic transition matrix ``P`` with ``P[v, u]`` the
    probability of stepping from ``u`` to ``v``.

    Dangling nodes (no out-edges; only possible for isolated nodes since
    every incident forward edge induces a backward edge) get an all-zero
    column; the power iteration redistributes their mass uniformly.
    """
    # Imported here: servers and spawned workers load prestige from a
    # snapshot and must not pay for scipy they never run.
    import scipy.sparse as sp

    n = graph.num_nodes
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u in range(n):
        edges = graph.out_edges(u)
        if not edges:
            continue
        norm = graph.out_inv_weight_sum(u)
        for v, w, _ in edges:
            rows.append(v)
            cols.append(u)
            vals.append((1.0 / w) / norm)
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
    )


def compute_prestige(
    graph,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    teleport=None,
) -> np.ndarray:
    """Compute the biased-PageRank prestige vector of ``graph``.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.searchgraph.SearchGraph`.
    damping:
        Probability of following an edge (vs. teleporting); in (0, 1).
    tol:
        L1 convergence threshold between successive iterates.
    max_iter:
        Iteration cap; the walk on our graphs converges in a few dozen
        iterations at ``damping = 0.85``.
    teleport:
        Optional teleport distribution (defaults to uniform).  Passing a
        keyword-biased distribution yields per-keyword prestige in the
        style of ObjectRank; the paper only needs the global variant.

    Returns
    -------
    numpy.ndarray
        Non-negative vector summing to 1.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping!r}")
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64)

    if teleport is None:
        t = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        t = np.asarray(teleport, dtype=np.float64)
        if t.shape != (n,):
            raise ValueError(f"teleport must have shape ({n},), got {t.shape}")
        if np.any(t < 0.0) or t.sum() <= 0.0:
            raise ValueError("teleport must be a non-negative, non-zero vector")
        t = t / t.sum()

    matrix = prestige_transition_matrix(graph)
    dangling = np.asarray(matrix.sum(axis=0)).ravel() == 0.0

    x = t.copy()
    for _ in range(max_iter):
        dangling_mass = float(x[dangling].sum()) if dangling.any() else 0.0
        new = damping * (matrix @ x) + (damping * dangling_mass + 1.0 - damping) * t
        if np.abs(new - x).sum() < tol:
            x = new
            break
        x = new
    return x / x.sum()
