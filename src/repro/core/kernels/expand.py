"""Batch-expansion candidate kernels (numpy).

A batch step gathers the frontier batch's edges from the CSR arrays
(:func:`gather_in` / :func:`gather_out`) and computes *candidates* —
the (edge, keyword) pairs whose tentative value beats a snapshot of the
state taken at batch start:

* :func:`dist_candidates` — relaxations ``nd = dist[i][src] + w``
  that would improve ``dist[i][tgt]``;
* :func:`spread_candidates` — activation contributions
  ``mu * a(src, i) * (1/w) / norm(src)`` that would raise
  ``a(tgt, i)`` (max mode) or clear the contribution floor (sum mode).

The snapshot prefilter is sound: distances only decrease and (max-mode)
activations only increase, so a candidate that fails against the
snapshot also fails against any later state; improvements enabled
mid-batch are delivered by the cascades in :mod:`repro.core.state`,
which flow through the batch's upfront-marked explored edges.

Candidates come back in one canonical order — edge-major,
keyword-minor — in IEEE float64.  Everything downstream of the
candidates is shared code.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.csr import GraphCSR

__all__ = [
    "gather_in",
    "gather_out",
    "dist_candidates",
    "spread_candidates",
]

_EMPTY_I = np.zeros(0, dtype=np.int64)
_EMPTY_F = np.zeros(0, dtype=np.float64)


def _gather(
    indptr: np.ndarray, nbr: np.ndarray, w: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(nodes) == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    edge_index = np.concatenate(
        [np.arange(s, s + c) for s, c in zip(starts.tolist(), counts.tolist())]
    )
    rep = np.repeat(nodes, counts).astype(np.int64, copy=False)
    return nbr[edge_index].astype(np.int64, copy=False), rep, w[edge_index]


def gather_in(
    csr: GraphCSR, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-edges of the batch: ``(neighbour, expanding_node, weight)``
    per edge ``(neighbour -> expanding_node)``, graph order."""
    return _gather(csr.in_indptr, csr.in_src, csr.in_w, nodes)


def gather_out(
    csr: GraphCSR, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Out-edges of the batch: ``(neighbour, expanding_node, weight)``
    per edge ``(expanding_node -> neighbour)``, graph order."""
    return _gather(csr.out_indptr, csr.out_dst, csr.out_w, nodes)


# ----------------------------------------------------------------------
# distance relaxation candidates
# ----------------------------------------------------------------------
def dist_candidates(
    dist: np.ndarray, tgt: np.ndarray, src: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e_idx, i_idx, nd)`` of relaxations beating the snapshot."""
    if len(w) == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    nd_all = dist[:, src] + w[None, :]
    better = nd_all < dist[:, tgt]
    e_idx, i_idx = np.nonzero(better.T)
    return e_idx, i_idx, nd_all[i_idx, e_idx]


# ----------------------------------------------------------------------
# activation spread candidates
# ----------------------------------------------------------------------
def spread_candidates(
    act: np.ndarray,
    tgt: np.ndarray,
    src: np.ndarray,
    w: np.ndarray,
    norm: np.ndarray,
    mu: float,
    combine: str,
    min_contribution: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e_idx, i_idx, contribution)`` of spreads worth applying.

    ``norm`` is the per-source activation normalizer ``sum(1/w)``
    gathered per edge.
    """
    if len(w) == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F
    contr = (mu * act[:, src]) * (1.0 / w)[None, :] / norm[None, :]
    if combine == "sum":
        better = contr > min_contribution
    else:
        better = contr > act[:, tgt]
    e_idx, i_idx = np.nonzero(better.T)
    return e_idx, i_idx, contr[i_idx, e_idx]
