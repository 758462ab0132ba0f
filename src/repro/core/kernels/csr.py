"""Float64 CSR views of a :class:`~repro.graph.searchgraph.SearchGraph`.

The graph's own ``csr_arrays()`` is the paper's compact ``16|V| + 8|E|``
index — ``float32`` weights, out-adjacency only.  The kernels need
more: exact ``float64`` weights (so batched relaxation is bit-identical
to the python floats of the graph's edge rows) and *both* adjacency
directions.  (The deduplicated parent rows the ATTACH / ACTIVATE
cascades walk are not here: :mod:`repro.core.state` builds them per
touched node, for both schedules.)

Edge order inside every row matches ``graph.in_edges`` /
``graph.out_edges`` exactly, so candidate sequences are a function of
the graph alone.

Built lazily and cached on the graph instance (graphs are immutable;
mutations produce new graph objects, so the cache can never go stale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GraphCSR", "graph_csr"]

_CACHE_ATTR = "_kernels_csr_cache"


@dataclass(frozen=True)
class GraphCSR:
    """Immutable kernel-side arrays for one graph."""

    n: int
    # in-adjacency: edges (src -> v) grouped by v, graph order.
    in_indptr: np.ndarray  # int64, n + 1
    in_src: np.ndarray  # int32, m
    in_w: np.ndarray  # float64, m
    # out-adjacency: edges (u -> dst) grouped by u, graph order.
    out_indptr: np.ndarray  # int64, n + 1
    out_dst: np.ndarray  # int32, m
    out_w: np.ndarray  # float64, m
    # activation normalizers sum(1/w).
    in_norm: np.ndarray  # float64, n
    out_norm: np.ndarray  # float64, n


def _build_side(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v, edges in enumerate(rows):
        indptr[v + 1] = indptr[v] + len(edges)
    m = int(indptr[-1])
    nbr = np.zeros(m, dtype=np.int32)
    w = np.zeros(m, dtype=np.float64)
    pos = 0
    for edges in rows:
        for other, weight, _ in edges:
            nbr[pos] = other
            w[pos] = weight
            pos += 1
    return indptr, nbr, w


def graph_csr(graph) -> GraphCSR:
    """The graph's kernel CSR, built on first use and cached on it.

    Mapped graphs (:class:`~repro.storage.MappedSearchGraph`) expose
    their on-disk CSR sides directly via ``_mapped_csr_sides()`` —
    the snapshot stores edges in original graph row order, so those
    arrays *are* what ``_build_side`` would produce, without
    materializing a single adjacency row."""
    cached = getattr(graph, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    n = graph.num_nodes
    sides = getattr(graph, "_mapped_csr_sides", None)
    if sides is not None:
        raw = sides()
        in_indptr, in_src, in_w = raw["in_indptr"], raw["in_src"], raw["in_w"]
        out_indptr, out_dst, out_w = (
            raw["out_indptr"], raw["out_dst"], raw["out_w"],
        )
    else:
        in_indptr, in_src, in_w = _build_side([graph.in_edges(v) for v in range(n)])
        out_indptr, out_dst, out_w = _build_side(
            [graph.out_edges(u) for u in range(n)]
        )
    csr = GraphCSR(
        n=n,
        in_indptr=in_indptr,
        in_src=in_src,
        in_w=in_w,
        out_indptr=out_indptr,
        out_dst=out_dst,
        out_w=out_w,
        in_norm=np.array(
            [graph.in_inv_weight_sum(v) for v in range(n)], dtype=np.float64
        ),
        out_norm=np.array(
            [graph.out_inv_weight_sum(u) for u in range(n)], dtype=np.float64
        ),
    )
    try:
        setattr(graph, _CACHE_ATTR, csr)
    except AttributeError:  # pragma: no cover - exotic graph wrappers
        pass
    return csr
