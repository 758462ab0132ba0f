"""Float64 CSR views of a :class:`~repro.graph.searchgraph.SearchGraph`.

The graph's own ``csr_arrays()`` is the paper's compact ``16|V| + 8|E|``
index — ``float32`` weights, out-adjacency only.  The kernels need
more: exact ``float64`` weights (so batched relaxation is bit-identical
to the python floats the dict-based tables use), *both* adjacency
directions, and a deduplicated "parent" adjacency for the ATTACH /
ACTIVATE cascades (parallel edges collapsed to their minimum weight at
the first occurrence position — mirroring the explored-parents bucket
``P[v]`` the dict-based :class:`~repro.core.pathtable.PathTable`
accumulates once a node's edges are fully explored).

Edge order inside every row matches ``graph.in_edges`` /
``graph.out_edges`` exactly, so candidate sequences are a function of
the graph alone.

Built lazily and cached on the graph instance (graphs are immutable;
mutations produce new graph objects, so the cache can never go stale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GraphCSR", "graph_csr", "parent_rows", "norm_list"]

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
    # parent adjacency: in-adjacency with parallel edges collapsed to
    # the minimum weight, first-occurrence order (the cascade map).
    par_indptr: np.ndarray  # int64, n + 1
    par_src: np.ndarray  # int32, <= m
    par_w: np.ndarray  # float64, <= m
    # activation normalizers sum(1/w).
    in_norm: np.ndarray  # float64, n
    out_norm: np.ndarray  # float64, n
    prestige: np.ndarray  # float64, n


def parent_rows(csr: GraphCSR) -> list[list[tuple[int, float]]]:
    """The parent adjacency as python lists of ``(src, weight)`` tuples.

    The ATTACH/ACTIVATE cascades touch a handful of tiny rows per
    event; python tuples beat numpy slicing at that grain by an order
    of magnitude.  Weights round-trip through ``tolist()`` so the
    floats are exactly the ``par_w`` values.  Built once per graph and
    cached on the (immutable) CSR.
    """
    cached = getattr(csr, "_parent_rows", None)
    if cached is not None:
        return cached
    indptr = csr.par_indptr.tolist()
    src = csr.par_src.tolist()
    w = csr.par_w.tolist()
    rows = [
        list(zip(src[indptr[v] : indptr[v + 1]], w[indptr[v] : indptr[v + 1]]))
        for v in range(csr.n)
    ]
    object.__setattr__(csr, "_parent_rows", rows)
    return rows


def norm_list(csr: GraphCSR) -> list[float]:
    """``in_norm`` as a python float list (cascade-side scalar reads)."""
    cached = getattr(csr, "_norm_list", None)
    if cached is not None:
        return cached
    out = csr.in_norm.tolist()
    object.__setattr__(csr, "_norm_list", out)
    return out


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


def _build_parents(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dedup each in-adjacency row: first-occurrence order, min weight."""
    n = len(rows)
    src_rows: list[list[int]] = []
    w_rows: list[list[float]] = []
    for edges in rows:
        bucket: dict[int, float] = {}
        for u, weight, _ in edges:
            prev = bucket.get(u)
            if prev is None or weight < prev:
                bucket[u] = weight
        src_rows.append(list(bucket.keys()))
        w_rows.append(list(bucket.values()))
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        indptr[v + 1] = indptr[v] + len(src_rows[v])
    m = int(indptr[-1])
    src = np.zeros(m, dtype=np.int32)
    w = np.zeros(m, dtype=np.float64)
    pos = 0
    for v in range(n):
        for u, weight in zip(src_rows[v], w_rows[v]):
            src[pos] = u
            w[pos] = weight
            pos += 1
    return indptr, src, w


def _build_parents_from_arrays(
    indptr: np.ndarray, src: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_build_parents` over raw CSR arrays instead of edge rows.

    Same dedup semantics (first-occurrence order, min weight per
    parallel-edge group); row order is already the graph's, so the
    result matches the row-based builder exactly."""
    bounds = indptr.tolist()
    flat_src = src.tolist()
    flat_w = w.tolist()
    n = len(bounds) - 1
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    src_rows: list[list[int]] = []
    w_rows: list[list[float]] = []
    for v in range(n):
        bucket: dict[int, float] = {}
        for u, weight in zip(
            flat_src[bounds[v] : bounds[v + 1]], flat_w[bounds[v] : bounds[v + 1]]
        ):
            prev = bucket.get(u)
            if prev is None or weight < prev:
                bucket[u] = weight
        src_rows.append(list(bucket.keys()))
        w_rows.append(list(bucket.values()))
        out_indptr[v + 1] = out_indptr[v] + len(bucket)
    m = int(out_indptr[-1])
    par_src = np.zeros(m, dtype=np.int32)
    par_w = np.zeros(m, dtype=np.float64)
    pos = 0
    for v in range(n):
        for u, weight in zip(src_rows[v], w_rows[v]):
            par_src[pos] = u
            par_w[pos] = weight
            pos += 1
    return out_indptr, par_src, par_w


def graph_csr(graph) -> GraphCSR:
    """The graph's kernel CSR, built on first use and cached on it.

    Mapped graphs (:class:`~repro.storage.MappedSearchGraph`) expose
    their on-disk CSR sides directly via ``_mapped_csr_sides()`` —
    the snapshot stores edges in original graph row order, so those
    arrays *are* what ``_build_side`` would produce, without
    materializing a single adjacency row.  Only the parent dedup still
    walks the in-side edge data (streamed from the map, not retained)."""
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
        par_indptr, par_src, par_w = _build_parents_from_arrays(
            in_indptr, in_src, in_w
        )
    else:
        in_rows = [graph.in_edges(v) for v in range(n)]
        out_rows = [graph.out_edges(u) for u in range(n)]
        in_indptr, in_src, in_w = _build_side(in_rows)
        out_indptr, out_dst, out_w = _build_side(out_rows)
        par_indptr, par_src, par_w = _build_parents(in_rows)
    csr = GraphCSR(
        n=n,
        in_indptr=in_indptr,
        in_src=in_src,
        in_w=in_w,
        out_indptr=out_indptr,
        out_dst=out_dst,
        out_w=out_w,
        par_indptr=par_indptr,
        par_src=par_src,
        par_w=par_w,
        in_norm=np.array(
            [graph.in_inv_weight_sum(v) for v in range(n)], dtype=np.float64
        ),
        out_norm=np.array(
            [graph.out_inv_weight_sum(u) for u in range(n)], dtype=np.float64
        ),
        prestige=np.asarray(graph.prestige, dtype=np.float64),
    )
    try:
        setattr(graph, _CACHE_ATTR, csr)
    except AttributeError:  # pragma: no cover - exotic graph wrappers
        pass
    return csr
