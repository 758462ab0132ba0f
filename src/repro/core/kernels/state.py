"""Dense (array-backed) search state for the batched expansion engines.

:class:`DensePathState` is the flat-array counterpart of
:class:`~repro.core.pathtable.PathTable`: per-keyword ``dist``/``sp``
state over all nodes plus the ATTACH cascade, with the explored-
parents map ``P`` represented *implicitly* by two membership sets
instead of a dict-of-dicts — an edge ``(u, v)`` counts as explored
exactly when ``v`` was expanded through its in-edges
(``expanded_in``) or ``u`` through its out-edges (``expanded_out``),
because the batched engines always explore a node's edge list in
full.  Cascades walk the graph's deduplicated parent rows filtered by
those sets.

Storage is two-tier: python row lists (``dist_rows`` et al.) are the
authoritative store — the scalar hot path (recheck, cascade, emit,
path building) reads and writes them at python-float speed — while a
numpy matrix snapshot (``dist``) feeds the bulk candidate kernels and
the vectorized frontier/bound math.  :meth:`drain_changed` is the
synchronization point: it flushes every changed column into the
snapshot, and the engines call it between candidate application and
any snapshot read, so kernels always see batch-start state (the
snapshot-prefilter contract) and priorities/bounds always see current
state.

:class:`DenseActivationState` mirrors
:class:`~repro.core.activation.ActivationTable` the same way, sharing
the explored sets so ACTIVATE flows along explored edges only.

The candidate *computation* is numpy
(:mod:`repro.core.kernels.expand`); the *application* here — recheck,
set, cascade — is plain python.
"""

from __future__ import annotations

import heapq
from math import inf, isinf
from typing import Callable, Sequence

import numpy as np

from repro.core.kernels.csr import GraphCSR, norm_list, parent_rows

__all__ = ["DensePathState", "DenseActivationState"]


class DensePathState:
    """Per-keyword distance/successor state with upward propagation."""

    def __init__(self, csr: GraphCSR, keyword_sets: Sequence[frozenset[int]]) -> None:
        self.csr = csr
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = len(self.keyword_sets)
        if self.k == 0:
            raise ValueError("at least one keyword set is required")
        n = csr.n
        # numpy snapshot for the candidate kernels; synced in drain_changed.
        self.dist = np.full((self.k, n), inf, dtype=np.float64)
        # python rows: the authoritative store the scalar path works on.
        self.dist_rows: list[list[float]] = [[inf] * n for _ in range(self.k)]
        self.sp_child: list[list[int]] = [[-1] * n for _ in range(self.k)]
        self.sp_w: list[list[float]] = [[0.0] * n for _ in range(self.k)]
        self.finite: list[int] = [0] * n
        # Explored-edge masks as python sets: the cascades probe
        # membership per tiny parent row, where set lookups beat numpy
        # fancy indexing by an order of magnitude.
        self.expanded_in: set[int] = set()
        self.expanded_out: set[int] = set()
        self._par = parent_rows(csr)
        self._changed: set[int] = set()
        #: Rows written by ATTACH cascades — harvested into
        #: ``SearchStats.cascade_touches`` by the owning engine.
        self.cascade_touches = 0

    # ------------------------------------------------------------------
    # seeding / queries
    # ------------------------------------------------------------------
    def seed_all(self) -> list[int]:
        """``dist = 0`` for every keyword node; returns the sorted union."""
        seeds: set[int] = set()
        for i, nodes in enumerate(self.keyword_sets):
            row = self.dist_rows[i]
            for node in nodes:
                if row[node] > 0.0:
                    if isinf(row[node]):
                        self.finite[node] += 1
                    row[node] = 0.0
                    self.dist[i, node] = 0.0
            seeds.update(nodes)
        return sorted(seeds)

    def is_complete(self, node: int) -> bool:
        return self.finite[node] == self.k

    def min_dist_of(self, nodes: np.ndarray) -> np.ndarray:
        """Nearest-keyword distance per node (SI-Backward's priority).

        Reads the snapshot — callers drain first.
        """
        if len(nodes) == 0:
            return np.zeros(0, dtype=np.float64)
        return self.dist[:, nodes].min(axis=0)

    # ------------------------------------------------------------------
    # Section 4.5 bound over dense state (snapshot — drained at flush)
    # ------------------------------------------------------------------
    def frontier_minima(self, nodes: np.ndarray) -> np.ndarray:
        """Per-keyword minimum known distance over the frontier nodes."""
        if len(nodes) == 0:
            return np.full(self.k, inf, dtype=np.float64)
        return self.dist[:, nodes].min(axis=1)

    def nra_bound(self, ms: np.ndarray) -> float:
        """NRA refinement over seen-but-incomplete nodes (vectorized
        equivalent of :func:`repro.core.driver.nra_edge_bound`)."""
        if bool(np.isinf(ms).all()):
            return inf
        best = float(ms.sum())
        known = np.isfinite(self.dist).sum(axis=0)
        mask = (known > 0) & (known < self.k)
        if bool(mask.any()):
            vectors = np.where(
                np.isinf(self.dist[:, mask]), ms[:, None], self.dist[:, mask]
            )
            best = min(best, float(vectors.sum(axis=0).min()))
        return best

    # ------------------------------------------------------------------
    # candidate application (scalar path)
    # ------------------------------------------------------------------
    def apply_dist_candidates(
        self,
        tgt: np.ndarray,
        src: np.ndarray,
        w: np.ndarray,
        e_idx: np.ndarray,
        i_idx: np.ndarray,
        nd: np.ndarray,
        emit: Callable[[int], None],
    ) -> None:
        """Apply prefiltered relaxation candidates in canonical order.

        Each candidate is an (edge, keyword) pair whose tentative
        distance beat a snapshot taken at batch start; it is rechecked
        against the live rows (earlier candidates or their cascades
        may have done the work already), applied, cascaded upward, and
        any node that completes is handed to ``emit``.
        """
        if len(e_idx) == 0:
            return
        rows = self.dist_rows
        t_list = tgt[e_idx].tolist()
        s_list = src[e_idx].tolist()
        w_list = w[e_idx].tolist()
        i_list = i_idx.tolist()
        nd_list = nd.tolist()
        for u, child, wt, i, d in zip(t_list, s_list, w_list, i_list, nd_list):
            if d < rows[i][u]:
                completions: set[int] = set()
                self._set_dist(u, i, d, child, wt, completions)
                self._propagate_up(u, i, completions)
                for node in sorted(completions):
                    emit(node)

    def _set_dist(
        self,
        node: int,
        i: int,
        value: float,
        child: int,
        weight: float,
        completions: set[int],
    ) -> None:
        self.cascade_touches += 1
        row = self.dist_rows[i]
        if isinf(row[node]):
            self.finite[node] += 1
            if self.finite[node] == self.k:
                completions.add(node)
        elif self.finite[node] == self.k:
            completions.add(node)
        row[node] = value
        self.sp_child[i][node] = child
        self.sp_w[i][node] = weight
        self._changed.add(node)

    def _propagate_up(self, start: int, i: int, completions: set[int]) -> None:
        """ATTACH: best-first push of an improved ``dist[·][i]`` through
        the explored-parent links (parent rows filtered by the sets)."""
        row = self.dist_rows[i]
        par = self._par
        xin = self.expanded_in
        xout = self.expanded_out
        sp_child = self.sp_child[i]
        sp_w = self.sp_w[i]
        finite = self.finite
        changed = self._changed
        k = self.k
        touches = 0
        heap = [(row[start], start)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > row[x]:
                continue  # stale entry
            prow = par[x]
            if not prow:
                continue
            unmasked = x in xin
            for parent, wt in prow:
                if not unmasked and parent not in xout:
                    continue
                ndist = d + wt
                if ndist < row[parent]:
                    # _set_dist, inlined: this loop runs once per
                    # improvement event and the call overhead shows.
                    if row[parent] == inf:
                        finite[parent] += 1
                        if finite[parent] == k:
                            completions.add(parent)
                    elif finite[parent] == k:
                        completions.add(parent)
                    row[parent] = ndist
                    sp_child[parent] = x
                    sp_w[parent] = wt
                    changed.add(parent)
                    touches += 1
                    heapq.heappush(heap, (ndist, parent))
        self.cascade_touches += touches

    def drain_changed(self) -> np.ndarray:
        """Nodes whose distances changed since the last drain, sorted —
        and the snapshot-sync point: their columns are copied from the
        python rows into the numpy matrix."""
        if not self._changed:
            return np.zeros(0, dtype=np.int64)
        out = np.fromiter(self._changed, dtype=np.int64, count=len(self._changed))
        self._changed.clear()
        out.sort()
        nodes = out.tolist()
        for i in range(self.k):
            row = self.dist_rows[i]
            self.dist[i, out] = [row[x] for x in nodes]
        return out

    # ------------------------------------------------------------------
    # tree extraction (mirrors PathTable.build_paths)
    # ------------------------------------------------------------------
    def build_paths(self, root: int) -> tuple[list[tuple[int, ...]], list[float]]:
        if not self.is_complete(root):
            raise ValueError(f"node {root} has no path to every keyword")
        paths: list[tuple[int, ...]] = []
        weights: list[float] = []
        limit = self.csr.n + 1
        for i in range(self.k):
            row = self.dist_rows[i]
            children = self.sp_child[i]
            sp_w = self.sp_w[i]
            node = root
            path = [node]
            total = 0.0
            steps = 0
            while row[node] > 0.0:
                total += sp_w[node]
                node = children[node]
                path.append(node)
                steps += 1
                if steps > limit:  # pragma: no cover - defensive
                    raise RuntimeError("sp pointer cycle detected")
            paths.append(tuple(path))
            weights.append(total)
        return paths, weights


class DenseActivationState:
    """Array-backed spreading activation sharing the explored sets."""

    def __init__(
        self,
        csr: GraphCSR,
        keyword_sets: Sequence[frozenset[int]],
        path_state: DensePathState,
        *,
        mu: float = 0.5,
        combine: str = "max",
        min_contribution: float = 1e-9,
    ) -> None:
        self.csr = csr
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = len(self.keyword_sets)
        self.mu = mu
        self.combine = combine
        self.min_contribution = min_contribution
        self._path = path_state
        # numpy snapshot for the spread kernels; synced in drain_changed.
        self.act = np.zeros((self.k, csr.n), dtype=np.float64)
        # python rows: authoritative store for the scalar path.
        self.act_rows: list[list[float]] = [[0.0] * csr.n for _ in range(self.k)]
        # live per-node totals (the frontier priorities) — numpy so the
        # engines can gather batch priorities directly.
        self.total = np.zeros(csr.n, dtype=np.float64)
        self._par = parent_rows(csr)
        self._norm = norm_list(csr)
        self._changed: set[int] = set()
        #: Rows written by ACTIVATE cascades — harvested into
        #: ``SearchStats.cascade_touches`` by the owning engine.
        self.cascade_touches = 0

    # ------------------------------------------------------------------
    def seed_all(self) -> None:
        """Seed ``a(u, i) = prestige(u) / |S_i|`` per keyword node."""
        prestige = self.csr.prestige
        for i, nodes in enumerate(self.keyword_sets):
            if not nodes:
                continue
            size = len(nodes)
            row = self.act_rows[i]
            for node in sorted(nodes):
                seed = float(prestige[node]) / size
                current = row[node]
                if self.combine == "sum":
                    merged = current + (seed if seed > self.min_contribution else 0.0)
                else:
                    merged = max(current, seed)
                row[node] = merged
                self.act[i, node] = merged
                self.total[node] += merged - current

    # ------------------------------------------------------------------
    def apply_spread_candidates(
        self,
        tgt: np.ndarray,
        e_idx: np.ndarray,
        i_idx: np.ndarray,
        contribution: np.ndarray,
    ) -> None:
        """Apply prefiltered spread contributions in canonical order,
        cascading increases through explored parents (ACTIVATE)."""
        if len(e_idx) == 0:
            return
        rows = self.act_rows
        t_list = tgt[e_idx].tolist()
        i_list = i_idx.tolist()
        c_list = contribution.tolist()
        if self.combine == "sum":
            for node, i, value in zip(t_list, i_list, c_list):
                # Kernel already enforced the min_contribution floor.
                self._set(node, i, rows[i][node] + value)
                self._propagate_sum(node, i, value)
            return
        for node, i, value in zip(t_list, i_list, c_list):
            if value > rows[i][node]:
                self._set(node, i, value)
                self._propagate_up(node, i)

    def _set(self, node: int, i: int, value: float) -> None:
        self.cascade_touches += 1
        row = self.act_rows[i]
        current = row[node]
        row[node] = value
        self.total[node] += value - current
        self._changed.add(node)

    def _propagate_up(self, start: int, i: int) -> None:
        """Max-mode ACTIVATE: best-first cascade of an increase.

        The explored-edge mask is applied inline: a parent edge counts
        only when ``x`` was expanded through its in-edges or the parent
        through its out-edges.
        """
        row = self.act_rows[i]
        par = self._par
        xin = self._path.expanded_in
        xout = self._path.expanded_out
        total = self.total
        changed = self._changed
        touches = 0
        heap = [(-row[start], start)]
        while heap:
            neg, x = heapq.heappop(heap)
            ax = -neg
            if ax < row[x]:
                continue  # superseded by a later, larger increase
            parents = par[x]
            if not parents:
                continue
            norm = self._norm[x]
            if norm <= 0.0:
                continue
            unmasked = x in xin
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

    def _propagate_sum(self, start: int, i: int, delta: float) -> None:
        """Sum-mode ACTIVATE: push added mass upward until the
        ``min_contribution`` floor kills it."""
        row = self.act_rows[i]
        par = self._par
        xin = self._path.expanded_in
        xout = self._path.expanded_out
        total = self.total
        changed = self._changed
        floor = self.min_contribution
        touches = 0
        stack = [(start, delta)]
        while stack:
            x, d = stack.pop()
            parents = par[x]
            if not parents:
                continue
            norm = self._norm[x]
            if norm <= 0.0:
                continue
            unmasked = x in xin
            budget = self.mu * d
            for parent, w in parents:
                if not unmasked and parent not in xout:
                    continue
                contribution = budget * (1.0 / w) / norm
                if contribution > floor:
                    # _set, inlined for the per-event hot loop.
                    total[parent] += contribution
                    row[parent] += contribution
                    changed.add(parent)
                    touches += 1
                    stack.append((parent, contribution))
        self.cascade_touches += touches

    def drain_changed(self) -> np.ndarray:
        """Nodes whose activation changed since the last drain, sorted —
        and the snapshot-sync point for the ``act`` matrix."""
        if not self._changed:
            return np.zeros(0, dtype=np.int64)
        out = np.fromiter(self._changed, dtype=np.int64, count=len(self._changed))
        self._changed.clear()
        out.sort()
        nodes = out.tolist()
        for i in range(self.k):
            row = self.act_rows[i]
            self.act[i, out] = [row[x] for x in nodes]
        return out
