"""Batched expansion engines for SI-Backward and Bidirectional search.

These are the ``run()`` bodies the search classes delegate to under
``SearchParams.expansion_backend="vectorized"``.  Instead of one cursor
pop per iteration, each loop pops a batch of up to
``cancel_check_interval`` cursors from a
:class:`~repro.core.kernels.frontier.VectorFrontier`, gathers the
batch's edges from the graph CSR in bulk, computes relaxation /
activation candidates with the numpy kernels, and applies them through
the relax / receive steps of :mod:`repro.core.state` — the same state
classes the per-pop loops run on, here with dense rows and the numpy
snapshots the kernels read.

Contracts preserved from the per-pop loops:

* **anytime/cancellation** — the token is consumed once per batch via
  :meth:`CancellationToken.tick_many`; the batch *is*
  ``cancel_check_interval`` pops, so a cancelled search still stops
  within ~2 check intervals of pops, and a partially-granted batch
  processes exactly the granted pops (``cancel_at_tick`` cuts stay
  exact).  Cancellation breaks *between* batches before any flush, so
  the released answers remain a bound-certified prefix;
* **stats/tracing** — ``nodes_explored`` still counts pops,
  ``nodes_touched`` frontier inserts and ``edges_explored`` explored
  edges; ``_profile_tick`` runs once per pop so
  ``trace_every_n_pops`` samples keep their meaning;
* **output** — emission (gate included), minimality, duplicate discard
  and the Section 4.5 bounded release all go through the ``BaseSearch``
  plumbing and the state's one bound.

What batching *changes* is exploration order: cursors 2..K of a batch
are popped before cursor 1's relaxations land, so pop order (and
anything downstream of it, like which equal-cost ``sp`` decomposition
wins a tie) can differ from the per-pop schedule, and from this one at
another batch size.
"""

from __future__ import annotations

from functools import partial
from math import inf

import numpy as np

from repro.core.kernels.csr import graph_csr
from repro.core.kernels.expand import (
    dist_candidates,
    gather_in,
    gather_out,
    spread_candidates,
)
from repro.core.kernels.frontier import VectorFrontier
from repro.core.state import ActivationState, PathState

__all__ = ["run_si_batched", "run_bidi_batched"]

_BIG = np.iinfo(np.int64).max


def _grant(search, want: int) -> int:
    """Consume ``want`` cooperative ticks; flags the search on firing."""
    token = search.token
    if token is None:
        return want
    granted = token.tick_many(want)
    if granted < want:
        search._stopped_by_cancel = True
    return granted


def _pop_loop_head(search, state: PathState, batch, emit) -> None:
    """The per-pop bookkeeping shared by both engines: stats, flush
    counter, profiler sample, emit-if-complete — one tick per cursor so
    counters and trace samples mean what they meant per-pop."""
    for v in batch.tolist():
        search.stats.explore()
        search._pops_since_flush += 1
        search._profile_tick()
        if state.is_complete(v):
            emit(v)


def _assign_depths(
    depth: np.ndarray,
    scratch: np.ndarray,
    fresh: np.ndarray,
    tgt: np.ndarray,
    src_depth_plus1: np.ndarray,
) -> None:
    """First-touch depths for newly discovered nodes: the minimum over
    the batch edges that reached them (order-free); already-known
    depths are kept (setdefault semantics)."""
    np.minimum.at(scratch, tgt, src_depth_plus1)
    depth[fresh] = scratch[fresh]
    scratch[tgt] = _BIG


def _edge_bound(state: PathState, frontier: np.ndarray) -> float:
    """Section 4.5 bound, the frontier minima read off the snapshot
    (drained since the last relaxation)."""
    if len(frontier) == 0:
        return inf
    return state.edge_bound(state.dist[:, frontier].min(axis=1).tolist())


def _relaxations(tgt, src, w, e_idx, i_idx, nd):
    """The kernel's surviving (edge, keyword) pairs as the state's
    ``(u, i, nd, child, w)`` candidates, canonical order."""
    return zip(
        tgt[e_idx].tolist(),
        i_idx.tolist(),
        nd.tolist(),
        src[e_idx].tolist(),
        w[e_idx].tolist(),
    )


# ----------------------------------------------------------------------
# SI-Backward
# ----------------------------------------------------------------------
def run_si_batched(search):
    """Batched SI-Backward: distance-ordered single frontier."""
    params = search.params
    csr = graph_csr(search.graph)
    state = PathState(search.graph, search.keyword_sets, dense=True)
    frontier = VectorFrontier(csr.n, kind="min")
    depth = np.full(csr.n, -1, dtype=np.int64)
    scratch = np.full(csr.n, _BIG, dtype=np.int64)
    explored = np.zeros(csr.n, dtype=bool)
    search._frontier_sizes = lambda: {"queue": len(frontier)}
    emit = partial(search._emit_root, state)

    seeds = state.seed_all()
    if seeds:
        arr = np.array(seeds, dtype=np.int64)
        depth[arr] = 0
        pushed = frontier.push_many(arr, np.zeros(len(arr), dtype=np.float64))
        search.stats.touch(pushed)
        search.stats.heap_ops += pushed

    batch_limit = params.cancel_check_interval
    budget = params.node_budget
    while frontier and not search._done:
        # Ticks consumed == cursors popped (the legacy per-pop rate):
        # cap the ask at what the frontier can actually deliver.
        want = min(batch_limit, len(frontier))
        if budget is not None:
            room = budget - search.stats.nodes_explored
            if room <= 0:
                break
            want = min(want, room)
        granted = _grant(search, want)
        if granted == 0:
            break
        batch = frontier.pop_batch(granted)
        explored[batch] = True
        search.stats.kernel_batches += 1
        search.stats.pops_in += len(batch)
        _pop_loop_head(search, state, batch, emit)

        expand_nodes = batch[depth[batch] < params.dmax]
        if len(expand_nodes):
            state.expanded_in.update(expand_nodes.tolist())
            tgt, src, w = gather_in(csr, expand_nodes)
            if len(w):
                search.stats.explore_edge(len(w))
                e_idx, i_idx, nd = dist_candidates(state.dist, tgt, src, w)
                search.stats.candidates_generated += len(w)
                search.stats.candidates_surviving += len(e_idx)
                state.relax_all(_relaxations(tgt, src, w, e_idx, i_idx, nd), emit)
                changed = np.array(state.drain_changed(), dtype=np.int64)
                if len(changed):
                    live = changed[frontier.contains_mask[changed]]
                    if len(live):
                        frontier.update_many(live, state.dist[:, live].min(axis=0))
                        search.stats.heap_ops += len(live)
                fresh = np.unique(
                    tgt[~(explored[tgt] | frontier.contains_mask[tgt])]
                )
                if len(fresh):
                    _assign_depths(depth, scratch, fresh, tgt, depth[src] + 1)
                    pushed = frontier.push_many(
                        fresh, state.dist[:, fresh].min(axis=0)
                    )
                    search.stats.touch(pushed)
                    search.stats.heap_ops += pushed
        if search._stopped_by_cancel:
            break
        if search._should_flush():
            search._flush(_edge_bound(state, frontier.live_nodes()))
    if (
        not frontier
        and not search._done
        and not search._stopped_by_cancel
        and not search._budget_exhausted()
    ):
        search._tie_sweep(state)
    search.stats.cascade_touches += state.cascade_touches
    return search._finish()


# ----------------------------------------------------------------------
# Bidirectional
# ----------------------------------------------------------------------
def run_bidi_batched(search):
    """Batched Bidirectional: dual activation-ordered frontiers."""
    params = search.params
    csr = graph_csr(search.graph)
    state = PathState(search.graph, search.keyword_sets, dense=True)
    act = ActivationState(
        search.graph,
        search.keyword_sets,
        state.expanded_in,
        state.expanded_out,
        mu=params.mu,
        combine=params.activation_combine,
        dense=True,
    )
    fin = VectorFrontier(csr.n, kind="max")
    fout = VectorFrontier(csr.n, kind="max")
    xin = np.zeros(csr.n, dtype=bool)
    xout = np.zeros(csr.n, dtype=bool)
    depth = np.full(csr.n, -1, dtype=np.int64)
    scratch = np.full(csr.n, _BIG, dtype=np.int64)
    search._frontier_sizes = lambda: {
        "incoming": len(fin),
        "outgoing": len(fout),
    }
    emit = partial(search._emit_root, state)

    seeds = state.seed_all()
    act.seed_all()
    if seeds:
        arr = np.array(seeds, dtype=np.int64)
        depth[arr] = 0
        pushed = fin.push_many(arr, act.total[arr])
        search.stats.touch(pushed)
        search.stats.heap_ops += pushed

    batch_limit = params.cancel_check_interval
    budget = params.node_budget
    explain_side = None
    while (fin or fout) and not search._done:
        want = batch_limit
        if budget is not None:
            room = budget - search.stats.nodes_explored
            if room <= 0:
                break
            want = min(want, room)
        # Figure 3's switch: expand whichever queue holds the cursor
        # with the highest activation (ties favour the incoming side,
        # which discovers the potential roots).
        pin = fin.peek_priority()
        pout = fout.peek_priority()
        incoming = pin is not None and (pout is None or pin >= pout)
        if search._explain_every and incoming is not explain_side:
            # Record only actual direction changes (mirrors the python
            # engine) — one note per batch would flood the timeline.
            explain_side = incoming
            search.explain_note(
                "switch",
                rule="activation",
                pin=pin,
                pout=pout,
                chose="in" if incoming else "out",
            )
        side = fin if incoming else fout
        # Ticks consumed == cursors popped (the legacy per-pop rate).
        want = min(want, len(side))
        granted = _grant(search, want)
        if granted == 0:
            break
        batch = side.pop_batch(granted)
        (xin if incoming else xout)[batch] = True
        search.stats.kernel_batches += 1
        if incoming:
            search.stats.pops_in += len(batch)
        else:
            search.stats.pops_out += len(batch)
        _pop_loop_head(search, state, batch, emit)

        expand_nodes = batch[depth[batch] < params.dmax]
        if len(expand_nodes):
            if incoming:
                state.expanded_in.update(expand_nodes.tolist())
                nbr, rep, w = gather_in(csr, expand_nodes)
                tgt_d, src_d = nbr, rep
                norm = csr.in_norm[rep]
            else:
                state.expanded_out.update(expand_nodes.tolist())
                nbr, rep, w = gather_out(csr, expand_nodes)
                # Forward exploration pulls the neighbour's distances
                # into the expanding node (the payoff of forward search).
                tgt_d, src_d = rep, nbr
                norm = csr.out_norm[rep]
            if len(w):
                search.stats.explore_edge(len(w))
                e_idx, i_idx, nd = dist_candidates(state.dist, tgt_d, src_d, w)
                search.stats.candidates_generated += len(w)
                search.stats.candidates_surviving += len(e_idx)
                state.relax_all(
                    _relaxations(tgt_d, src_d, w, e_idx, i_idx, nd), emit
                )
                state.drain_changed()  # snapshot sync; priorities are activation-based
                e_idx, i_idx, contr = spread_candidates(
                    act.act,
                    nbr,
                    rep,
                    w,
                    norm,
                    params.mu,
                    params.activation_combine,
                    act.min_contribution,
                )
                search.stats.candidates_surviving += len(e_idx)
                act.receive_all(
                    zip(nbr[e_idx].tolist(), i_idx.tolist(), contr.tolist())
                )
                seen = xin if incoming else xout
                fresh = np.unique(
                    nbr[~(seen[nbr] | side.contains_mask[nbr])]
                )
                if len(fresh):
                    _assign_depths(depth, scratch, fresh, nbr, depth[rep] + 1)
                    pushed = side.push_many(fresh, act.total[fresh])
                    search.stats.touch(pushed)
                    search.stats.heap_ops += pushed

        if incoming:
            # Every node explored backward is a potential answer root.
            roots = batch[~(xout[batch] | fout.contains_mask[batch])]
            if len(roots):
                pushed = fout.push_many(roots, act.total[roots])
                search.stats.touch(pushed)
                search.stats.heap_ops += pushed

        changed = np.array(act.drain_changed(), dtype=np.int64)
        if len(changed):
            live_in = changed[fin.contains_mask[changed]]
            if len(live_in):
                fin.update_many(live_in, act.total[live_in])
                search.stats.heap_ops += len(live_in)
            live_out = changed[fout.contains_mask[changed]]
            if len(live_out):
                fout.update_many(live_out, act.total[live_out])
                search.stats.heap_ops += len(live_out)

        if search._stopped_by_cancel:
            break
        if search._should_flush():
            search._flush(
                _edge_bound(
                    state, np.concatenate([fin.live_nodes(), fout.live_nodes()])
                )
            )
    if (
        not fin
        and not fout
        and not search._done
        and not search._stopped_by_cancel
        and not search._budget_exhausted()
    ):
        search._tie_sweep(state)
    search.stats.cascade_touches += state.cascade_touches + act.cascade_touches
    return search._finish()
