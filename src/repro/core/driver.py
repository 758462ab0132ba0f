"""Shared machinery of the three search algorithms.

Emission (release-bound gate -> minimality filter -> output heap ->
stats), the Section 4.5 output bounds, flush scheduling and result
assembly are identical across MI-Backward, SI-Backward and
Bidirectional; this module implements them once.

Bound computation (Section 4.5): per keyword ``i`` the frontier minimum
``m_i`` lower-bounds the ``s(T, t_i)`` of answers not yet generated; the
NRA-style refinement (Fagin et al.) also considers every *seen but
incomplete* node, trusting its known distances and bounding missing ones
by ``m_i``.  The resulting edge-score lower bound converts to a score
upper bound through the scorer.  As the paper notes, activation-ordered
frontiers make this a heuristic; the RP experiment measures how ordered
the output actually is.
"""

from __future__ import annotations

from functools import cached_property
from math import inf, isinf
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.core.answer import OutputAnswer, SearchResult, is_minimal_rooting
from repro.core.cancellation import CancellationToken
from repro.core.output_heap import OutputHeap
from repro.core.params import SearchParams
from repro.core.scoring import Scorer
from repro.core.stats import SearchStats
from repro.core.ties import tight_decomposition
from repro.telemetry.trace import current_span

__all__ = ["BaseSearch", "nra_edge_bound", "frontier_minima"]

#: Fewest pops between two recomputations of the output bound; 16 keeps
#: bound upkeep under a few percent of runtime.
FLUSH_INTERVAL = 16


def nra_edge_bound(
    ms: Sequence[float],
    incomplete_dist_vectors: Iterable[Sequence[float]],
) -> float:
    """Lower bound on the edge score ``E`` of any future answer.

    ``ms`` are the per-keyword frontier minima; ``incomplete_dist_vectors``
    iterates the per-keyword distance vectors of seen-but-incomplete
    nodes (``inf`` marks an unknown distance, replaced by the
    corresponding ``m_i``).
    """
    best = sum(ms)
    for vector in incomplete_dist_vectors:
        total = 0.0
        for d, m in zip(vector, ms):
            total += m if isinf(d) else d
            if total >= best:
                break
        else:
            best = total
    return best


class BaseSearch:
    """Common state and emission/flush/termination logic."""

    algorithm = "base"

    #: Pops between two ``sample`` events of an explain timeline.
    EXPLAIN_EVERY = 64
    #: Most events one explain timeline keeps.
    EXPLAIN_LIMIT = 256

    def __init__(
        self,
        graph,
        keywords: Sequence[str],
        keyword_sets: Sequence[frozenset[int]],
        *,
        params: Optional[SearchParams] = None,
        scorer: Optional[Scorer] = None,
        token: Optional[CancellationToken] = None,
    ) -> None:
        if len(keywords) != len(keyword_sets):
            raise ValueError("keywords and keyword_sets must align")
        if not keyword_sets:
            raise ValueError("at least one keyword is required")
        self.graph = graph
        self.keywords = tuple(keywords)
        self.keyword_sets = tuple(frozenset(s) for s in keyword_sets)
        self.k = len(self.keyword_sets)
        self.params = params if params is not None else SearchParams()
        self.scorer = scorer if scorer is not None else Scorer(graph)
        self.token = token
        self.stats = SearchStats()
        self.output = OutputHeap(self.params.output_mode, self.params.max_results)
        self._result = SearchResult(
            algorithm=self.algorithm, keywords=self.keywords, stats=self.stats
        )
        self._pops_since_flush = 0
        #: ``(root, paths, dists)`` of every tree handed to the output.
        self._added: set[tuple] = set()
        self._done = False
        self._stopped_by_cancel = False
        # Tracing: the ambient span (if any) receives an end-of-run
        # summary and the time spent emitting.
        self.span = current_span()
        self._emit_seconds = 0.0
        # EXPLAIN mode (off by default): when enabled the loops append a
        # bounded timeline of sampled frontier states and scheduling
        # decisions here.  Off, every hook reduces to one falsy check.
        self._explain_every = 0
        self.explain_events: list[dict] = []

    # ------------------------------------------------------------------
    # explain
    # ------------------------------------------------------------------
    def enable_explain(self) -> None:
        """Collect a sampled expansion timeline (one ``sample`` entry per
        :attr:`EXPLAIN_EVERY` pops, at most :attr:`EXPLAIN_LIMIT`
        events) into :attr:`explain_events`."""
        self._explain_every = self.EXPLAIN_EVERY

    def explain_note(self, kind: str, **data) -> None:
        """Append one timeline event (call sites guard on
        ``self._explain_every`` so disabled explain costs one check)."""
        if len(self.explain_events) >= self.EXPLAIN_LIMIT:
            return
        data["event"] = kind
        data["pops"] = self.stats.nodes_explored
        self.explain_events.append(data)

    def _frontier_sizes(self) -> dict[str, int]:
        """Per-side frontier sizes, overridden by each algorithm."""
        return {}

    def _explain_tick(self) -> None:
        """Record a trajectory sample every :attr:`EXPLAIN_EVERY` pops
        while explain is on.

        Called once per pop by every main loop; with explain off it is
        a single falsy check.
        """
        every = self._explain_every
        if every and self.stats.nodes_explored % every == 0:
            self.explain_note(
                "sample",
                touched=self.stats.nodes_touched,
                answers_output=self.stats.answers_output,
                elapsed=self.stats.now(),
                frontiers=self._frontier_sizes(),
            )

    @property
    def emit_seconds(self) -> float:
        """Cumulative time spent scoring/releasing answers (only
        measured while a span is active)."""
        return self._emit_seconds

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    @cached_property
    def _leaf_prestige_cap(self) -> float:
        """``sum_i max_{s in S_i} prestige(s)``: every leaf of an answer
        tree is a path endpoint, i.e. a member of some ``S_i``, and
        distinct leaves end distinct keywords' paths, so no tree's
        leaves carry more prestige than this."""
        prestige = self.graph.prestige_values.__getitem__
        return sum(max(map(prestige, nodes)) for nodes in self.keyword_sets if nodes)

    def _gate_blocks(
        self, root: int, edge_score: float, leaf_prestige: Optional[float] = None
    ) -> bool:
        """The one emission gate: can no tree rooted at ``root`` with
        this edge score (and leaves worth at most ``leaf_prestige``,
        default :attr:`_leaf_prestige_cap`) ever be output?

        Exact release is best-first and stops at ``max_results``, so a
        tree scoring below the ``max_results``-th best distinct answer
        buffered or released so far is never output: its better rivals
        are released first and fill the quota.  That floor only grows,
        so an answer that is eventually output — and the add that last
        improved it — always passes.  Heuristic mode keeps no floor.
        """
        floor = self.output.release_floor
        if floor <= 0.0:
            return False
        if leaf_prestige is None:
            leaf_prestige = self._leaf_prestige_cap
        if self.scorer.tree_score_bound(root, leaf_prestige, edge_score) >= floor:
            return False
        self.stats.gate_skips += 1
        return True

    def _emit_root(self, state, root: int, *, sweep: bool = False) -> None:
        """Figure 3 EMIT for a complete ``root`` of a
        :class:`~repro.core.state.PathState`: the ``sp``-pointer tree,
        then the canonical equal-cost decomposition when it differs
        (``sweep`` emits only the latter).

        Under shortest-path ties the ``sp`` decomposition may be a
        non-minimal chain while an equal-cost minimal star exists; the
        minimality filter would then discard the root's only tree.  The
        canonical decomposition (:mod:`repro.core.ties`) is computed
        from distances and the static graph alone, so the oracle and
        both schedules agree on it.  It shares the ``sp`` tree's edge
        score, so one gate decision covers both.
        """
        rows = state.dist_rows
        edge_score = 0.0
        for row in rows:
            edge_score += row[root]
        if self._gate_blocks(root, edge_score):
            return
        paths, dists = state.build_paths(root)
        if not sweep:
            self._emit_tree(root, paths, dists)
        alt = tight_decomposition(self.graph, rows, root)
        if alt is not None and alt[0] != paths:
            self._emit_tree(root, *alt)

    def _emit_tree(self, root, paths, dists) -> None:
        """Score and buffer a candidate tree that passed the gate."""
        if self.span is None:
            self._emit_tree_now(root, paths, dists)
            return
        t0 = perf_counter()
        try:
            self._emit_tree_now(root, paths, dists)
        finally:
            self._emit_seconds += perf_counter() - t0

    def _emit_tree_now(self, root, paths, dists) -> None:
        self.stats.emit_attempts += 1
        # An exact repeat of a tree already added can only come back
        # "duplicate" (the output keeps each signature's best score or
        # its release), so it is counted without being rebuilt.
        key = (root, tuple(paths), tuple(dists))
        if key in self._added:
            self.stats.duplicates_discarded += 1
            return
        if not is_minimal_rooting(root, paths):
            return
        self._added.add(key)
        tree = self.scorer.build_tree(root, paths, dists)
        status = self.output.add(
            tree,
            self.stats.now(),
            self.stats.nodes_explored,
            self.stats.nodes_touched,
        )
        if status == "duplicate":
            self.stats.duplicates_discarded += 1
        elif status == "new":
            self.stats.answers_generated += 1

    def _tie_sweep(self, state) -> None:
        """At natural exhaustion, re-emit each complete node's canonical
        equal-cost decomposition from its *final* distances.

        Per-emission alternates can be computed from a descendant's
        not-yet-final distance (an equal-cost path discovered later
        changes which edges are tight without re-triggering the root's
        emission); this sweep closes that gap.  Callers invoke it only
        when their queues drained naturally — never after a
        cancellation, budget stop or filled top-k quota.
        """
        for root in state.complete_nodes():
            self._emit_root(state, root, sweep=True)

    # ------------------------------------------------------------------
    # flushing (Section 4.5)
    # ------------------------------------------------------------------
    def _should_flush(self) -> bool:
        """Throttle bound recomputation: at least ``FLUSH_INTERVAL``
        pops apart, growing with the explored set so total bound upkeep
        stays linear-ish in search size."""
        if not self.output:
            self._pops_since_flush = 0
            return False
        interval = max(FLUSH_INTERVAL, self.stats.nodes_explored // 8)
        if self._pops_since_flush < interval:
            return False
        self._pops_since_flush = 0
        return True

    def _flush(self, edge_bound: float) -> None:
        """Release buffered answers the bound allows; sets ``_done`` when
        the top-k quota is filled."""
        if self.span is None:
            self._flush_now(edge_bound)
            return
        t0 = perf_counter()
        try:
            self._flush_now(edge_bound)
        finally:
            self._emit_seconds += perf_counter() - t0

    def _flush_now(self, edge_bound: float) -> None:
        if self.params.output_mode == "exact":
            score_bound = self.scorer.score_upper_bound(edge_bound, self.k)
            ready = self.output.pop_ready(score_bound=score_bound)
        else:
            ready = self.output.pop_ready(edge_bound=edge_bound)
        for buffered in ready:
            self._result.answers.append(
                OutputAnswer(
                    tree=buffered.tree,
                    generated_at=buffered.generated_at,
                    generated_pops=buffered.generated_pops,
                    output_at=self.stats.now(),
                    output_pops=self.stats.nodes_explored,
                    generated_touched=buffered.generated_touched,
                    output_touched=self.stats.nodes_touched,
                )
            )
            self.stats.answers_output += 1
            if self.stats.answers_output >= self.params.max_results:
                self._done = True
                return

    def _drain(self) -> None:
        """Search exhausted: release everything left, best first, up to k."""
        for buffered in self.output.drain():
            if self.stats.answers_output >= self.params.max_results:
                break
            self._result.answers.append(
                OutputAnswer(
                    tree=buffered.tree,
                    generated_at=buffered.generated_at,
                    generated_pops=buffered.generated_pops,
                    output_at=self.stats.now(),
                    output_pops=self.stats.nodes_explored,
                    generated_touched=buffered.generated_touched,
                    output_touched=self.stats.nodes_touched,
                )
            )
            self.stats.answers_output += 1

    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        budget = self.params.node_budget
        return budget is not None and self.stats.nodes_explored >= budget

    def _cancelled(self) -> bool:
        """One cooperative tick per pop; True once the token has fired.

        The anytime contract: each algorithm's main loop calls this
        alongside its budget check and simply breaks — the result is
        assembled (and flagged) by :meth:`_finish`.
        """
        token = self.token
        if token is not None and token.tick():
            self._stopped_by_cancel = True
            return True
        return False

    def _finish(self) -> SearchResult:
        if self._stopped_by_cancel and not self._done:
            # Cancelled: keep exactly the answers the Section 4.5 bound
            # already certified and released.  Draining the buffer here
            # would break the prefix property — a longer run could
            # still generate answers that outrank the buffered ones.
            # (A token firing after the queues drained naturally is not
            # a cancellation: the search finished, the result is
            # complete.)
            self._result.complete = False
            self._result.cancel_reason = (
                self.token.reason if self.token is not None else None
            )
        elif not self._done:
            self._drain()
        self.stats.finish()
        span = self.span
        if span is not None:
            span.set_attributes(
                {
                    "pops": self.stats.nodes_explored,
                    "nodes_touched": self.stats.nodes_touched,
                    "edges_explored": self.stats.edges_explored,
                    "answers_generated": self.stats.answers_generated,
                    "answers_output": self.stats.answers_output,
                    "duplicates_discarded": self.stats.duplicates_discarded,
                    "complete": self._result.complete,
                    "frontiers": self._frontier_sizes(),
                }
            )
            if self._result.cancel_reason is not None:
                span.set_attribute("cancel_reason", self._result.cancel_reason)
        return self._result

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:  # pragma: no cover - overridden
        raise NotImplementedError


def frontier_minima(dist_rows: Sequence, frontier: Iterable[int]) -> list[float]:
    """Per-keyword minimum known distance over the frontier nodes
    (``m_i`` of Section 4.5).  ``dist_rows[i][node]`` is the node's
    known distance to keyword ``i`` or ``inf``; ``frontier`` is iterated
    once per keyword."""
    return [min(map(row.__getitem__, frontier), default=inf) for row in dist_rows]
