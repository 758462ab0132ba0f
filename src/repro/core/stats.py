"""Search instrumentation: the paper's three performance metrics.

Section 5.2: "the nodes explored (i.e. popped from Qin or Qout and
processed) and the nodes touched ... (i.e. inserted in Qin or Qout), and
the time taken".  Additionally Section 5.3 distinguishes the time an
answer was *generated* from the time it could be *output* (once the
upper bound allowed it); :class:`SearchStats` records both, in wall
seconds and in pop counts (pop counts are deterministic and are what the
unit tests assert on).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["COST_FIELDS", "SearchStats"]


#: The always-on per-query cost vector (beyond the paper's three
#: metrics): cheap plain-int counters every algorithm threads through,
#: the feature set the explain layer, the workload analytics sketch and
#: the future admission controller consume.
COST_FIELDS = (
    "pops_in",
    "pops_out",
    "heap_ops",
    "cascade_touches",
    "emit_attempts",
    "gate_skips",
    "resolve_hits",
)


@dataclass
class SearchStats:
    """Counters and timers for one search run."""

    nodes_explored: int = 0
    nodes_touched: int = 0
    edges_explored: int = 0
    answers_generated: int = 0
    answers_output: int = 0
    duplicates_discarded: int = 0
    #: Pops from the incoming-edge frontier (Qin; every pop for the
    #: single-frontier backward algorithms).
    pops_in: int = 0
    #: Pops from the outgoing-edge frontier (Qout; bidirectional only).
    pops_out: int = 0
    #: Frontier heap pushes.
    heap_ops: int = 0
    #: Rows touched by the ancestor attach/propagate cascades.
    cascade_touches: int = 0
    #: Answer-tree emission attempts reaching the minimality/duplicate
    #: filters.
    emit_attempts: int = 0
    #: Candidates dropped earlier still, unbuilt, by the exact-mode
    #: release-bound gate (``BaseSearch._gate_blocks``).
    gate_skips: int = 0
    #: Total inverted-index posting hits behind the query's keywords.
    resolve_hits: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    finished_at: Optional[float] = None

    def touch(self, count: int = 1) -> None:
        self.nodes_touched += count

    def explore(self) -> None:
        self.nodes_explored += 1

    def explore_edge(self, count: int = 1) -> None:
        self.edges_explored += count

    def finish(self) -> None:
        if self.finished_at is None:
            self.finished_at = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Wall seconds from construction to :meth:`finish` (or now)."""
        end = self.finished_at if self.finished_at is not None else time.perf_counter()
        return end - self.started_at

    def now(self) -> float:
        """Seconds since the search started; stamps generation/output times."""
        return time.perf_counter() - self.started_at

    def cost_vector(self) -> dict[str, int]:
        """The always-on accounting counters as a plain dict."""
        return {name: getattr(self, name) for name in COST_FIELDS}

    def as_dict(self) -> dict[str, float]:
        out = {
            "nodes_explored": self.nodes_explored,
            "nodes_touched": self.nodes_touched,
            "edges_explored": self.edges_explored,
            "answers_generated": self.answers_generated,
            "answers_output": self.answers_output,
            "duplicates_discarded": self.duplicates_discarded,
            "elapsed": self.elapsed,
        }
        out.update(self.cost_vector())
        return out
