"""Edge-type constraints and prioritization (paper Section 1).

"Our prioritization mechanism can be extended to implement other useful
features.  For example, we can enforce constraints using edge types to
restrict search to specified search paths, or to prioritize certain
paths over others."

An :class:`EdgePolicy` maps each search-graph edge — identified by the
*table types* of its endpoints and its direction — to a weight
multiplier, or drops it entirely.  Applying a policy produces a new
:class:`~repro.graph.searchgraph.SearchGraph` view with the same node
metadata and prestige, so every algorithm gains type constraints with
no changes: restricting to authorship paths, banning citation hops, or
up-weighting (de-prioritizing) hub traversals are all one-liners.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.graph.searchgraph import SearchGraph

__all__ = ["EdgePolicy", "apply_edge_policy"]

#: (src_table, dst_table, is_forward) -> multiplier; None drops the edge.
PolicyFn = Callable[[Optional[str], Optional[str], bool], Optional[float]]


class EdgePolicy:
    """Declarative edge-type policy.

    Rules are looked up by ``(src_table, dst_table)``; ``"*"`` acts as a
    wildcard on either side.  A rule value is a weight multiplier
    (``1.0`` keeps the edge as is, larger values de-prioritize it) or
    ``None`` to forbid the edge.  The most specific rule wins:
    exact pair, then ``(src, "*")``, then ``("*", dst)``, then the
    default.

    Examples
    --------
    Restrict search to authorship connections on the DBLP schema::

        policy = EdgePolicy(default=None, rules={
            ("writes", "author"): 1.0,
            ("author", "writes"): 1.0,
            ("writes", "paper"): 1.0,
            ("paper", "writes"): 1.0,
        })

    Penalize (but allow) hops through citation links::

        policy = EdgePolicy(rules={("cites", "*"): 3.0, ("*", "cites"): 3.0})
    """

    def __init__(
        self,
        *,
        rules: Optional[dict[tuple[str, str], Optional[float]]] = None,
        default: Optional[float] = 1.0,
        forward_only: bool = False,
    ) -> None:
        self.rules = dict(rules) if rules else {}
        for pair, multiplier in self.rules.items():
            if multiplier is not None and multiplier <= 0.0:
                raise ValueError(
                    f"multiplier for {pair} must be > 0 or None, got {multiplier!r}"
                )
        if default is not None and default <= 0.0:
            raise ValueError(f"default must be > 0 or None, got {default!r}")
        self.default = default
        self.forward_only = forward_only

    # ------------------------------------------------------------------
    def multiplier(
        self, src_table: Optional[str], dst_table: Optional[str], is_forward: bool
    ) -> Optional[float]:
        """Effective multiplier for an edge, or None to drop it."""
        if self.forward_only and not is_forward:
            return None
        src = src_table if src_table is not None else "*"
        dst = dst_table if dst_table is not None else "*"
        for key in ((src, dst), (src, "*"), ("*", dst)):
            if key in self.rules:
                return self.rules[key]
        return self.default

    def __call__(
        self, src_table: Optional[str], dst_table: Optional[str], is_forward: bool
    ) -> Optional[float]:
        return self.multiplier(src_table, dst_table, is_forward)


def apply_edge_policy(graph: SearchGraph, policy: PolicyFn) -> SearchGraph:
    """A search-graph view with ``policy`` applied to every edge.

    Node ids, labels, tables, refs and prestige carry over; adjacency
    and the activation normalizers are rebuilt.  Dropping every edge of
    a node leaves it isolated (still a valid keyword match).
    """
    n = graph.num_nodes
    out_lists: list[list[tuple[int, float, bool]]] = [[] for _ in range(n)]
    in_lists: list[list[tuple[int, float, bool]]] = [[] for _ in range(n)]
    kept_forward = 0
    for u in range(n):
        u_table = graph.table(u)
        for v, w, fwd in graph.out_edges(u):
            multiplier = policy(u_table, graph.table(v), fwd)
            if multiplier is None:
                continue
            weight = w * multiplier
            out_lists[u].append((v, weight, fwd))
            in_lists[v].append((u, weight, fwd))
            if fwd:
                kept_forward += 1

    return SearchGraph._from_adjacency(
        out=out_lists,
        in_=in_lists,
        labels=graph._labels,
        tables=graph._tables,
        refs=graph._refs,
        num_forward_edges=kept_forward,
        prestige=graph.prestige_values,
    )
