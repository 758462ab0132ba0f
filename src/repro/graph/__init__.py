"""Graph substrate (S1-S4): data graph, search graph, weights, prestige.

Re-exports are lazy (:mod:`repro._lazy`): a process imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graph.builder import build_data_graph, build_search_graph
    from repro.graph.digraph import DataGraph
    from repro.graph.policy import EdgePolicy, apply_edge_policy
    from repro.graph.prestige import compute_prestige, prestige_transition_matrix
    from repro.graph.searchgraph import Edge, SearchGraph
    from repro.graph.weights import DEFAULT_FORWARD_WEIGHT, backward_edge_weight

__all__ = [
    "DataGraph",
    "SearchGraph",
    "Edge",
    "backward_edge_weight",
    "DEFAULT_FORWARD_WEIGHT",
    "EdgePolicy",
    "apply_edge_policy",
    "build_data_graph",
    "build_search_graph",
    "compute_prestige",
    "prestige_transition_matrix",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    builder="build_data_graph build_search_graph",
    digraph="DataGraph",
    policy="EdgePolicy apply_edge_policy",
    prestige="compute_prestige prestige_transition_matrix",
    searchgraph="Edge SearchGraph",
    weights="DEFAULT_FORWARD_WEIGHT backward_edge_weight",
)
