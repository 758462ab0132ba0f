"""Edge-weight policy of the BANKS graph model (paper Section 2.3).

Forward edges (the direction of foreign keys, containment, IDREFs, ...)
carry a schema-defined weight defaulting to 1.  For every forward edge
``u -> v`` with weight ``w_uv`` the search graph contains a *backward*
edge ``v -> u`` weighted::

    w_vu = w_uv * log2(1 + indegree(v))

where ``indegree(v)`` counts forward edges into ``v``.  Backward edges
out of "hubs" (conference, genre, company nodes with many incident
edges) therefore carry large weights, giving meaningless shortcut paths
through hubs a low relevance score.
"""

from __future__ import annotations

import math

__all__ = ["backward_edge_weight", "DEFAULT_FORWARD_WEIGHT"]

#: Weight of a forward edge when the schema does not override it.
DEFAULT_FORWARD_WEIGHT = 1.0


def backward_edge_weight(forward_weight: float, indegree: int) -> float:
    """Weight of the derived backward edge ``v -> u``.

    Parameters
    ----------
    forward_weight:
        Weight ``w_uv`` of the original forward edge ``u -> v``.
    indegree:
        Number of forward edges pointing into ``v``.

    Returns
    -------
    float
        ``w_uv * log2(1 + indegree)``.  For ``indegree == 1`` (a node
        referenced exactly once) this equals the forward weight, so
        chains are penalty-free while hubs are penalized.

    Raises
    ------
    ValueError
        If ``forward_weight`` is not finite and positive, ``indegree``
        is not at least 1 (a backward edge only exists because at least
        one forward edge points into ``v``), or the product overflows.
    """
    if not 0.0 < forward_weight < math.inf:  # NaN fails too
        raise ValueError(
            f"forward edge weight must be finite and > 0, got {forward_weight!r}"
        )
    if indegree < 1:
        raise ValueError(f"indegree must be >= 1 for a backward edge, got {indegree!r}")
    weight = forward_weight * math.log2(1.0 + indegree)
    if weight == math.inf:
        raise ValueError(
            f"backward edge weight overflows: {forward_weight!r} x log2(1 + {indegree})"
        )
    return weight
