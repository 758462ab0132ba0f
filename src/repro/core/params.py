"""Search parameters with the paper's defaults (Section 5.1).

"We used the default values noted earlier in the paper for all
parameters (such as mu, lambda and dmax)" — i.e. ``mu = 0.5``
(Section 4.3), ``lambda = 0.2`` (Section 2.3), ``dmax = 8``
(Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["SearchParams", "DEFAULT_PARAMS"]


def _check_type(name: str, value, types: tuple, what: str) -> None:
    """``bool`` is an ``int`` and NaN a ``float``; neither is a setting."""
    if isinstance(value, bool) or not isinstance(value, types) or value != value:
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SearchParams:
    """Tunable knobs shared by every search algorithm.

    Attributes
    ----------
    mu:
        Activation attenuation: a node spreads fraction ``mu`` of its
        received activation to neighbours and keeps ``1 - mu``
        (Section 4.3).  Only Bidirectional uses it.
    lam:
        Exponent on the tree node-prestige score in the overall
        relevance ``Escore * N**lam`` (Section 2.3).
    dmax:
        Depth cutoff: nodes at depth >= dmax from the keyword nodes are
        not expanded, preventing unintuitively long answer paths and
        ensuring termination (Section 4.2).
    max_results:
        Top-k: stop after this many answers have been *output* (the
        paper measures at the 10th relevant result).
    node_budget:
        Optional hard cap on nodes explored (popped); a safety valve for
        adversarial graphs, disabled by default like in the paper.
    activation_combine:
        How per-keyword activation from multiple edges merges:
        ``"max"`` (the paper's tree model) or ``"sum"`` (the footnote-6
        extension aggregating along multiple paths).
    output_mode:
        ``"exact"`` uses the NRA-style upper bound of Section 4.5;
        ``"heuristic"`` uses the looser edge-score-only bound the paper
        describes as "cheaper ... outputs answers faster".
    max_combos_per_node:
        MI-Backward only: cap on origin combinations emitted per
        confluence node, bounding the cross-product blowup inherent to
        the multi-iterator algorithm.
    cancel_check_interval:
        How many pops apart a search probes its cooperative
        :class:`~repro.core.cancellation.CancellationToken`'s expensive
        sources (deadline clock, external cancel channel).  Bounds the
        overrun of a cancelled search at ~2 intervals of pops; the
        service layers forward it as the token's ``check_every``.
    trace_every_n_pops:
        Trajectory sampling interval of a traced search: every this
        many pops, the search records a trajectory sample (pops,
        touched, frontier sizes, elapsed) into the active trace span.
        ``0`` (the default) disables sampling; the end-of-run summary
        attributes are recorded either way whenever a span is active.
    """

    mu: float = 0.5
    activation_combine: str = "max"
    lam: float = 0.2
    dmax: int = 8
    max_results: int = 10
    node_budget: Optional[int] = None
    output_mode: str = "exact"
    max_combos_per_node: int = 64
    cancel_check_interval: int = 32
    trace_every_n_pops: int = 0

    def __post_init__(self) -> None:
        # Types first: params arrive as JSON from HTTP clients, and an
        # ill-typed value must be a ValueError naming the field here,
        # not a TypeError (or a silently truncated count) mid-search.
        for name in ("mu", "lam"):
            _check_type(name, getattr(self, name), (int, float), "a number")
        for name in (
            "dmax",
            "max_results",
            "max_combos_per_node",
            "cancel_check_interval",
            "trace_every_n_pops",
        ):
            _check_type(name, getattr(self, name), (int,), "an integer")
        if self.node_budget is not None:
            _check_type("node_budget", self.node_budget, (int,), "an integer")
        for name in ("activation_combine", "output_mode"):
            _check_type(name, getattr(self, name), (str,), "a string")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu!r}")
        if self.activation_combine not in ("max", "sum"):
            raise ValueError(
                "activation_combine must be 'max' or 'sum', got "
                f"{self.activation_combine!r}"
            )
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam!r}")
        if self.dmax < 1:
            raise ValueError(f"dmax must be >= 1, got {self.dmax!r}")
        if self.max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {self.max_results!r}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {self.node_budget!r}")
        if self.output_mode not in ("exact", "heuristic"):
            raise ValueError(
                f"output_mode must be 'exact' or 'heuristic', got {self.output_mode!r}"
            )
        if self.max_combos_per_node < 1:
            raise ValueError(
                f"max_combos_per_node must be >= 1, got {self.max_combos_per_node!r}"
            )
        if self.cancel_check_interval < 1:
            raise ValueError(
                f"cancel_check_interval must be >= 1, got "
                f"{self.cancel_check_interval!r}"
            )
        if self.trace_every_n_pops < 0:
            raise ValueError(
                f"trace_every_n_pops must be >= 0, got "
                f"{self.trace_every_n_pops!r}"
            )

    def with_(self, **changes) -> "SearchParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: The paper's defaults.
DEFAULT_PARAMS = SearchParams()
