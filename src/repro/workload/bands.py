"""Origin-size bands: Tiny / Small / Medium / Large keywords.

Paper Section 5.6 buckets keywords by how many tuples they match:
tiny (1-500), small (1000-2000), medium (2500-5000), large (>7000) on
the 2M-node DBLP graph; Section 5.4 splits workloads at <1000 ("small
origin") and >8000 ("large origin").  Our graphs are scaled down, so
the thresholds scale proportionally with a floor that keeps the bands
distinct on small graphs (:meth:`OriginBands.scaled_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

__all__ = ["OriginBands", "PAPER_REFERENCE_NODES", "BAND_ORDER"]

#: Nodes in the paper's DBLP graph, the reference for threshold scaling.
PAPER_REFERENCE_NODES = 2_000_000

#: Canonical band codes, rarest first.
BAND_ORDER = ("T", "S", "M", "L")


@dataclass(frozen=True)
class OriginBands:
    """Per-band (lo, hi) inclusive frequency ranges plus the Section 5.4
    small/large origin split thresholds."""

    tiny: tuple[float, float] = (1, 500)
    small: tuple[float, float] = (1000, 2000)
    medium: tuple[float, float] = (2500, 5000)
    large: tuple[float, float] = (7000, inf)
    small_origin_max: float = 1000  # "less than 1000 records matched"
    large_origin_min: float = 8000  # "more than 8000 records matched"

    # ------------------------------------------------------------------
    @classmethod
    def scaled_for(
        cls, num_nodes: int, *, reference: int = PAPER_REFERENCE_NODES
    ) -> "OriginBands":
        """Scale the paper's thresholds to a graph of ``num_nodes``.

        Floors keep the four bands disjoint and non-degenerate on the
        small graphs the pure-Python benches use.
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes!r}")
        r = num_nodes / reference

        def at_least(value: float, floor: float) -> float:
            return max(floor, value * r)

        return cls(
            tiny=(1, at_least(500, 3)),
            small=(at_least(1000, 5), at_least(2000, 10)),
            medium=(at_least(2500, 12), at_least(5000, 25)),
            large=(at_least(7000, 30), inf),
            small_origin_max=at_least(1000, 5),
            large_origin_min=at_least(8000, 30),
        )

    # ------------------------------------------------------------------
    def classify(self, frequency: int) -> str:
        """Band code of a keyword frequency: 'T', 'S', 'M', 'L', or '-'
        when it falls between bands."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        for code, (lo, hi) in zip(BAND_ORDER, self.ranges()):
            if lo <= frequency <= hi:
                return code
        return "-"

    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.tiny, self.small, self.medium, self.large)

    # ------------------------------------------------------------------
    def is_small_origin(self, min_frequency: int) -> bool:
        """Section 5.4: at least one keyword under the small threshold."""
        return min_frequency < self.small_origin_max

    def is_large_origin(self, max_frequency: int) -> bool:
        """Section 5.4: at least one keyword over the large threshold."""
        return max_frequency > self.large_origin_min
