"""Shared harness utilities: dataset/engine cache, report rendering,
ratio math.

Every experiment returns a :class:`Report` (title, table, notes) so the
CLI (``python -m repro.experiments``) and the pytest benchmarks print
identical artifacts.  Dataset sizes scale with the ``REPRO_SCALE``
environment variable (default 1.0 = seconds-per-experiment on a laptop;
raise it to stress closer to paper scale).
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.engine import KeywordSearchEngine
from repro.core.params import SearchParams
from repro.datasets import (
    DblpConfig,
    ImdbConfig,
    PatentsConfig,
    make_dblp,
    make_imdb,
    make_patents,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.metrics import measure_at_last_relevant
from repro.workload.relevance import relevant_signatures

__all__ = [
    "Report",
    "Bench",
    "repro_scale",
    "build_bench",
    "run_measured",
    "geomean",
    "safe_ratio",
    "drained",
    "DRAIN_NOTE",
    "fmt",
]


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass
class Report:
    """A rendered experiment artifact: one table plus notes."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        out = [f"== {self.experiment}: {self.title} ==", line(self.headers)]
        out.append("  ".join("-" * w for w in widths))
        out.extend(line(row) for row in self.rows)
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.render())


# ----------------------------------------------------------------------
# numbers
# ----------------------------------------------------------------------
def fmt(value, digits: int = 2) -> str:
    """Compact numeric formatting for table cells."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.{digits}f}"
    return str(value)


def geomean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean — the right average for per-query time ratios."""
    cleaned = [v for v in values if v is not None and v > 0]
    if not cleaned:
        return None
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


def safe_ratio(
    numerator: Optional[float], denominator: Optional[float]
) -> Optional[float]:
    """Ratio guarded against missing/zero denominators; zero-cost
    measurements are clamped to one pop/tick so early hits do not yield
    infinite ratios."""
    if numerator is None or denominator is None:
        return None
    return max(numerator, 1e-9) / max(denominator, 1e-9)


def drained(*points) -> bool:
    """Whether a point was measured at the final drain (what
    :data:`DRAIN_NOTE`, a ``*``-marking report's note, explains)."""
    return any(point.out_pops == point.total_pops for point in points)


DRAIN_NOTE = (
    "* a point behind the output ratio was measured at the final drain "
    "(out_pops == total_pops): the ratio compares whole searches, not time "
    "to the last relevant answer; generation-time ratios are never marked"
)


# ----------------------------------------------------------------------
# datasets and engines
# ----------------------------------------------------------------------
def repro_scale() -> float:
    """Global size multiplier from the REPRO_SCALE env var."""
    try:
        scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


@dataclass
class Bench:
    """One dataset prepared for experiments."""

    name: str
    db: object
    engine: KeywordSearchEngine
    generator: WorkloadGenerator
    build_seconds: float


_BENCH_CACHE: dict[tuple[str, float], Bench] = {}

_MAKERS = {
    "dblp": (make_dblp, DblpConfig()),
    "imdb": (make_imdb, ImdbConfig()),
    "patents": (make_patents, PatentsConfig()),
}


def build_bench(name: str, scale: float = 1.0) -> Bench:
    """Build (or fetch the cached) dataset+engine+workload-generator.

    ``scale`` multiplies the dataset's default entity counts, further
    multiplied by ``REPRO_SCALE``.
    """
    try:
        maker, config = _MAKERS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(_MAKERS)}"
        ) from None
    effective = scale * repro_scale()
    key = (name, effective)
    cached = _BENCH_CACHE.get(key)
    if cached is not None:
        return cached
    start = time.perf_counter()
    db = maker(config.scaled(effective))
    engine = KeywordSearchEngine.from_database(db)
    generator = WorkloadGenerator(db, engine.graph, engine.index)
    bench = Bench(
        name=name,
        db=db,
        engine=engine,
        generator=generator,
        build_seconds=time.perf_counter() - start,
    )
    _BENCH_CACHE[key] = bench
    return bench


# ----------------------------------------------------------------------
# measured runs
# ----------------------------------------------------------------------
def run_measured(
    bench: Bench,
    keywords: Sequence[str],
    algorithms: Sequence[str],
    *,
    result_size: int,
    params: Optional[SearchParams] = None,
    nth: int = 10,
):
    """Run the given algorithms on one query; measure each at the last
    (or ``nth``) relevant answer.

    Returns ``(relevant_count, points, reasons)``: ``points`` maps every
    algorithm to its ``MeasurementPoint`` or None, and ``reasons`` says
    why, for each None.
    """
    engine = bench.engine
    _, keyword_sets = engine.resolve(list(keywords))
    relevant = relevant_signatures(
        engine.graph,
        keyword_sets,
        max_tree_size=result_size,
        scorer=engine.scorer,
    )
    if not relevant:
        reasons = dict.fromkeys(algorithms, "no relevant tree")
        return 0, dict.fromkeys(algorithms), reasons
    points, reasons = {}, {}
    for algorithm in algorithms:
        result = engine.search(list(keywords), algorithm=algorithm, params=params)
        point = points[algorithm] = measure_at_last_relevant(result, relevant, nth=nth)
        if point is None:
            reasons[algorithm] = f"0/{len(relevant)} rel in top {len(result.answers)}"
    return len(relevant), points, reasons


def workload_rng(seed: int) -> random.Random:
    """Deterministic per-experiment RNG."""
    return random.Random(seed)
