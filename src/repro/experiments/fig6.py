"""FIG6a/b/c: the workload plots of paper Figure 6.

(a) MI-Backward / SI-Backward output-time ratio vs keyword count, for
    small- and large-origin workloads (result size 5);
(b) SI-Backward / Bidirectional, same protocol;
(c) SI-Backward / Bidirectional time and nodes-explored ratios for
    4-keyword queries bucketed by origin-size band combination
    (result size 3).  The paper's printed legend is corrupted (every
    row reads "(T,S,S,S)"); per its prose — "the speedup increases as
    the difference between the origin sizes of keywords increases" — we
    sweep combinations from uniform-rare to maximally skewed.

Each point aggregates per-query ratios with the geometric mean; an
output-ratio cell is marked ``*`` when a point behind it was measured
at the final drain (as in FIG5).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DRAIN_NOTE,
    Report,
    build_bench,
    drained,
    fmt,
    geomean,
    run_measured,
    safe_ratio,
    workload_rng,
)

__all__ = ["run_fig6a", "run_fig6b", "run_fig6c", "FIG6C_COMBOS"]

#: Figure 6(c) band combinations, uniform first, most skewed last.
FIG6C_COMBOS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("A", ("T", "T", "T", "T")),
    ("B", ("S", "S", "S", "S")),
    ("C", ("M", "M", "M", "M")),
    ("D", ("M", "L", "L", "L")),
    ("E", ("T", "T", "T", "S")),
    ("F", ("T", "T", "T", "M")),
    ("G", ("T", "T", "L", "L")),
    ("H", ("T", "T", "T", "L")),
)


def _cell(ratios: list[float], drain: bool) -> str:
    """The geometric mean of ``ratios``, ``*``-marked when ``drain``."""
    cell = fmt(geomean(ratios))
    return cell + "*" if drain and ratios else cell


def _ratio_sweep(
    *,
    experiment: str,
    title: str,
    slow: str,
    fast: str,
    scale: float,
    queries_per_point: int,
    keyword_range: Sequence[int],
    result_size: int,
    seed: int,
    note: str,
) -> Report:
    """Shared driver for Figure 6(a) and 6(b)."""
    bench = build_bench("dblp", scale)
    report = Report(
        experiment=experiment,
        title=title,
        headers=[
            "#keywords",
            f"{slow}/{fast} out-time (small origin)",
            "(large origin)",
            "nodes-expl (small)",
            "(large)",
            "gen-time (small)",
            "(large)",
            "queries",
        ],
    )
    for n_keywords in keyword_range:
        cells: dict[str, str] = {}
        counts = []
        for origin_class in ("small", "large"):
            rng = workload_rng(seed + n_keywords * 17)
            time_ratios: list[float] = []
            pop_ratios: list[float] = []
            gen_ratios: list[float] = []
            drain = False
            for _ in range(queries_per_point):
                query = bench.generator.sample_query(
                    rng,
                    n_keywords=n_keywords,
                    result_size=result_size,
                    origin_class=origin_class,
                )
                if query is None:
                    continue
                _, points, _ = run_measured(
                    bench, query.keywords, (slow, fast), result_size=result_size
                )
                slow_point = points.get(slow)
                fast_point = points.get(fast)
                if slow_point is None or fast_point is None:
                    continue
                drain = drain or drained(slow_point, fast_point)
                time_ratio = safe_ratio(slow_point.out_time, fast_point.out_time)
                pop_ratio = safe_ratio(slow_point.out_pops, fast_point.out_pops)
                gen_ratio = safe_ratio(slow_point.gen_time, fast_point.gen_time)
                if time_ratio is not None:
                    time_ratios.append(time_ratio)
                if pop_ratio is not None:
                    pop_ratios.append(pop_ratio)
                if gen_ratio is not None:
                    gen_ratios.append(gen_ratio)
            cells[f"time_{origin_class}"] = _cell(time_ratios, drain)
            cells[f"pops_{origin_class}"] = _cell(pop_ratios, drain)
            cells[f"gen_{origin_class}"] = _cell(gen_ratios, False)
            counts.append(len(time_ratios))
        report.rows.append(
            [
                str(n_keywords),
                cells["time_small"],
                cells["time_large"],
                cells["pops_small"],
                cells["pops_large"],
                cells["gen_small"],
                cells["gen_large"],
                "+".join(str(c) for c in counts),
            ]
        )
    report.notes.append(note)
    report.notes.append(DRAIN_NOTE)
    return report


def run_fig6a(
    *,
    scale: float = 0.25,
    queries_per_point: int = 3,
    keyword_range: Sequence[int] = (2, 3, 4, 5, 6, 7),
    seed: int = 600,
) -> Report:
    return _ratio_sweep(
        experiment="FIG6a",
        title="MI-Backward vs SI-Backward time ratio by #keywords",
        slow="mi-backward",
        fast="si-backward",
        scale=scale,
        queries_per_point=queries_per_point,
        keyword_range=keyword_range,
        result_size=5,
        seed=seed,
        note=(
            "paper: SI wins by ~an order of magnitude except 2-keyword "
            "small-origin queries (marginal win); nodes-explored ratio "
            "tracks the time ratio"
        ),
    )


def run_fig6b(
    *,
    scale: float = 1.0,
    queries_per_point: int = 3,
    keyword_range: Sequence[int] = (2, 3, 4, 5, 6, 7),
    seed: int = 700,
) -> Report:
    return _ratio_sweep(
        experiment="FIG6b",
        title="SI-Backward vs Bidirectional time ratio by #keywords",
        slow="si-backward",
        fast="bidirectional",
        scale=scale,
        queries_per_point=queries_per_point,
        keyword_range=keyword_range,
        result_size=5,
        seed=seed,
        note=(
            "paper: Bidirectional wins by a large margin (up to ~64x), "
            "nodes-explored ratios about 2x the time ratios"
        ),
    )


def run_fig6c(
    *,
    scale: float = 1.0,
    queries_per_point: int = 3,
    seed: int = 800,
) -> Report:
    """SI/Bidirectional by origin-band combination (4 keywords, size 3)."""
    bench = build_bench("dblp", scale)
    report = Report(
        experiment="FIG6c",
        title="SI-Backward vs Bidirectional by origin-size category",
        headers=[
            "combo",
            "bands",
            "out-time ratio",
            "nodes-expl ratio",
            "gen-time ratio",
            "queries",
        ],
    )
    for offset, (label, combo) in enumerate(FIG6C_COMBOS):
        rng = workload_rng(seed + offset * 31)
        time_ratios: list[float] = []
        pop_ratios: list[float] = []
        gen_ratios: list[float] = []
        drain = False
        for _ in range(queries_per_point):
            query = bench.generator.sample_query(
                rng, n_keywords=4, result_size=3, band_combo=combo
            )
            if query is None:
                continue
            _, points, _ = run_measured(
                bench,
                query.keywords,
                ("si-backward", "bidirectional"),
                result_size=3,
            )
            si = points.get("si-backward")
            bi = points.get("bidirectional")
            if si is None or bi is None:
                continue
            drain = drain or drained(si, bi)
            ratio_t = safe_ratio(si.out_time, bi.out_time)
            ratio_p = safe_ratio(si.out_pops, bi.out_pops)
            ratio_g = safe_ratio(si.gen_time, bi.gen_time)
            if ratio_t is not None:
                time_ratios.append(ratio_t)
            if ratio_p is not None:
                pop_ratios.append(ratio_p)
            if ratio_g is not None:
                gen_ratios.append(ratio_g)
        report.rows.append(
            [
                label,
                "(" + ",".join(combo) + ")",
                _cell(time_ratios, drain),
                _cell(pop_ratios, drain),
                _cell(gen_ratios, False),
                str(len(time_ratios)),
            ]
        )
    report.notes.append(
        "paper: Bidirectional outperforms SI in all categories and the "
        "speedup grows with origin-size skew — largest for (T,T,T,L), "
        "smallest for (M,M,M,M) and (M,L,L,L)"
    )
    report.notes.append(DRAIN_NOTE)
    return report
