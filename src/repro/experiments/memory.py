"""MEM + PRES: Section 5.1's infrastructure measurements.

Memory: the paper's compact in-memory graph index takes
``16|V| + 8|E|`` bytes.  A built graph here holds no such index — its
rows are Python tuples — so the arrays measured are the ones that
exist: the edge columns and normalizers of a mapped snapshot
(:meth:`~repro.storage.MappedSearchGraph.compact_nbytes`), set against
the formula on all three datasets.

Prestige: the paper reports "about a minute" to compute node prestige
on its (2M-node) graphs; we time our biased PageRank across scales to
show the same near-linear growth.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments.common import Report, build_bench, fmt
from repro.graph.prestige import compute_prestige
from repro.service.snapshot import load_snapshot, save_engine

__all__ = ["run_memory", "run_prestige"]


def run_memory(*, scales: tuple[float, ...] = (0.5, 1.0, 2.0)) -> Report:
    report = Report(
        experiment="MEM",
        title="Mapped snapshot graph arrays vs the paper's 16|V|+8|E| bytes",
        headers=[
            "dataset",
            "nodes",
            "edges",
            "measured bytes",
            "16V+8E",
            "measured/formula",
        ],
    )
    with tempfile.TemporaryDirectory() as tmp:
        for dataset in ("dblp", "imdb", "patents"):
            for scale in scales:
                bench = build_bench(dataset, scale)
                path = save_engine(Path(tmp) / f"{dataset}.snap", bench.engine)
                graph, _ = load_snapshot(path, storage_mode="mapped")
                measured = graph.compact_nbytes()
                formula = 16 * graph.num_nodes + 8 * graph.num_edges
                report.rows.append(
                    [
                        f"{dataset} x{scale:g}",
                        fmt(graph.num_nodes),
                        fmt(graph.num_edges),
                        fmt(measured),
                        fmt(formula),
                        fmt(measured / formula if formula else None),
                    ]
                )
    report.notes.append(
        "edges counts forward+backward; measured is both directions' ids "
        "(4 B), float64 weights (8 B) and forward flags (1 B) per combined "
        "edge plus two float64 normalizers per node — the paper's index "
        "keeps one direction with float32 weights"
    )
    report.notes.append(
        "there is no in-memory CSR: a built graph's rows are Python tuples, "
        "and a snapshot's row bounds and prestige load as Python numbers"
    )
    return report


def run_prestige(*, scales: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)) -> Report:
    report = Report(
        experiment="PRES",
        title="Node-prestige (biased PageRank) precomputation cost",
        headers=["dataset", "nodes", "edges", "seconds"],
    )
    for scale in scales:
        bench = build_bench("dblp", scale)
        graph = bench.engine.graph
        start = time.perf_counter()
        compute_prestige(graph)
        elapsed = time.perf_counter() - start
        report.rows.append(
            [
                f"dblp x{scale:g}",
                fmt(graph.num_nodes),
                fmt(graph.num_edges),
                fmt(elapsed, 3),
            ]
        )
    report.notes.append(
        "paper: about one minute at 2M nodes (Java, 2.4GHz P4); growth "
        "here should look near-linear in graph size"
    )
    return report
