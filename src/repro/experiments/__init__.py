"""Experiment harness: one entry point per paper table/figure.

Run from the command line::

    python -m repro.experiments --list
    python -m repro.experiments fig5 fig6b
    python -m repro.experiments all
"""

from repro.experiments.ablations import (
    run_ablation_activation,
    run_ablation_bounds,
    run_ablation_dmax,
)
from repro.experiments.common import Report, build_bench, repro_scale
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6a, run_fig6b, run_fig6c
from repro.experiments.figure4 import build_figure4_engine, run_figure4
from repro.experiments.memory import run_memory, run_prestige
from repro.experiments.recall_precision import run_recall_precision

#: Experiment id -> callable returning a Report: the paper's Figures 4-6,
#: the recall/precision study, the memory and prestige costs of Section
#: 5.1, and the three ablations.
REGISTRY = {
    "fig4": run_figure4,
    "fig5": run_fig5,
    "fig6a": run_fig6a,
    "fig6b": run_fig6b,
    "fig6c": run_fig6c,
    "rp": run_recall_precision,
    "mem": run_memory,
    "prestige": run_prestige,
    "abl-activation": run_ablation_activation,
    "abl-dmax": run_ablation_dmax,
    "abl-bounds": run_ablation_bounds,
}

__all__ = [
    "REGISTRY",
    "Report",
    "build_bench",
    "repro_scale",
    "build_figure4_engine",
    "run_figure4",
    "run_fig5",
    "run_fig6a",
    "run_fig6b",
    "run_fig6c",
    "run_recall_precision",
    "run_memory",
    "run_prestige",
    "run_ablation_activation",
    "run_ablation_dmax",
    "run_ablation_bounds",
]
