"""Workload generation, relevance ground truth and metrics."""

from repro.workload.bands import BAND_ORDER, OriginBands, PAPER_REFERENCE_NODES
from repro.workload.generator import WorkloadGenerator, WorkloadQuery
from repro.workload.metrics import (
    MeasurementPoint,
    connection_key,
    connection_recall,
    coverage_curve,
    precision_at_full_coverage,
    measure_at_last_relevant,
    precision_at_full_recall,
    recall,
    recall_precision_curve,
)
from repro.workload.relevance import relevant_answers, relevant_signatures

__all__ = [
    "BAND_ORDER",
    "OriginBands",
    "PAPER_REFERENCE_NODES",
    "WorkloadGenerator",
    "WorkloadQuery",
    "MeasurementPoint",
    "connection_key",
    "connection_recall",
    "coverage_curve",
    "precision_at_full_coverage",
    "measure_at_last_relevant",
    "precision_at_full_recall",
    "recall",
    "recall_precision_curve",
    "relevant_answers",
    "relevant_signatures",
]
