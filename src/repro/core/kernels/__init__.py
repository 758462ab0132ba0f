"""Vectorized batch-frontier expansion engine.

This package holds the flat-array path behind
``SearchParams.expansion_backend="vectorized"``: CSR snapshots of the
search graph (:mod:`~repro.core.kernels.csr`), a dense batch-pop
priority frontier (:mod:`~repro.core.kernels.frontier`), dense
distance/activation state with scalar cascade application
(:mod:`~repro.core.kernels.state`), the numpy candidate kernels
(:mod:`~repro.core.kernels.expand`), and the batched ``run()`` engines
the search classes delegate to (:mod:`~repro.core.kernels.engines`).
"""

from repro.core.kernels.csr import GraphCSR, graph_csr
from repro.core.kernels.engines import run_bidi_batched, run_si_batched
from repro.core.kernels.frontier import VectorFrontier
from repro.core.kernels.state import DenseActivationState, DensePathState

__all__ = [
    "GraphCSR",
    "graph_csr",
    "VectorFrontier",
    "DenseActivationState",
    "DensePathState",
    "run_si_batched",
    "run_bidi_batched",
]
