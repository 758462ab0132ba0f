"""The batched schedule behind ``SearchParams.expansion_backend="vectorized"``.

CSR views of the search graph (:mod:`~repro.core.kernels.csr`), a dense
batch-pop priority frontier (:mod:`~repro.core.kernels.frontier`), the
numpy candidate kernels (:mod:`~repro.core.kernels.expand`), and the
batched ``run()`` loops the search classes delegate to
(:mod:`~repro.core.kernels.engines`).  The search state itself is
:mod:`repro.core.state`, shared with the per-pop schedule.
"""

from repro.core.kernels.csr import GraphCSR, graph_csr
from repro.core.kernels.engines import run_bidi_batched, run_si_batched
from repro.core.kernels.frontier import VectorFrontier

__all__ = [
    "GraphCSR",
    "graph_csr",
    "VectorFrontier",
    "run_si_batched",
    "run_bidi_batched",
]
