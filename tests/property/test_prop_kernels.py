"""Property tests: the kernel-backend parity contract.

Three pinned guarantees for the batched expansion engines:

1. **Kernel bit-parity** — for a fixed batch size, every kernel
   backend (``scalar``, ``vectorized``, and ``numba`` where available)
   releases the *identical* answer stream: same signatures, same
   scores, same order, same stats.  The scalar backend computes
   candidates with plain python loops and the vectorized one with
   numpy array ops; candidates are produced in one canonical
   edge-major order and applied by shared scalar code, so nothing may
   diverge — not even a ULP.

2. **MI tri-backend parity** — MI-Backward keeps its per-settle
   schedule under every backend (the CSR fast path only swaps the
   in-edge scan) and emission is gated once for all of them, so there
   ``python`` joins the bit-parity class too, including every stat
   counter.

3. **Cancelled kernel runs release a certified prefix** — the batched
   loops consume the token once per batch but must preserve the
   partial-results contract: stopping after any tick leaves a prefix
   of the full run's answer stream, and no more pops than the granted
   ticks.

Batch-size *changes* are expressly allowed to change SI/Bidirectional
results (pop order shifts, so tie decompositions and emission
granularity shift — see ``docs/PERFORMANCE.md``); that is why parity
is always asserted at one fixed batch size.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.cancellation import CancellationToken
from repro.core.kernels import available_backends
from repro.core.params import SearchParams
from repro.graph.digraph import DataGraph

#: Kernel backends runnable here (numba joins when importable).
KERNEL_ARMS = [b for b in available_backends() if b != "python"]


@st.composite
def search_cases(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    edge_candidates = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
            ),
            min_size=n - 1,
            max_size=3 * n,
        )
    )
    edges = {}
    for u, v, w in edge_candidates:
        if u != v and (u, v) not in edges:
            edges[(u, v)] = w
    k = draw(st.integers(min_value=1, max_value=3))
    keyword_sets = [
        frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        for _ in range(k)
    ]
    return n, edges, keyword_sets


def build_graph_from(n, edges):
    dg = DataGraph()
    for i in range(n):
        dg.add_node(f"n{i}")
    for (u, v), w in edges.items():
        dg.add_edge(u, v, w)
    return dg.freeze()


def _run(cls, graph, keyword_sets, backend, batch, token=None):
    params = SearchParams(
        max_results=50,
        dmax=12,
        expansion_backend=backend,
        expansion_batch=batch,
        cancel_check_interval=max(1, batch),
    )
    keywords = tuple(f"k{i}" for i in range(len(keyword_sets)))
    return cls(graph, keywords, keyword_sets, params=params, token=token).run()


def _fingerprint(result):
    """Everything parity covers: answers (order + exact scores), stats,
    and the completion flag."""
    return (
        result.signatures(),
        result.scores(),
        result.complete,
        result.stats.nodes_explored,
        result.stats.nodes_touched,
        result.stats.edges_explored,
        result.stats.answers_generated,
        result.stats.duplicates_discarded,
        result.stats.answers_output,
        result.stats.emit_attempts,
        result.stats.gate_skips,
    )


@pytest.mark.parametrize(
    "cls", [SingleIteratorBackwardSearch, BidirectionalSearch]
)
@given(case=search_cases(), batch=st.sampled_from([1, 2, 7, 32]))
@settings(max_examples=40, deadline=None)
def test_kernel_backends_bit_identical(cls, case, batch):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    reference = _fingerprint(
        _run(cls, graph, keyword_sets, "scalar", batch)
    )
    for arm in KERNEL_ARMS:
        if arm == "scalar":
            continue
        assert _fingerprint(_run(cls, graph, keyword_sets, arm, batch)) == (
            reference
        ), f"{arm} diverged from scalar at batch={batch}"


@given(case=search_cases())
@settings(max_examples=40, deadline=None)
def test_mi_backends_bit_identical_including_python(case):
    """MI keeps its schedule under every backend and emission is gated
    once, in ``BaseSearch``, so released answers and *every* counter —
    ``answers_generated``/``duplicates_discarded`` included — match the
    python loop bit for bit."""
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    reference = _fingerprint(
        _run(BackwardExpandingSearch, graph, keyword_sets, "python", 0)
    )
    for arm in KERNEL_ARMS:
        run = _run(BackwardExpandingSearch, graph, keyword_sets, arm, 0)
        assert _fingerprint(run) == reference, arm


@pytest.mark.parametrize(
    "cls", [SingleIteratorBackwardSearch, BidirectionalSearch]
)
@given(
    case=search_cases(),
    batch=st.sampled_from([1, 3, 8, 32]),
    cancel_after=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_cancelled_kernel_run_is_prefix(cls, case, batch, cancel_after):
    n, edges, keyword_sets = case
    graph = build_graph_from(n, edges)
    full = _run(cls, graph, keyword_sets, "vectorized", batch)
    token = CancellationToken(cancel_at_tick=cancel_after, check_every=1)
    part = _run(cls, graph, keyword_sets, "vectorized", batch, token=token)

    if part.complete:
        assert part.signatures() == full.signatures()
        assert part.scores() == full.scores()
    else:
        assert part.cancel_reason == "cancelled"
        prefix = len(part.answers)
        assert part.signatures() == full.signatures()[:prefix]
        assert part.scores() == full.scores()[:prefix]
        # tick_many grants exactly the remaining budget: the batched
        # loop may not pop past the tick the token fires on.
        assert part.stats.nodes_explored <= cancel_after
