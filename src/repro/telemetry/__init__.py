"""Unified telemetry: tracing, metrics, events, SLOs, profiling.

Stdlib-only observability for the whole serving stack.  Seven pieces:

* :mod:`repro.telemetry.trace` — ``Tracer`` / ``Span`` / ``TraceStore``:
  one ``trace_id`` per query, a span tree crossing thread and process
  boundaries (``http → route → queue_wait → worker → engine``);
* :mod:`repro.telemetry.metrics` — ``MetricsRegistry``: the one store
  of serving numbers — counters, gauges and bucketed (optionally
  windowed) histograms every layer registers into, mergeable across
  replicas; ``metrics()`` and Prometheus text are views of its export;
* :mod:`repro.telemetry.slowlog` — ``SlowQueryLog``: a ring buffer of
  span trees for queries over a latency threshold;
* :mod:`repro.telemetry.events` — ``EventLog``: a monotonically
  sequenced ring of structured operational events (crashes, WAL
  repairs, reloads, SLO breaches), mergeable across replicas;
* :mod:`repro.telemetry.slo` — ``SloEngine``: declarative objectives
  evaluated over sliding windows of the registry with multi-window
  burn-rate alerting;
* :mod:`repro.telemetry.profile` — ``SamplingProfiler``: an always-on
  collapsed-stack sampler over ``sys._current_frames``;
* :mod:`repro.telemetry.dashboard` — ``render_dashboard``: the whole
  fleet on one dependency-free HTML page;
* :mod:`repro.telemetry.accounting` — explain reports
  (``build_explain_report`` / ``ExplainStore``), canonical query
  fingerprints and the mergeable space-saving workload sketch behind
  ``/debug/queries``.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and the full list
of exported metric families.
"""

from repro.telemetry.accounting import (
    ExplainStore,
    SpaceSavingSketch,
    WorkloadAnalytics,
    build_explain_report,
    canonical_explain_bytes,
    merge_sketch_exports,
    query_fingerprint,
)
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.events import SEVERITIES, EventLog, merge_events
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
    render_prometheus,
)
from repro.telemetry.profile import (
    SamplingProfiler,
    diff_profiles,
    merge_profiles,
    render_collapsed,
)
from repro.telemetry.slo import (
    SloEngine,
    SloObjective,
    burn_rate,
    default_objectives,
    histogram_bad_fraction,
)
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.trace import (
    Span,
    Tracer,
    TraceStore,
    build_span_tree,
    current_span,
    new_span_id,
    new_trace_id,
    render_span_tree,
    use_span,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "EventLog",
    "ExplainStore",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SEVERITIES",
    "SamplingProfiler",
    "SloEngine",
    "SloObjective",
    "SlowQueryLog",
    "SpaceSavingSketch",
    "Span",
    "Tracer",
    "TraceStore",
    "WorkloadAnalytics",
    "build_explain_report",
    "build_span_tree",
    "burn_rate",
    "canonical_explain_bytes",
    "current_span",
    "default_objectives",
    "diff_profiles",
    "histogram_bad_fraction",
    "merge_events",
    "merge_profiles",
    "merge_registries",
    "merge_sketch_exports",
    "query_fingerprint",
    "new_span_id",
    "new_trace_id",
    "render_collapsed",
    "render_dashboard",
    "render_prometheus",
    "render_span_tree",
    "use_span",
]
