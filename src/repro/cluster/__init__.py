"""Process-pool sharding tier (ROADMAP: multi-core scale-out).

The thread-based :class:`~repro.service.QueryService` batch executor
serializes pure-Python search on the GIL; this package puts the same
:class:`~repro.service.core.ServiceCore` on worker processes, so a
batch finally uses every core:

* :class:`ShardedQueryService` — the core's verbs (``search_many``,
  ``cancel``, ``trace``, ``events``, ``query_stats`` ...) over a
  fleet: it adds only routing (a result-cache miss to the least busy
  replica), fan-out (``apply`` / ``reload`` / ``warmup`` broadcasts)
  and fan-in (worker replies merged into the core's answers).
* :class:`~repro.cluster.router.ShardRouter` — deterministic
  dataset -> worker placement with replica fan-out for hot datasets.
* :class:`~repro.cluster.pool.WorkerPool` — supervised processes:
  health checks, restart-on-crash with structured error responses for
  lost in-flight requests, graceful drain on close.
* :mod:`repro.cluster.worker` — the process entrypoint; each worker
  warms a private ``QueryService`` from
  :mod:`repro.service.snapshot` files (disk load, never
  ``from_database``) and runs no result cache: the supervisor's is
  the fleet's one.
* metrics — every worker ships its registry export,
  :func:`~repro.telemetry.metrics.merge_registries` combines them
  (latency windows concatenate, so percentiles stay exact) and
  :func:`~repro.service.metrics.metrics_view` renders the same document
  a single service serves.
* :mod:`repro.cluster.http` — stdlib HTTP front-end (``/search``,
  ``/batch``, ``/metrics``, ``/healthz``, ``/debug/*``) over a
  ``ServiceCore``, whichever substrate it runs on.

Only primitives cross the process boundary: snapshot paths, request
dicts, response dicts (:mod:`repro.service.wire`).  See
``examples/cluster_quickstart.py`` for the end-to-end tour.

Re-exports are lazy (:mod:`repro._lazy`): a process imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.pool import WorkerPool
    from repro.cluster.router import ShardRouter
    from repro.cluster.service import ShardedQueryService

__all__ = [
    "ShardedQueryService",
    "ShardRouter",
    "WorkerPool",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    pool="WorkerPool",
    router="ShardRouter",
    service="ShardedQueryService",
)
