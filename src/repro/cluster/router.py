"""Deterministic dataset -> shard routing with replica fan-out.

Partitioning answers two questions the supervisor asks on every
request:

* **placement** — which workers hold which datasets' snapshots?  Each
  dataset is assigned to ``default_replicas`` workers (default 1), so
  its query load fans out across cores.  Placement is least-loaded
  greedy over datasets in sorted order, so it is a pure function of
  ``(datasets, num_workers, default_replicas)`` — every supervisor
  computes the same shard map without coordination.
* **routing** — which replica serves *this* request?  The one with the
  fewest jobs in flight (:meth:`ShardRouter.route`): a request that
  reaches routing missed the supervisor's result cache, which sits in
  front of it, so no replica holds anything that would answer it faster
  and a cold expansion belongs on an idle core.  Replicas that tie —
  the whole set, on an idle fleet — go to ``crc32`` of the request's
  canonical query identity, so the choice is a pure function of the
  request.

``crc32`` rather than ``hash()``: Python randomizes string hashes per
process, and a tie-break should agree across processes and runs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence
from zlib import crc32

from repro.errors import UnknownDatasetError

__all__ = ["ShardRouter"]


class ShardRouter:
    """Static shard map over ``num_workers`` workers.

    Parameters
    ----------
    datasets:
        Dataset names to place (order-insensitive; placement sorts).
    num_workers:
        Worker count; worker ids are ``0 .. num_workers - 1``.
    default_replicas:
        Copies of each dataset (capped at ``num_workers``).
    """

    def __init__(
        self,
        datasets: Sequence[str],
        num_workers: int,
        *,
        default_replicas: int = 1,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers!r}")
        if default_replicas < 1:
            raise ValueError(
                f"default_replicas must be >= 1, got {default_replicas!r}"
            )
        names = sorted(set(datasets))
        if not names:
            raise ValueError("at least one dataset is required")

        self.num_workers = num_workers
        # Least-loaded greedy assignment, deterministic tie-break by
        # worker id.  Datasets are placed in sorted order so the map is
        # a pure function of the constructor arguments.
        loads = [0] * num_workers
        self._replicas: dict[str, tuple[int, ...]] = {}
        count = min(default_replicas, num_workers)
        for name in names:
            chosen: list[int] = []
            for _ in range(count):
                worker = min(
                    (w for w in range(num_workers) if w not in chosen),
                    key=lambda w: (loads[w], w),
                )
                chosen.append(worker)
                loads[worker] += 1
            self._replicas[name] = tuple(sorted(chosen))

    # ------------------------------------------------------------------
    def datasets(self) -> list[str]:
        """Placed dataset names, sorted."""
        return sorted(self._replicas)

    def replicas_for(self, dataset: str) -> tuple[int, ...]:
        """Worker ids holding ``dataset`` (ascending)."""
        try:
            return self._replicas[dataset]
        except KeyError:
            raise UnknownDatasetError(dataset) from None

    def assignments(self) -> dict[int, tuple[str, ...]]:
        """``{worker_id: (dataset, ...)}`` for every worker (possibly
        empty tuples: more workers than replica slots leaves spares)."""
        out: dict[int, list[str]] = {w: [] for w in range(self.num_workers)}
        for name in sorted(self._replicas):
            for worker in self._replicas[name]:
                out[worker].append(name)
        return {w: tuple(names) for w, names in out.items()}

    def route(
        self,
        dataset: str,
        key: object = None,
        *,
        in_flight: Optional[Mapping[int, int]] = None,
    ) -> int:
        """The replica of ``dataset`` with the fewest ``in_flight`` jobs
        (a worker absent from it, or no map at all, has none); replicas
        that tie go to the hash of ``key``, taken over the tied ones.

        ``key`` is any stable representation of the request identity
        (the supervisor passes the parsed keyword tuple + algorithm);
        among tied replicas equal keys always map to the same one and
        distinct keys spread uniformly across them.
        """
        workers = self.replicas_for(dataset)
        if in_flight:
            fewest = min(in_flight.get(w, 0) for w in workers)
            workers = tuple(w for w in workers if in_flight.get(w, 0) == fewest)
        if len(workers) == 1:
            return workers[0]
        digest = crc32(repr(key).encode("utf-8", "backslashreplace"))
        return workers[digest % len(workers)]
