"""Deterministic dataset -> shard routing with replica fan-out.

Partitioning answers two questions the supervisor asks on every
request:

* **placement** — which workers hold which datasets' snapshots?  Each
  dataset is assigned to ``replicas`` workers (default 1); hot datasets
  get more so their query load fans out across cores.  Placement is
  least-loaded greedy over datasets in sorted order, so it is a pure
  function of ``(datasets, num_workers, replica counts)`` — every
  supervisor computes the same shard map without coordination.
* **routing** — which replica serves *this* request?  The one with the
  fewest jobs in flight (:meth:`ShardRouter.least_busy`): a request that
  reaches routing missed the supervisor's result cache, which sits in
  front of it, so no replica holds anything that would answer it faster
  and a cold expansion belongs on an idle core.  Replicas that tie —
  the whole set, on an idle fleet — fall back to :meth:`ShardRouter.route`:
  ``crc32`` of the request's canonical query identity, so the choice is
  a pure function of the request.

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
        Copies of each dataset unless overridden (capped at
        ``num_workers``).
    replicas:
        Per-dataset override, e.g. ``{"dblp": 4}`` to fan a hot dataset
        over four workers.
    """

    def __init__(
        self,
        datasets: Sequence[str],
        num_workers: int,
        *,
        default_replicas: int = 1,
        replicas: Optional[Mapping[str, int]] = None,
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
        overrides = dict(replicas or {})
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            raise ValueError(f"replica overrides for unknown datasets: {unknown}")
        for name, count in overrides.items():
            if count < 1:
                raise ValueError(
                    f"replica count for {name!r} must be >= 1, got {count!r}"
                )

        self.num_workers = num_workers
        # Least-loaded greedy assignment, deterministic tie-break by
        # worker id.  Datasets are placed in sorted order so the map is
        # a pure function of the constructor arguments.
        loads = [0] * num_workers
        self._replicas: dict[str, tuple[int, ...]] = {}
        for name in names:
            count = min(overrides.get(name, default_replicas), num_workers)
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

    def route(self, dataset: str, key: object = None) -> int:
        """The replica of ``dataset`` that ``key`` hashes to.

        ``key`` is any stable representation of the request identity
        (the supervisor passes the parsed keyword tuple + algorithm);
        equal keys always map to the same replica, distinct keys spread
        uniformly across them.
        """
        return _pick(self.replicas_for(dataset), key)

    def least_busy(
        self, dataset: str, key: object, in_flight: Mapping[int, int]
    ) -> int:
        """The replica of ``dataset`` with the fewest ``in_flight`` jobs
        (a worker absent from it has none); replicas that tie go to
        :meth:`route`'s hash of ``key``, taken over the tied ones."""
        workers = self.replicas_for(dataset)
        fewest = min(in_flight.get(w, 0) for w in workers)
        return _pick(tuple(w for w in workers if in_flight.get(w, 0) == fewest), key)


def _pick(workers: tuple[int, ...], key: object) -> int:
    if len(workers) == 1:
        return workers[0]
    digest = crc32(repr(key).encode("utf-8", "backslashreplace"))
    return workers[digest % len(workers)]
