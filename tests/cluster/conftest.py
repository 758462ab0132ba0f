"""Cluster-tier fixtures: toy snapshots and a shared two-worker fleet.

Process spawns are the expensive part of these tests (each worker
re-imports numpy), so the happy-path tests share one session-scoped
:class:`~repro.cluster.ShardedQueryService`; tests that kill workers or
exercise shutdown build their own throwaway pools.
"""

from __future__ import annotations

import pytest

from repro.cluster import ShardedQueryService
from repro.core.engine import KeywordSearchEngine
from repro.service.snapshot import save_engine

from tests.conftest import make_toy_db


@pytest.fixture(scope="session")
def toy_engine_session() -> KeywordSearchEngine:
    return KeywordSearchEngine.from_database(make_toy_db())


@pytest.fixture(scope="session")
def toy_snapshot(tmp_path_factory, toy_engine_session):
    path = tmp_path_factory.mktemp("cluster") / "toy.snap"
    return save_engine(path, toy_engine_session)


@pytest.fixture(scope="session")
def sharded(toy_snapshot):
    """A two-worker fleet serving two datasets (both the toy snapshot:
    shape is what matters, and loads are milliseconds)."""
    service = ShardedQueryService(
        {"alpha": toy_snapshot, "beta": toy_snapshot},
        num_workers=2,
    )
    service.warmup()
    yield service
    service.close()
