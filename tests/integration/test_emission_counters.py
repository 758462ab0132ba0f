"""Counter pin (ROADMAP aim 3d): EMIT work tracks answers that can be
output, not completion events.

Deterministic: the dblp-0.15 graph and the 24-query pool are the ones
the performance ledger's ``cold_expand`` workload samples (same
generator calls, same ``POOL_SEED``, same bidirectional / si-backward /
mi-backward mix), rebuilt here so tier-1 does not import the ledger.
Before emission was gated on the release bound this pool made 44,040
emit attempts for 240 output answers.
"""

import itertools
import random

import pytest

from repro import KeywordSearchEngine
from repro.datasets import DblpConfig, make_dblp
from repro.workload.generator import WorkloadGenerator

POOL_SEED = 2005
POOL = 24
UNGATED_EMIT_ATTEMPTS = 44_040


@pytest.fixture(scope="module")
def pool_stats():
    db = make_dblp(DblpConfig().scaled(0.15))
    engine = KeywordSearchEngine.from_database(db)
    generator = WorkloadGenerator(db, engine.graph, engine.index)
    rng = random.Random(POOL_SEED)
    per_stratum = POOL // 4
    pool, seen = [], set()
    for origin, n_keywords in itertools.product(("small", "large"), (2, 3)):
        wanted = len(pool) + per_stratum
        while len(pool) < wanted:
            query = generator.sample_query(
                rng, n_keywords=n_keywords, result_size=4, origin_class=origin
            )
            if query is not None and query.keywords not in seen:
                seen.add(query.keywords)
                pool.append([list(query.keywords), "bidirectional"])
    for request in rng.sample(pool[:per_stratum], round(0.15 * POOL)):
        request[1] = "mi-backward"
    rest = [request for request in pool if request[1] == "bidirectional"]
    for request in rng.sample(rest, round(0.25 * POOL)):
        request[1] = "si-backward"
    return [
        engine.search(query, algorithm=algorithm).stats for query, algorithm in pool
    ]


def test_pool_is_the_ledgers(pool_stats):
    """Exploration is untouched by the gate, so these sums identify the
    pool: if they move, the 44,040 above no longer applies.

    (54,127 edges until the per-pop loops took their priority upkeep
    from a once-per-pop drain instead of a callback per change: the
    same 15,981 pops, but an improved node is now re-queued after the
    fresh nodes of the same expansion, which reorders a tie at equal
    distance in one SI-Backward query: 1,270 -> 1,266 edges.)"""
    assert sum(s.nodes_explored for s in pool_stats) == 15_981
    assert sum(s.edges_explored for s in pool_stats) == 54_123
    assert sum(s.answers_output for s in pool_stats) == 240


def test_emit_attempts_are_answer_bounded(pool_stats):
    attempts = sum(s.emit_attempts for s in pool_stats)
    assert attempts <= 0.4 * UNGATED_EMIT_ATTEMPTS, attempts
    assert sum(s.gate_skips for s in pool_stats) > attempts


def test_emission_funnel_per_query(pool_stats):
    for stats in pool_stats:
        assert stats.emit_attempts >= stats.answers_generated >= stats.answers_output
