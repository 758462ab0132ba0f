"""Synthetic US-Patent-shaped database.

Patents with assignee company hub nodes (Microsoft holds thousands of
patents — query UQ1's shape), inventors through ``invents`` link
tuples, and patent-to-patent citations.  The paper's subset had 4M
nodes / 15M edges; this generator reproduces the shape scaled down
(the package docstring says why).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.datasets.names import NamePool
from repro.datasets.vocab import _FenwickTree, make_vocabulary
from repro.relational.database import Database
from repro.relational.schema import ForeignKey, Schema, Table

__all__ = ["PatentsConfig", "PATENTS_SCHEMA", "make_patents"]

PATENT_WORDS: tuple[str, ...] = (
    "method", "apparatus", "system", "device", "circuit", "signal",
    "recovery", "process", "semiconductor", "memory", "display", "laser",
    "polymer", "catalyst", "compound", "valve", "sensor", "battery",
    "antenna", "module", "interface", "controller", "encoder", "filter",
    "amplifier", "transducer", "actuator", "composite", "coating",
    "membrane", "turbine", "engine", "brake", "gear", "pump", "nozzle",
)

PATENTS_SCHEMA = Schema(
    tables=(
        Table("company", ("id", "name"), text_columns=("name",)),
        Table("inventor", ("id", "name"), text_columns=("name",)),
        Table(
            "patent",
            ("id", "title", "year", "company_id"),
            text_columns=("title",),
        ),
        Table("invents", ("id", "inventor_id", "patent_id")),
        Table("pcites", ("id", "citing_id", "cited_id")),
    ),
    foreign_keys=(
        ForeignKey("patent", "company_id", "company"),
        ForeignKey("invents", "inventor_id", "inventor"),
        ForeignKey("invents", "patent_id", "patent"),
        ForeignKey("pcites", "citing_id", "patent"),
        ForeignKey("pcites", "cited_id", "patent"),
    ),
)


@dataclass(frozen=True)
class PatentsConfig:
    """Size knobs for the generated patent database."""

    n_companies: int = 10
    n_inventors: int = 250
    n_patents: int = 500
    max_inventors_per_patent: int = 3
    mean_citations: float = 1.5
    vocabulary_size: int = 300
    seed: int = 13

    def scaled(self, factor: float) -> "PatentsConfig":
        return PatentsConfig(
            n_companies=max(3, int(self.n_companies * min(factor, 3.0))),
            n_inventors=max(10, int(self.n_inventors * factor)),
            n_patents=max(20, int(self.n_patents * factor)),
            max_inventors_per_patent=self.max_inventors_per_patent,
            mean_citations=self.mean_citations,
            vocabulary_size=max(40, int(self.vocabulary_size * factor)),
            seed=self.seed,
        )


def make_patents(config: PatentsConfig = PatentsConfig()) -> Database:
    """Generate a deterministic patent database for ``config``."""
    rng = random.Random(config.seed)
    vocab = make_vocabulary(
        config.vocabulary_size, head=PATENT_WORDS, tail_prefix="claim"
    )
    names = NamePool(rare_last_fraction=0.35)
    db = Database(PATENTS_SCHEMA)

    for company_id in range(1, config.n_companies + 1):
        db.insert(
            "company",
            {"id": company_id, "name": names.company(rng, company_id - 1)},
        )

    for inventor_id in range(1, config.n_inventors + 1):
        db.insert("inventor", {"id": inventor_id, "name": names.person(rng)})

    # A couple of mega-assignees hold most patents (hub fan-in).
    companies = range(1, config.n_companies + 1)
    company_cumulative = list(
        itertools.accumulate(1.0 / (rank ** 1.2) for rank in companies)
    )
    productivity = _FenwickTree([1] * config.n_inventors)

    invents_id = 0
    for patent_id in range(1, config.n_patents + 1):
        db.insert(
            "patent",
            {
                "id": patent_id,
                "title": vocab.phrase(rng, 3, 6),
                "year": rng.randint(1975, 2004),
                "company_id": rng.choices(companies, cum_weights=company_cumulative)[0],
            },
        )
        team = rng.randint(1, config.max_inventors_per_patent)
        chosen: set[int] = set()
        for _ in range(team):
            inventor_id = productivity.draw(rng, config.n_inventors) + 1
            if inventor_id in chosen:
                continue
            chosen.add(inventor_id)
            productivity.add(inventor_id - 1, 2)
            invents_id += 1
            db.insert(
                "invents",
                {
                    "id": invents_id,
                    "inventor_id": inventor_id,
                    "patent_id": patent_id,
                },
            )

    cite_weight = _FenwickTree([1] * config.n_patents)
    pcites_id = 0
    for patent_id in range(2, config.n_patents + 1):
        n_cites = min(
            patent_id - 1, rng.randint(0, int(2 * config.mean_citations))
        )
        cited_chosen: set[int] = set()
        for _ in range(n_cites):
            cited = cite_weight.draw(rng, patent_id - 1) + 1
            if cited in cited_chosen:
                continue
            cited_chosen.add(cited)
            cite_weight.add(cited - 1, 1)
            pcites_id += 1
            db.insert(
                "pcites",
                {"id": pcites_id, "citing_id": patent_id, "cited_id": cited},
            )
    return db
