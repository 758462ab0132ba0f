"""Synthetic DBLP-shaped bibliographic database.

Shape mirrors the paper's DBLP graph (Sections 1, 2.1, 5): authors,
papers, a small set of conference hub nodes with very large fan-in,
``writes`` link tuples (nodes of their own, as in paper Figure 4) and
preferential-attachment citations so PageRank prestige is informative.
Real DBLP (2M nodes / 9M edges) is substituted by this generator scaled
down — the package docstring says why the shape, not the size, drives
the paper's measurements.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.datasets.names import NamePool
from repro.datasets.vocab import _FenwickTree, make_vocabulary
from repro.relational.database import Database
from repro.relational.schema import ForeignKey, Schema, Table

__all__ = ["DblpConfig", "DBLP_SCHEMA", "make_dblp"]

CONFERENCE_NAMES: tuple[str, ...] = (
    "VLDB", "SIGMOD", "ICDE", "KDD", "WWW", "SOSP", "OSDI", "NSDI",
    "STOC", "FOCS", "PODS", "EDBT",
)

DBLP_SCHEMA = Schema(
    tables=(
        Table("author", ("id", "name"), text_columns=("name",)),
        Table("conference", ("id", "name"), text_columns=("name",)),
        Table("paper", ("id", "title", "year", "conf_id"), text_columns=("title",)),
        Table("writes", ("id", "author_id", "paper_id")),
        Table("cites", ("id", "citing_id", "cited_id")),
    ),
    foreign_keys=(
        ForeignKey("paper", "conf_id", "conference"),
        ForeignKey("writes", "author_id", "author"),
        ForeignKey("writes", "paper_id", "paper"),
        ForeignKey("cites", "citing_id", "paper"),
        ForeignKey("cites", "cited_id", "paper"),
    ),
)


@dataclass(frozen=True)
class DblpConfig:
    """Size and shape knobs; defaults suit unit tests, scale up for benches."""

    n_authors: int = 300
    n_papers: int = 600
    n_conferences: int = 8
    max_authors_per_paper: int = 3
    mean_citations: float = 2.0
    vocabulary_size: int = 400
    title_words: tuple[int, int] = (3, 7)
    seed: int = 7

    def scaled(self, factor: float) -> "DblpConfig":
        """Multiply entity counts by ``factor`` (>= tiny floor)."""
        return DblpConfig(
            n_authors=max(10, int(self.n_authors * factor)),
            n_papers=max(20, int(self.n_papers * factor)),
            n_conferences=max(3, int(self.n_conferences * min(factor, 2.0))),
            max_authors_per_paper=self.max_authors_per_paper,
            mean_citations=self.mean_citations,
            vocabulary_size=max(50, int(self.vocabulary_size * factor)),
            title_words=self.title_words,
            seed=self.seed,
        )


def make_dblp(config: DblpConfig = DblpConfig()) -> Database:
    """Generate a deterministic DBLP-like database for ``config``."""
    rng = random.Random(config.seed)
    vocab = make_vocabulary(config.vocabulary_size)
    names = NamePool()
    db = Database(DBLP_SCHEMA)

    for conf_id in range(1, config.n_conferences + 1):
        base = CONFERENCE_NAMES[(conf_id - 1) % len(CONFERENCE_NAMES)]
        series = (conf_id - 1) // len(CONFERENCE_NAMES)
        name = base if series == 0 else f"{base} {series + 1}"
        db.insert("conference", {"id": conf_id, "name": name})

    for author_id in range(1, config.n_authors + 1):
        db.insert("author", {"id": author_id, "name": names.person(rng)})

    # Prolific authors: preferential attachment over paper authorship,
    # giving the large-fan-in author nodes of the paper's "John" example.
    author_weight = _FenwickTree([1] * config.n_authors)
    # Conference sizes are skewed, too: a couple of mega-conferences.
    conferences = range(1, config.n_conferences + 1)
    conf_cumulative = list(
        itertools.accumulate(1.0 / (rank ** 0.8) for rank in conferences)
    )

    writes_id = 0
    for paper_id in range(1, config.n_papers + 1):
        conf_id = rng.choices(conferences, cum_weights=conf_cumulative)[0]
        db.insert(
            "paper",
            {
                "id": paper_id,
                "title": vocab.phrase(rng, *config.title_words),
                "year": rng.randint(1970, 2005),
                "conf_id": conf_id,
            },
        )
        n_authors = rng.randint(1, config.max_authors_per_paper)
        chosen: set[int] = set()
        for _ in range(n_authors):
            author_id = author_weight.draw(rng, config.n_authors) + 1
            if author_id in chosen:
                continue
            chosen.add(author_id)
            author_weight.add(author_id - 1, 2)
            writes_id += 1
            db.insert(
                "writes",
                {"id": writes_id, "author_id": author_id, "paper_id": paper_id},
            )

    # Citations: papers cite earlier papers, preferentially the already
    # well-cited (rich-get-richer), so prestige separates papers.
    cite_weight = _FenwickTree([1] * config.n_papers)
    cites_id = 0
    for paper_id in range(2, config.n_papers + 1):
        n_cites = min(paper_id - 1, rng.randint(0, int(2 * config.mean_citations)))
        cited_chosen: set[int] = set()
        for _ in range(n_cites):
            cited = cite_weight.draw(rng, paper_id - 1) + 1
            if cited in cited_chosen:
                continue
            cited_chosen.add(cited)
            cite_weight.add(cited - 1, 1)
            cites_id += 1
            db.insert(
                "cites",
                {"id": cites_id, "citing_id": paper_id, "cited_id": cited},
            )
    return db
