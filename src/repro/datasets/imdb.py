"""Synthetic IMDB-shaped movie database.

Persons, movies, genre hub nodes, and ``acts``/``directs`` link tuples.
The frequency stress comes from very common first names ("John in the
IMDB database", paper Section 4.1) and from a handful of genres each
referenced by a large fraction of movies (hub fan-in).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.datasets.names import NamePool
from repro.datasets.vocab import _FenwickTree, make_vocabulary
from repro.relational.database import Database
from repro.relational.schema import ForeignKey, Schema, Table

__all__ = ["ImdbConfig", "IMDB_SCHEMA", "make_imdb"]

GENRES: tuple[str, ...] = (
    "drama", "comedy", "action", "thriller", "romance", "horror",
    "documentary", "animation", "western", "noir",
)

MOVIE_WORDS: tuple[str, ...] = (
    "matrix", "return", "night", "day", "love", "dark", "city", "king",
    "star", "war", "story", "last", "first", "man", "woman", "ghost",
    "dream", "shadow", "fire", "ice", "blood", "gold", "river", "mountain",
    "island", "secret", "lost", "found", "broken", "silent", "midnight",
    "summer", "winter", "heart", "soul", "mind", "game", "code", "edge",
)

IMDB_SCHEMA = Schema(
    tables=(
        Table("person", ("id", "name"), text_columns=("name",)),
        Table("genre", ("id", "name"), text_columns=("name",)),
        Table("movie", ("id", "title", "year", "genre_id"), text_columns=("title",)),
        Table("acts", ("id", "person_id", "movie_id", "role"), text_columns=("role",)),
        Table("directs", ("id", "person_id", "movie_id")),
    ),
    foreign_keys=(
        ForeignKey("movie", "genre_id", "genre"),
        ForeignKey("acts", "person_id", "person"),
        ForeignKey("acts", "movie_id", "movie"),
        ForeignKey("directs", "person_id", "person"),
        ForeignKey("directs", "movie_id", "movie"),
    ),
)

ROLE_WORDS: tuple[str, ...] = (
    "thomas", "neo", "detective", "doctor", "captain", "agent", "professor",
    "mother", "father", "stranger", "king", "queen", "soldier", "pilot",
)


@dataclass(frozen=True)
class ImdbConfig:
    """Size knobs for the generated movie database."""

    n_persons: int = 300
    n_movies: int = 500
    n_genres: int = 8
    max_cast: int = 4
    vocabulary_size: int = 200
    seed: int = 11

    def scaled(self, factor: float) -> "ImdbConfig":
        return ImdbConfig(
            n_persons=max(10, int(self.n_persons * factor)),
            n_movies=max(20, int(self.n_movies * factor)),
            n_genres=max(3, min(len(GENRES), int(self.n_genres * min(factor, 1.5)))),
            max_cast=self.max_cast,
            vocabulary_size=max(40, int(self.vocabulary_size * factor)),
            seed=self.seed,
        )


def make_imdb(config: ImdbConfig = ImdbConfig()) -> Database:
    """Generate a deterministic IMDB-like database for ``config``."""
    rng = random.Random(config.seed)
    vocab = make_vocabulary(
        config.vocabulary_size, head=MOVIE_WORDS, tail_prefix="reel"
    )
    names = NamePool(rare_last_fraction=0.3)
    db = Database(IMDB_SCHEMA)

    for genre_id in range(1, config.n_genres + 1):
        db.insert("genre", {"id": genre_id, "name": GENRES[genre_id - 1]})

    for person_id in range(1, config.n_persons + 1):
        db.insert("person", {"id": person_id, "name": names.person(rng)})

    genres = range(1, config.n_genres + 1)
    genre_cumulative = list(itertools.accumulate(1.0 / rank for rank in genres))
    fame = _FenwickTree([1] * config.n_persons)  # preferential casting

    acts_id = 0
    directs_id = 0
    for movie_id in range(1, config.n_movies + 1):
        db.insert(
            "movie",
            {
                "id": movie_id,
                "title": vocab.phrase(rng, 1, 4).title(),
                "year": rng.randint(1950, 2005),
                "genre_id": rng.choices(genres, cum_weights=genre_cumulative)[0],
            },
        )
        cast_size = rng.randint(1, config.max_cast)
        cast: set[int] = set()
        for _ in range(cast_size):
            person_id = fame.draw(rng, config.n_persons) + 1
            if person_id in cast:
                continue
            cast.add(person_id)
            fame.add(person_id - 1, 2)
            acts_id += 1
            db.insert(
                "acts",
                {
                    "id": acts_id,
                    "person_id": person_id,
                    "movie_id": movie_id,
                    "role": rng.choice(ROLE_WORDS).title(),
                },
            )
        director = fame.draw(rng, config.n_persons) + 1
        directs_id += 1
        db.insert(
            "directs",
            {"id": directs_id, "person_id": director, "movie_id": movie_id},
        )
    return db
