"""Zipf vocabulary: skew, determinism, sizing; the weighted-draw tree."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DblpConfig,
    ImdbConfig,
    PatentsConfig,
    make_dblp,
    make_imdb,
    make_patents,
)
from repro.datasets.vocab import (
    TOPIC_WORDS,
    ZipfVocabulary,
    _FenwickTree,
    make_vocabulary,
)


class TestZipfVocabulary:
    def test_skew_orders_frequencies(self):
        vocab = ZipfVocabulary(("a", "b", "c", "d"), s=1.2)
        rng = random.Random(0)
        counts = Counter(vocab.sample(rng) for _ in range(20000))
        assert counts["a"] > counts["b"] > counts["d"]

    def test_zero_exponent_is_uniform_ish(self):
        vocab = ZipfVocabulary(("a", "b"), s=0.0)
        rng = random.Random(0)
        counts = Counter(vocab.sample(rng) for _ in range(10000))
        assert abs(counts["a"] - counts["b"]) < 1000

    def test_deterministic_given_seed(self):
        vocab = ZipfVocabulary(TOPIC_WORDS)
        a = vocab.sample_many(random.Random(42), 50)
        b = vocab.sample_many(random.Random(42), 50)
        assert a == b

    def test_phrase_length_bounds(self):
        vocab = ZipfVocabulary(TOPIC_WORDS)
        rng = random.Random(1)
        for _ in range(100):
            words = vocab.phrase(rng, 2, 5).split()
            assert 2 <= len(words) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfVocabulary(())
        with pytest.raises(ValueError):
            ZipfVocabulary(("a",), s=-1.0)


class TestMakeVocabulary:
    def test_truncates_head(self):
        vocab = make_vocabulary(10)
        assert len(vocab) == 10
        assert vocab.words == TOPIC_WORDS[:10]

    def test_generates_tail(self):
        vocab = make_vocabulary(len(TOPIC_WORDS) + 5)
        assert len(vocab) == len(TOPIC_WORDS) + 5
        assert vocab.words[-1] == "term0004"

    def test_custom_head(self):
        vocab = make_vocabulary(3, head=("x", "y", "z"))
        assert vocab.words == ("x", "y", "z")


# Small weights, zeros among them, and ints past 2**53, where the float
# total rounds and the int/float comparison has to be exact.
WEIGHT = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=2**70),
)


@example(weights=[1], steps=[], seed=0)
@example(weights=[0, 0, 1], steps=[(0, 3)], seed=1)
@example(weights=[2**53, 1, 2**53 + 1], steps=[(1, 2**60)], seed=2)
@given(
    weights=st.lists(WEIGHT, min_size=1, max_size=40),
    steps=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=5)),
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_draw_matches_random_choices(weights, steps, seed):
    """Every prefix m <= n draws what ``choices`` draws, from the same
    stream, before and after increments."""
    weights = list(weights)
    tree = _FenwickTree(weights)
    ours, theirs = random.Random(seed), random.Random(seed)
    for index, delta in [(0, 0), *steps]:
        tree.add(index % len(weights), delta)
        weights[index % len(weights)] += delta
        for m in range(1, len(weights) + 1):
            if not any(weights[:m]):
                continue  # choices refuses a zero total
            expected = theirs.choices(range(m), weights=weights[:m])[0]
            assert tree.draw(ours, m) == expected
            assert tree.prefix(m) == sum(weights[:m])
        assert ours.getstate() == theirs.getstate()


class _Pinned(random.Random):
    """A ``Random`` whose every ``random()`` is one fixed value."""

    def __init__(self, value: float) -> None:
        super().__init__(0)
        self.value = value

    def random(self) -> float:
        return self.value


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_the_largest_draw_and_the_clamp(m):
    weights = [3, 1, 4, 1, 5, 9, 2, 6]
    tree = _FenwickTree(weights)
    # The largest value random() returns lands on the last index.  With
    # integer weights the product stays below the total, so it never
    # reaches the clamp ...
    top = 1 - 2**-53
    assert tree.draw(_Pinned(top), m) == m - 1
    assert _Pinned(top).choices(range(m), weights=weights[:m])[0] == m - 1
    # ... a point at the total does: the walk passes prefix m (weights
    # beyond it are positive), and m - 1 comes back, as from choices.
    assert tree.draw(_Pinned(1.0), m) == m - 1
    assert _Pinned(1.0).choices(range(m), weights=weights[:m])[0] == m - 1


def test_a_point_on_a_boundary_takes_the_next_index():
    """choices bisects right: a point equal to a cumulative weight is past
    that index.  Random draws almost never land exactly on one."""
    weights = [3, 1, 4, 1, 5, 9, 2, 7]  # total 32: boundary / 32 is exact
    tree = _FenwickTree(weights)
    boundary = 0
    for i, weight in enumerate(weights):
        boundary += weight
        point = _Pinned(boundary / 32)
        expected = min(i + 1, len(weights) - 1)
        assert point.choices(range(8), weights=weights)[0] == expected
        assert tree.draw(point, 8) == expected


def test_generators_pass_no_per_draw_weight_list(monkeypatch):
    """``choices(weights=...)`` re-sums its list on every call, which made
    generation quadratic; the generators may use ``cum_weights`` only."""
    calls = []
    real = random.Random.choices

    def recording(self, population, weights=None, **kwargs):
        calls.append(weights is None)
        return real(self, population, weights, **kwargs)

    monkeypatch.setattr(random.Random, "choices", recording)
    make_dblp(DblpConfig())
    make_imdb(ImdbConfig())
    make_patents(PatentsConfig())
    assert calls and all(calls)
