"""OutputHeap: buffering, duplicate discard, bounded release."""

import pytest

from repro.core.output_heap import OutputHeap

from tests.core.test_answer import make_tree


def add(heap, tree, pops=0):
    return heap.add(tree, generated_at=0.0, generated_pops=pops)


class TestAdd:
    def test_new_answers_buffered(self):
        heap = OutputHeap()
        assert add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.5)) == "new"
        assert len(heap) == 1

    def test_duplicate_rotation_discarded(self):
        heap = OutputHeap()
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.5))
        worse = make_tree(1, [(1, 0), (1, 0, 2)], score=0.3)
        assert add(heap, worse) == "duplicate"
        assert len(heap) == 1

    def test_better_rotation_replaces(self):
        heap = OutputHeap()
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.3))
        better = make_tree(1, [(1, 0), (1, 0, 2)], score=0.6)
        assert add(heap, better) == "improved"
        assert len(heap) == 1
        assert [b.tree.score for b in heap.drain()] == [pytest.approx(0.6)]

    def test_released_signature_never_rebuffered(self):
        heap = OutputHeap()
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.5))
        list(heap.drain())
        again = make_tree(0, [(0, 1), (0, 2)], score=0.9)
        assert add(heap, again) == "duplicate"
        assert len(heap) == 0


class TestExactRelease:
    def test_releases_only_above_bound(self):
        heap = OutputHeap(mode="exact")
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.9))
        add(heap, make_tree(0, [(0, 1), (0, 3)], score=0.4))
        released = list(heap.pop_ready(score_bound=0.5))
        assert [b.tree.score for b in released] == [0.9]
        assert len(heap) == 1

    def test_score_order(self):
        heap = OutputHeap(mode="exact")
        for i, score in enumerate((0.2, 0.9, 0.5)):
            add(heap, make_tree(0, [(0, 1), (0, 2 + i)], score=score))
        released = [b.tree.score for b in heap.pop_ready(score_bound=0.0)]
        assert released == [0.9, 0.5, 0.2]

    def test_none_bound_releases_nothing(self):
        heap = OutputHeap(mode="exact")
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.9))
        assert list(heap.pop_ready(score_bound=None)) == []

    def test_superseded_heap_records_skipped(self):
        heap = OutputHeap(mode="exact")
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.3))
        add(heap, make_tree(1, [(1, 0), (1, 0, 2)], score=0.6))
        released = list(heap.pop_ready(score_bound=0.0))
        assert len(released) == 1
        assert released[0].tree.score == 0.6


class TestHeuristicRelease:
    def test_releases_by_edge_score(self):
        heap = OutputHeap(mode="heuristic")
        cheap = make_tree(0, [(0, 1), (0, 2)], dists=(1.0, 1.0), score=0.2)
        costly = make_tree(0, [(0, 1), (0, 3)], dists=(3.0, 3.0), score=0.9)
        add(heap, cheap)
        add(heap, costly)
        released = list(heap.pop_ready(edge_bound=2.5))
        assert [b.tree is cheap for b in released] == [True]

    def test_qualifying_sorted_by_relevance(self):
        heap = OutputHeap(mode="heuristic")
        low = make_tree(0, [(0, 1), (0, 2)], dists=(1.0, 1.0), score=0.2)
        high = make_tree(0, [(0, 1), (0, 3)], dists=(1.0, 1.0), score=0.8)
        add(heap, low)
        add(heap, high)
        released = [b.tree.score for b in heap.pop_ready(edge_bound=10.0)]
        assert released == [0.8, 0.2]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            OutputHeap(mode="bogus")


class TestReleaseFloor:
    """The quota-th best distinct score ever accepted: what the
    emission gate in ``BaseSearch`` compares candidates against."""

    def _fill(self, heap, scores):
        for i, score in enumerate(scores):
            add(heap, make_tree(0, [(0, 1), (0, 2 + i)], score=score))

    def test_zero_below_quota(self):
        heap = OutputHeap(quota=3)
        self._fill(heap, (0.9, 0.8))
        assert heap.release_floor == 0.0

    def test_is_quota_th_best(self):
        heap = OutputHeap(quota=2)
        self._fill(heap, (0.2, 0.9, 0.5, 0.1))
        assert heap.release_floor == 0.5

    def test_released_answers_still_count(self):
        heap = OutputHeap(quota=2)
        self._fill(heap, (0.9, 0.5))
        list(heap.pop_ready(score_bound=0.8))
        assert heap.release_floor == 0.5

    def test_only_new_signatures_count(self):
        heap = OutputHeap(quota=2)
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.3))
        # A better rotation of the same skeleton, then a worse one.
        assert add(heap, make_tree(1, [(1, 0), (1, 0, 2)], score=0.6)) == "improved"
        assert add(heap, make_tree(2, [(2, 0), (2, 0, 1)], score=0.1)) == "duplicate"
        assert heap.release_floor == 0.0  # one distinct answer so far
        add(heap, make_tree(0, [(0, 1), (0, 3)], score=0.5))
        # The improved answer keeps its first score: an understatement.
        assert heap.release_floor == 0.3

    def test_never_decreases(self):
        heap = OutputHeap(quota=1)
        floors = []
        for i, score in enumerate((0.4, 0.2, 0.7, 0.1)):
            add(heap, make_tree(0, [(0, 1), (0, 2 + i)], score=score))
            floors.append(heap.release_floor)
        assert floors == [0.4, 0.4, 0.7, 0.7]

    def test_no_floor_without_quota_or_in_heuristic_mode(self):
        for heap in (OutputHeap(), OutputHeap(mode="heuristic", quota=1)):
            self._fill(heap, (0.9, 0.8))
            assert heap.release_floor == 0.0

    def test_quota_validated(self):
        with pytest.raises(ValueError):
            OutputHeap(quota=0)


class TestDrain:
    def test_drains_in_score_order_and_empties(self):
        heap = OutputHeap()
        for i, score in enumerate((0.1, 0.7, 0.4)):
            add(heap, make_tree(0, [(0, 1), (0, 2 + i)], score=score))
        drained = [b.tree.score for b in heap.drain()]
        assert drained == [0.7, 0.4, 0.1]
        assert not heap

    def test_generation_stamps_preserved(self):
        heap = OutputHeap()
        add(heap, make_tree(0, [(0, 1), (0, 2)], score=0.5), pops=42)
        buffered = next(iter(heap.drain()))
        assert buffered.generated_pops == 42
