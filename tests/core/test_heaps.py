"""Lazy priority queues."""

import pytest

from repro.core.heaps import LazyMinHeap


class TestLazyMinHeap:
    def test_pop_order(self):
        heap = LazyMinHeap()
        heap.push("b", 2.0)
        heap.push("a", 1.0)
        heap.push("c", 3.0)
        assert heap.pop() == ("a", 1.0)
        assert heap.pop() == ("b", 2.0)
        assert heap.pop() == ("c", 3.0)

    def test_decrease_key_via_repush(self):
        heap = LazyMinHeap()
        heap.push("x", 5.0)
        heap.push("y", 3.0)
        heap.push("x", 1.0)
        assert heap.pop() == ("x", 1.0)
        assert heap.pop() == ("y", 3.0)
        assert len(heap) == 0

    def test_increase_key_via_repush(self):
        heap = LazyMinHeap()
        heap.push("x", 1.0)
        heap.push("x", 9.0)
        heap.push("y", 5.0)
        assert heap.pop() == ("y", 5.0)
        assert heap.pop() == ("x", 9.0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            LazyMinHeap().pop()

    def test_peek_skips_stale(self):
        heap = LazyMinHeap()
        heap.push("x", 1.0)
        heap.push("x", 4.0)
        assert heap.peek_priority() == 4.0
        assert len(heap) == 1

    def test_peek_empty_is_none(self):
        assert LazyMinHeap().peek_priority() is None

    def test_contains_and_len(self):
        heap = LazyMinHeap()
        heap.push("x", 1.0)
        assert "x" in heap and "y" not in heap
        assert len(heap) == 1 and bool(heap)
        heap.pop()
        assert not heap

    def test_items_are_live_entries(self):
        heap = LazyMinHeap()
        heap.push("x", 1.0)
        heap.push("x", 2.0)
        heap.push("y", 3.0)
        assert dict(heap.items()) == {"x": 2.0, "y": 3.0}

    def test_get_priority(self):
        heap = LazyMinHeap()
        heap.push("x", 1.5)
        assert heap.get_priority("x") == 1.5
        assert heap.get_priority("z") is None

    def test_fifo_tiebreak_is_deterministic(self):
        heap = LazyMinHeap()
        heap.push("first", 1.0)
        heap.push("second", 1.0)
        assert heap.pop()[0] == "first"
        assert heap.pop()[0] == "second"

    def test_popped_item_can_be_pushed_again(self):
        heap = LazyMinHeap()
        heap.push("x", 1.0)
        heap.pop()
        assert "x" not in heap and heap.get_priority("x") is None
        heap.push("x", 7.0)
        assert heap.get_priority("x") == 7.0
        assert heap.pop() == ("x", 7.0)

    def test_items_drop_popped_entries(self):
        heap = LazyMinHeap()
        for item, priority in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            heap.push(item, priority)
        heap.pop()
        assert dict(heap.items()) == {"b": 2.0, "c": 3.0}

    def test_peek_after_a_stale_top_entry(self):
        heap = LazyMinHeap()
        heap.push("x", 1.0)
        heap.push("y", 2.0)
        heap.push("x", 5.0)  # the 1.0 entry on top is now stale
        assert heap.peek_priority() == 2.0
        assert heap.pop() == ("y", 2.0)
        assert heap.peek_priority() == 5.0
