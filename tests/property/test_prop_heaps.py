"""Property tests: lazy heaps behave like a sorted reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heaps import LazyMinHeap

# Operation stream: (item, priority) pushes interleaved with pops.
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=20),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        st.tuples(st.just("pop"), st.just(0), st.just(0.0)),
    ),
    max_size=60,
)


@given(ops)
@settings(max_examples=100, deadline=None)
def test_min_heap_matches_reference_model(operations):
    heap = LazyMinHeap()
    model: dict[int, float] = {}
    for op, item, priority in operations:
        if op == "push":
            heap.push(item, priority)
            model[item] = priority
        else:
            if model:
                got_item, got_priority = heap.pop()
                best = min(model.values())
                assert got_priority == best
                assert model[got_item] == got_priority
                del model[got_item]
            else:
                try:
                    heap.pop()
                    assert False, "pop from empty must raise"
                except IndexError:
                    pass
    assert len(heap) == len(model)
    assert dict(heap.items()) == model


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_full_drain_is_sorted(pushes):
    heap = LazyMinHeap()
    for item, priority in pushes:
        heap.push(item, priority)
    drained = []
    while heap:
        drained.append(heap.pop()[1])
    assert drained == sorted(drained)


@given(ops)
@settings(max_examples=100, deadline=None)
def test_lookups_match_reference_model(operations):
    """``peek_priority``, ``get_priority`` and ``in`` see only live
    entries, whatever stale ones the re-pushes left in the heap."""
    heap = LazyMinHeap()
    model: dict[int, float] = {}
    for op, item, priority in operations:
        if op == "push":
            heap.push(item, priority)
            model[item] = priority
        elif model:
            got_item, _ = heap.pop()
            del model[got_item]
        assert heap.peek_priority() == (min(model.values()) if model else None)
        for probe in range(21):
            assert (probe in heap) == (probe in model)
            assert heap.get_priority(probe) == model.get(probe)
