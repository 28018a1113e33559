"""Property-based tests: the future-event list is a stable priority queue."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.event_queue import EventQueue
from repro.core.events import EVENT_PRIORITY, Event, EventType

event_types = st.sampled_from(list(EventType))
times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(st.lists(st.tuples(times, event_types), max_size=200))
def test_pop_order_is_total_order(items):
    queue = EventQueue()
    for t, kind in items:
        queue.push(Event(t, kind))
    popped = list(queue.drain())
    keys = [e.sort_key() for e in popped]
    assert keys == sorted(keys)


@given(st.lists(st.tuples(times, event_types), max_size=200))
def test_len_matches_pushes(items):
    queue = EventQueue()
    for t, kind in items:
        queue.push(Event(t, kind))
    assert len(queue) == len(items)


@given(
    st.lists(st.tuples(times, event_types), min_size=1, max_size=100),
    st.data(),
)
def test_cancellation_removes_exactly_the_cancelled(items, data):
    queue = EventQueue()
    handles = [queue.push(Event(t, kind)) for t, kind in items]
    to_cancel = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(handles) - 1),
            unique=True,
            max_size=len(handles),
        )
    )
    for i in to_cancel:
        queue.cancel(handles[i])
    survivors = {h.seq for i, h in enumerate(handles) if i not in set(to_cancel)}
    popped = {e.seq for e in queue.drain()}
    assert popped == survivors


@given(st.lists(times, min_size=2, max_size=100))
def test_fifo_stability_at_equal_keys(ts):
    """Events with identical (time, priority) pop in push order."""
    queue = EventQueue()
    fixed_time = 5.0
    events = [
        Event(fixed_time, EventType.TASK_ARRIVAL, payload=i)
        for i in range(len(ts))
    ]
    for e in events:
        queue.push(e)
    payloads = [e.payload for e in queue.drain()]
    assert payloads == list(range(len(ts)))


@given(st.lists(st.tuples(times, event_types), min_size=1, max_size=100))
def test_peek_always_matches_next_pop(items):
    queue = EventQueue()
    for t, kind in items:
        queue.push(Event(t, kind))
    while queue:
        head = queue.peek()
        assert queue.pop() is head


# Few distinct times, so equal-time ties across every event type are common.
tied_times = st.sampled_from([0.0, 1.0, 1.0 + 2**-40, 2.5, 1e6])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), tied_times, event_types),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop")),
    ),
    max_size=200,
)


def reference_key(event):
    """The ordering the queue must honour, computed from the public fields
    only: (time, EVENT_PRIORITY[type], seq)."""
    return (event.time, EVENT_PRIORITY[event.type], event.seq)


@given(operations)
def test_random_push_cancel_pop_follows_reference_order(ops):
    queue = EventQueue()
    live = []
    for op in ops:
        if op[0] == "push":
            live.append(queue.push(Event(op[1], op[2], payload=object())))
        elif op[0] == "cancel":
            if live:
                victim = live.pop(op[1] % len(live))
                assert queue.cancel(victim)
                assert not queue.cancel(victim)
        elif live:
            expected = min(live, key=reference_key)
            live.remove(expected)
            assert queue.pop() is expected
        assert len(queue) == len(live)
    popped = list(queue.drain())
    expected = sorted(live, key=reference_key)
    assert len(popped) == len(expected)
    assert all(a is b for a, b in zip(popped, expected))
