"""Future-event list: heap behaviour, lazy cancellation."""

import pytest

from repro.core.clock import SimulationClock
from repro.core.errors import SimulationStateError
from repro.core.event_queue import EventQueue
from repro.core.events import Event, EventType
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType


def ev(time: float, kind: EventType = EventType.TASK_ARRIVAL) -> Event:
    return Event(time, kind)


class TestBasicOps:
    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0

    def test_push_pop_orders_by_time(self):
        queue = EventQueue()
        events = [ev(3.0), ev(1.0), ev(2.0)]
        for e in events:
            queue.push(e)
        assert [queue.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationStateError):
            EventQueue().pop()

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(ev(1.0))
        assert queue.peek().time == 1.0
        assert len(queue) == 1

    def test_peek_empty_raises(self):
        with pytest.raises(SimulationStateError):
            EventQueue().peek()

    def test_next_time(self):
        queue = EventQueue()
        assert queue.next_time() is None
        queue.push(ev(4.5))
        assert queue.next_time() == 4.5

    def test_len_counts_live_events(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            queue.push(ev(t))
        assert len(queue) == 3
        queue.pop()
        assert len(queue) == 2

    def test_clear(self):
        queue = EventQueue()
        queue.push(ev(1.0))
        queue.clear()
        assert not queue

    def test_drain_yields_in_order(self):
        queue = EventQueue()
        for t in (5.0, 1.0, 3.0):
            queue.push(ev(t))
        assert [e.time for e in queue.drain()] == [1.0, 3.0, 5.0]
        assert not queue


class TestPriorityInterleaving:
    def test_same_time_priority_order(self):
        queue = EventQueue()
        arrival = ev(1.0, EventType.TASK_ARRIVAL)
        completion = ev(1.0, EventType.TASK_COMPLETION)
        deadline = ev(1.0, EventType.TASK_DEADLINE)
        for e in (deadline, arrival, completion):
            queue.push(e)
        assert queue.pop() is completion
        assert queue.pop() is arrival
        assert queue.pop() is deadline


class TestCancellation:
    def test_cancelled_event_never_pops(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        queue.push(ev(2.0))
        assert queue.cancel(doomed)
        assert queue.pop().time == 2.0
        assert not queue

    def test_cancel_updates_len(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        queue.push(ev(2.0))
        queue.cancel(doomed)
        assert len(queue) == 1

    def test_double_cancel_returns_false(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        assert queue.cancel(doomed)
        assert not queue.cancel(doomed)

    def test_is_cancelled(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        assert not queue.is_cancelled(doomed)
        queue.cancel(doomed)
        assert queue.is_cancelled(doomed)

    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        doomed = queue.push(ev(1.0))
        live = queue.push(ev(2.0))
        queue.cancel(doomed)
        assert queue.peek() is live

    def test_cancel_all_then_empty(self):
        queue = EventQueue()
        handles = [queue.push(ev(float(t))) for t in range(5)]
        for h in handles:
            queue.cancel(h)
        assert not queue
        with pytest.raises(SimulationStateError):
            queue.pop()

    def test_interleaved_cancel_and_pop(self):
        queue = EventQueue()
        events = [queue.push(ev(float(t))) for t in range(6)]
        queue.cancel(events[0])
        queue.cancel(events[3])
        popped = [queue.pop().time for _ in range(len(queue))]
        assert popped == [1.0, 2.0, 4.0, 5.0]


class TestPushMany:
    def test_bulk_population_orders_like_pushes(self):
        bulk = EventQueue()
        single = EventQueue()
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        events = [ev(t) for t in times]
        bulk.push_many(events)
        for e in events:
            single.push(e)
        assert len(bulk) == len(single) == 5
        assert [e.time for e in bulk.drain()] == [e.time for e in single.drain()]

    def test_push_many_on_nonempty_queue(self):
        queue = EventQueue()
        queue.push(ev(2.0))
        queue.push_many([ev(1.0), ev(3.0)])
        assert [e.time for e in queue.drain()] == [1.0, 2.0, 3.0]

    def test_push_many_empty_iterable(self):
        queue = EventQueue()
        queue.push_many([])
        assert not queue


class TestUnorderablePayloads:
    """Ties at equal (time, type) are broken by seq, never by payload."""

    @staticmethod
    def _tasks(n: int) -> list[Task]:
        task_type = TaskType("T", 0)
        return [
            Task(id=i, task_type=task_type, arrival_time=1.0, deadline=5.0)
            for i in range(n)
        ]

    def test_tasks_are_unorderable(self):
        first, second = self._tasks(2)
        with pytest.raises(TypeError):
            _ = first < second

    def test_push_and_pop_equal_time_and_type(self):
        tasks = self._tasks(4)
        queue = EventQueue()
        for task in tasks:
            queue.push(Event(3.0, EventType.TASK_DEADLINE, task))
        assert [e.payload for e in queue.drain()] == tasks

    def test_push_many_equal_time_and_type(self):
        tasks = self._tasks(6)
        queue = EventQueue()
        queue.push_many(Event(3.0, EventType.TASK_ARRIVAL, t) for t in tasks)
        queue.push(Event(3.0, EventType.TASK_ARRIVAL, tasks[0]))
        assert [e.payload for e in queue.drain()] == tasks + tasks[:1]


class TestDispatchAll:
    def test_dispatches_live_events_in_order_and_counts_them(self):
        queue = EventQueue()
        clock = SimulationClock()
        handles = [queue.push(ev(t)) for t in (3.0, 1.0, 2.0, 4.0)]
        queue.cancel(handles[2])
        seen: list[tuple[float, float]] = []

        def dispatch(event: Event) -> None:
            seen.append((event.time, clock.now))
            if event.time == 1.0:  # events pushed mid-run are dispatched too
                queue.push(ev(1.5))

        assert queue.dispatch_all(clock, dispatch) == 4
        assert seen == [(1.0, 1.0), (1.5, 1.5), (3.0, 3.0), (4.0, 4.0)]
        assert not queue
        assert len(queue) == 0
