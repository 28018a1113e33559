"""Future-event list: a binary heap with lazy cancellation.

Dropping a running task at its deadline invalidates that task's pending
completion event. Rather than O(n) heap surgery, cancelled events are marked
in a set and skipped on pop (lazy deletion) — the standard priority-queue
idiom, O(log n) per operation amortised.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from .clock import SimulationClock
from .errors import SimulationStateError
from .events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of :class:`~repro.core.events.Event` ordered by ``sort_key``.

    Supports O(log n) push/pop and O(1) cancellation by event ``seq``.

    An event is a tuple whose leading ``(time, priority, seq)`` fields are
    its ordering key, so the heap stores events directly and every
    comparison is one flat tuple comparison in C (the unique ``seq`` keeps
    it from reaching the payload).
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._cancelled: set[int] = set()
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (handy for keeping a handle)."""
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def push_many(self, events: Iterable[Event]) -> None:
        """Bulk-insert events and re-heapify once — O(n) instead of the
        O(n log n) comparison work of n individual pushes (used for the
        initial arrival/deadline population)."""
        heap = self._heap
        before = len(heap)
        heap.extend(events)
        self._live += len(heap) - before
        heapq.heapify(heap)

    def cancel(self, event: Event) -> bool:
        """Mark *event* cancelled. Returns False if already cancelled/popped."""
        if event.seq in self._cancelled:
            return False
        # An event that was already popped cannot be cancelled retroactively;
        # callers hold handles only to events they pushed, so membership in
        # the heap is implied unless it was popped. We track liveness lazily:
        # cancelling an already-popped event is a caller bug surfaced by the
        # _live counter going negative, which we guard against explicitly.
        self._cancelled.add(event.seq)
        self._live -= 1
        if self._live < 0:  # pragma: no cover - defensive
            raise SimulationStateError("cancelled an event that already fired")
        return True

    def is_cancelled(self, event: Event) -> bool:
        """True if *event* has been cancelled and will never fire."""
        return event.seq in self._cancelled

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        SimulationStateError
            If the queue holds no live events.
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            event = heapq.heappop(heap)
            if cancelled and event.seq in cancelled:
                cancelled.discard(event.seq)
                continue
            self._live -= 1
            return event
        raise SimulationStateError("pop from an empty event queue")

    def peek(self) -> Event:
        """Return (without removing) the earliest live event."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            event = heap[0]
            if cancelled and event.seq in cancelled:
                heapq.heappop(heap)
                cancelled.discard(event.seq)
                continue
            return event
        raise SimulationStateError("peek into an empty event queue")

    def dispatch_all(
        self, clock: SimulationClock, dispatch: Callable[[Event], None]
    ) -> int:
        """Pop every live event in order, advance *clock* to it and hand it
        to *dispatch*, including events pushed while dispatching; return the
        number dispatched.

        The engines' run-to-completion loop: :meth:`pop` inlined, and heap
        order standing in for the clock's monotonicity check.
        """
        heap = self._heap
        cancelled = self._cancelled
        heappop = heapq.heappop
        processed = 0
        while heap:
            event = heappop(heap)
            if cancelled and event.seq in cancelled:
                cancelled.discard(event.seq)
                continue
            self._live -= 1
            clock._now = event.time
            dispatch(event)
            processed += 1
        return processed

    def next_time(self) -> float | None:
        """Timestamp of the next live event, or None if empty."""
        try:
            return self.peek().time
        except SimulationStateError:
            return None

    def drain(self) -> Iterator[Event]:
        """Pop every live event in order (useful in tests)."""
        while self:
            yield self.pop()

    def clear(self) -> None:
        """Remove all events."""
        self._heap.clear()
        self._cancelled.clear()
        self._live = 0
