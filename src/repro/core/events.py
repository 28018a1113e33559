"""Event taxonomy for the discrete-event simulation kernel.

The future-event list orders events by ``(time, priority, seq)``. Priorities
encode the paper's tie-break semantics at equal timestamps:

* a task completing exactly at its deadline counts as *on time*, therefore
  ``TASK_COMPLETION`` sorts before ``TASK_DEADLINE``;
* arrivals are processed after completions (a machine freed at *t* is visible
  to the scheduling pass triggered by an arrival at *t*) but before deadline
  sweeps, so a task arriving exactly at another task's deadline does not see
  stale queue state;
* control events (end-of-simulation markers, user hooks) come last.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, NamedTuple

__all__ = ["EventType", "Event", "EVENT_PRIORITY"]


class EventType(enum.Enum):
    """Kinds of events the simulator processes."""

    TASK_COMPLETION = "task_completion"
    MACHINE_REPAIR = "machine_repair"
    NETWORK_DELIVERY = "network_delivery"
    LINK_TRANSFER = "link_transfer"
    TASK_ARRIVAL = "task_arrival"
    TASK_MIGRATION = "task_migration"
    TASK_DEADLINE = "task_deadline"
    MACHINE_FAILURE = "machine_failure"
    CROSS_TRAFFIC = "cross_traffic"
    CONTROL = "control"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventType.{self.name}"


#: Total order of event kinds at equal timestamps (lower fires first).
#: Repairs precede arrivals (an arrival at the repair instant sees the
#: machine up); WAN link transfers precede arrivals (a task routed onto a
#: link at the instant a serialization finishes sees the link free);
#: migrations follow arrivals (a rebalance pass at an arrival instant sees
#: the freshly-queued task; a migrated task delivered alongside a local
#: arrival queues behind it) but precede deadlines (a task migrated and
#: expiring at the same instant is swept at its destination, not lost);
#: failures follow deadlines (a task completing or expiring at the failure
#: instant resolves before the machine dies); WAN cross-traffic capacity
#: changes fire after everything that was scheduled under the outgoing
#: rate (a serialisation finishing exactly at an epoch boundary completes
#: under the rate it was integrated with) but before CONTROL markers.
EVENT_PRIORITY: dict[EventType, int] = {
    EventType.TASK_COMPLETION: 0,
    EventType.MACHINE_REPAIR: 1,
    EventType.NETWORK_DELIVERY: 2,
    EventType.LINK_TRANSFER: 3,
    EventType.TASK_ARRIVAL: 4,
    EventType.TASK_MIGRATION: 5,
    EventType.TASK_DEADLINE: 6,
    EventType.MACHINE_FAILURE: 7,
    EventType.CROSS_TRAFFIC: 8,
    EventType.CONTROL: 9,
}

# Mirror the priority table onto the members: Event.__new__ runs for every
# scheduled event, and the plain attribute read beats the enum-keyed dict
# lookup (enum hashing goes through the member name).
for _event_type, _rank in EVENT_PRIORITY.items():
    _event_type._priority = _rank

_seq_counter = itertools.count()


class _EventFields(NamedTuple):
    # Event's fields. typing.NamedTuple forbids __new__ in its own body, so
    # Event subclasses this. Field order is heap order: (time, priority, seq)
    # is the ordering key, and seq is unique, so a comparison never reaches
    # type or payload.
    time: float
    priority: int
    seq: int
    type: EventType
    payload: Any
    cluster: int | tuple[int, ...] | None


class Event(_EventFields):
    """A single simulation event.

    An immutable tuple laid out as ``(time, priority, seq, type, payload,
    cluster)``. The tuple order *is* the future-event list's order, so the
    queue stores events directly and ``heapq`` compares them in one flat C
    tuple comparison; the unique ``seq`` guarantees that comparison never
    reaches ``type`` or ``payload`` (payloads such as tasks are unorderable).
    One allocation per event: construction, ordering key and heap entry are
    the same object.

    Being a tuple, events compare and hash by value. Nothing in the engines
    compares or hashes events by value: the queue cancels by ``seq``.

    Attributes
    ----------
    time:
        Simulation timestamp at which the event fires.
    priority:
        Rank of ``type`` in :data:`EVENT_PRIORITY` (lower fires first).
    seq:
        Monotonic tie-break counter; guarantees FIFO stability among events
        with identical ``(time, priority)``.
    type:
        The :class:`EventType` of this event.
    payload:
        Event-specific data (a task, a machine, ...). Never inspected by the
        queue itself.
    cluster:
        Routing address in a federated simulation (see
        :mod:`repro.federation`). A plain ``int`` is the owning cluster
        shard — the federation loop routes the event straight to that
        shard's handlers. A *cluster path* (non-empty ``tuple`` of node
        ids, root-most first) addresses an event still descending a
        hierarchical federation: the remaining hops toward its destination
        leaf (:mod:`repro.federation.hierarchy`). A single-element path is
        always stamped in its ``int`` form, so flat federations — depth-1
        paths — carry byte-identical events to pre-hierarchy builds.
        ``None`` for single-cluster simulations and for federation-level
        events (gateway arrivals, global deadlines). Not part of the
        ordering key.
    """

    __slots__ = ()  # no per-instance __dict__: events stay immutable

    def __new__(
        cls,
        time: float,
        type: EventType,
        payload: Any = None,
        seq: int | None = None,
        cluster: int | tuple[int, ...] | None = None,
    ) -> "Event":
        if seq is None:
            seq = next(_seq_counter)
        return tuple.__new__(
            cls, (time, type._priority, seq, type, payload, cluster)
        )

    def __reduce__(self):
        # The NamedTuple default would pass all six fields to __new__;
        # reconstruct through the public signature with the original seq.
        return (
            Event,
            (self.time, self.type, self.payload, self.seq, self.cluster),
        )

    @property
    def key(self) -> tuple[float, int, int]:
        """The ``(time, priority, seq)`` ordering key."""
        return self[:3]

    def sort_key(self) -> tuple[float, int, int]:
        """Key under which the future-event list orders this event."""
        return self[:3]
