"""Event taxonomy: ordering, priorities, tie-breaks."""

import copy
import pickle

import pytest

from repro.core.events import EVENT_PRIORITY, Event, EventType


class TestEventOrdering:
    def test_earlier_time_fires_first(self):
        early = Event(1.0, EventType.TASK_ARRIVAL)
        late = Event(2.0, EventType.TASK_ARRIVAL)
        assert early < late

    def test_completion_beats_deadline_at_same_time(self):
        """A task completing exactly at its deadline is on time."""
        completion = Event(5.0, EventType.TASK_COMPLETION)
        deadline = Event(5.0, EventType.TASK_DEADLINE)
        assert completion < deadline

    def test_completion_beats_arrival_at_same_time(self):
        completion = Event(5.0, EventType.TASK_COMPLETION)
        arrival = Event(5.0, EventType.TASK_ARRIVAL)
        assert completion < arrival

    def test_arrival_beats_deadline_at_same_time(self):
        arrival = Event(5.0, EventType.TASK_ARRIVAL)
        deadline = Event(5.0, EventType.TASK_DEADLINE)
        assert arrival < deadline

    def test_delivery_between_completion_and_arrival(self):
        completion = Event(5.0, EventType.TASK_COMPLETION)
        delivery = Event(5.0, EventType.NETWORK_DELIVERY)
        arrival = Event(5.0, EventType.TASK_ARRIVAL)
        assert completion < delivery < arrival

    def test_control_fires_last(self):
        control = Event(5.0, EventType.CONTROL)
        for kind in EventType:
            if kind is EventType.CONTROL:
                continue
            assert Event(5.0, kind) < control

    def test_fifo_stability_for_identical_kind_and_time(self):
        first = Event(3.0, EventType.TASK_ARRIVAL, payload="a")
        second = Event(3.0, EventType.TASK_ARRIVAL, payload="b")
        assert first < second  # seq counter is monotonic

    def test_time_dominates_priority(self):
        deadline_early = Event(1.0, EventType.TASK_DEADLINE)
        completion_late = Event(2.0, EventType.TASK_COMPLETION)
        assert deadline_early < completion_late


class TestEventStructure:
    def test_priority_property_matches_table(self):
        for kind in EventType:
            assert Event(0.0, kind).priority == EVENT_PRIORITY[kind]

    def test_sort_key_shape(self):
        event = Event(1.5, EventType.TASK_ARRIVAL)
        key = event.sort_key()
        assert key[0] == 1.5
        assert key[1] == EVENT_PRIORITY[EventType.TASK_ARRIVAL]

    def test_payload_carried_verbatim(self):
        sentinel = object()
        assert Event(0.0, EventType.CONTROL, sentinel).payload is sentinel

    def test_events_are_frozen(self):
        event = Event(0.0, EventType.CONTROL)
        with pytest.raises(AttributeError):
            event.time = 1.0  # type: ignore[misc]

    @pytest.mark.parametrize("name", ["time", "type", "payload", "seq", "cluster"])
    def test_no_field_can_be_set_or_deleted(self, name):
        event = Event(0.0, EventType.CONTROL)
        with pytest.raises(AttributeError):
            setattr(event, name, None)
        with pytest.raises(AttributeError):
            delattr(event, name)
        with pytest.raises(AttributeError):
            event.extra = 1  # type: ignore[attr-defined]

    def test_event_is_its_own_ordered_tuple(self):
        """The tuple layout is the heap order: (time, priority, seq) first."""
        payload = object()
        event = Event(2.5, EventType.TASK_DEADLINE, payload, cluster=3)
        assert isinstance(event, tuple)
        assert tuple(event) == (
            2.5,
            EVENT_PRIORITY[EventType.TASK_DEADLINE],
            event.seq,
            EventType.TASK_DEADLINE,
            payload,
            3,
        )
        assert event.key == event.sort_key() == event[:3]
        assert event.key == (event.time, event.priority, event.seq)

    def test_every_event_type_has_priority(self):
        assert set(EVENT_PRIORITY) == set(EventType)


class TestEventCopySemantics:
    def test_pickle_round_trip(self):
        event = Event(2.5, EventType.TASK_DEADLINE, payload={"k": 1})
        clone = pickle.loads(pickle.dumps(event))
        assert clone.time == event.time
        assert clone.type is event.type
        assert clone.payload == event.payload
        assert clone.seq == event.seq
        assert clone.sort_key() == event.sort_key()

    def test_deepcopy(self):
        event = Event(1.0, EventType.TASK_ARRIVAL)
        clone = copy.deepcopy(event)
        assert clone.sort_key() == event.sort_key()

    @pytest.mark.parametrize(
        "clone",
        [
            lambda e: pickle.loads(pickle.dumps(e)),
            copy.deepcopy,
            copy.copy,
        ],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_keep_every_field(self, clone):
        event = Event(
            4.0, EventType.NETWORK_DELIVERY, payload=("m", 7), cluster=(0, 2, 5)
        )
        twin = clone(event)
        assert type(twin) is Event
        assert twin.seq == event.seq
        assert twin.priority == event.priority
        assert twin.type is EventType.NETWORK_DELIVERY
        assert twin.payload == ("m", 7)
        assert twin.cluster == (0, 2, 5)
        assert type(twin.cluster) is tuple
        assert tuple(twin) == tuple(event)

    def test_cluster_path_survives_unchanged(self):
        path = (1, 4, 9)
        event = Event(0.0, EventType.TASK_ARRIVAL, cluster=path)
        assert event.cluster is path
        assert event.key == event[:3]
