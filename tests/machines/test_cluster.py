"""Cluster construction and vectorised planning views."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.power import PowerProfile
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType


def t1_task(task_types, i=0):
    task = Task(id=i, task_type=task_types[0], arrival_time=0.0, deadline=99.0)
    task.enqueue_batch()
    return task


class TestBuild:
    def test_counts_mapping(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 1})
        assert len(cluster) == 3
        assert cluster.counts_by_type() == {"M1": 2, "M2": 1}

    def test_counts_sequence(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, [1, 2])
        assert cluster.counts_by_type() == {"M1": 1, "M2": 2}

    def test_machine_ids_sequential(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 2})
        assert [m.id for m in cluster] == [0, 1, 2, 3]

    def test_machine_names(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        assert [m.name for m in cluster] == ["M1-0", "M2-1"]

    def test_unknown_type_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, {"MX": 1})

    def test_zero_machines_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, {"M1": 0, "M2": 0})

    def test_negative_count_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, {"M1": -1, "M2": 1})

    def test_sequence_length_mismatch_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, [1])

    def test_power_profiles_attached(self, eet_3x2):
        cluster = Cluster.build(
            eet_3x2,
            {"M1": 1, "M2": 1},
            power_profiles={"M1": PowerProfile(idle_watts=7.0)},
        )
        assert cluster[0].machine_type.power.idle_watts == 7.0
        assert cluster[1].machine_type.power.idle_watts == 0.0

    def test_extension_parameters_attached(self, eet_3x2):
        cluster = Cluster.build(
            eet_3x2,
            {"M1": 1, "M2": 1},
            memory_capacities={"M1": 512.0},
            network={"M2": (0.1, 50.0)},
        )
        assert cluster[0].machine_type.memory_capacity == 512.0
        assert cluster[1].machine_type.network_latency == 0.1
        assert cluster[1].machine_type.network_bandwidth == 50.0


class TestVectorViews:
    def test_eet_vector_alignment(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 1})
        vec = cluster.eet_vector(t1_task(task_types))
        np.testing.assert_array_equal(vec, [4.0, 4.0, 10.0])

    def test_ready_times_all_idle(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        np.testing.assert_array_equal(cluster.ready_times(3.0), [3.0, 3.0])

    def test_completion_times(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        completion = cluster.completion_times(t1_task(task_types), 2.0)
        np.testing.assert_array_equal(completion, [6.0, 12.0])

    def test_acceptance_mask(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=1)
        assert cluster.acceptance_mask().all()
        cluster[0].enqueue(t1_task(task_types, 0), 0.0)
        mask = cluster.acceptance_mask()
        assert not mask[0] and mask[1]


class TestUtilities:
    def test_set_queue_capacity(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster.set_queue_capacity(2)
        assert all(m.queue.capacity == 2 for m in cluster)

    def test_set_queue_capacity_with_inflight_rejected(
        self, eet_3x2, task_types
    ):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster[0].enqueue(t1_task(task_types), 0.0)
        with pytest.raises(ConfigurationError):
            cluster.set_queue_capacity(2)

    def test_total_energy_starts_zero(self, powered_cluster):
        assert powered_cluster.total_energy() == 0.0

    def test_fresh_copy_pristine(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster[0].enqueue(t1_task(task_types), 0.0)
        cluster[0].start_next(0.0)
        clone = cluster.fresh_copy()
        assert clone[0].is_idle
        assert len(clone[0].queue) == 0
        assert clone[0].name == cluster[0].name


class TestIdleIndex:
    def test_all_idle_initially(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 1})
        assert cluster.n_idle == 3
        assert [m.id for m in cluster.idle_machines()] == [0, 1, 2]

    def test_start_and_finish_update_index(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        machine = cluster[0]
        task = t1_task(task_types)
        machine.enqueue(task, 0.0)
        assert cluster.n_idle == 2  # queued, not yet running
        machine.start_next(0.0)
        assert cluster.n_idle == 1
        assert [m.id for m in cluster.idle_machines()] == [1]
        machine.finish_running(4.0)
        assert cluster.n_idle == 2

    def test_failure_removes_from_idle_index(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster[0].fail(1.0)
        assert cluster.n_idle == 1
        assert cluster.state.n_down == 1
        cluster[0].repair(2.0)
        assert cluster.n_idle == 2
        assert cluster.state.n_down == 0

    def test_ready_times_reflect_failures(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster[0].fail(1.0)
        ready = cluster.ready_times(1.0)
        assert ready[0] == np.inf and ready[1] == 1.0


class TestQueuedFloor:
    """``state.queued_floor`` bounds every mirrored ``queued_work`` from below."""

    @pytest.mark.parametrize("drain", ["run", "drop"])
    def test_floor_keeps_the_most_negative_residue(self, drain):
        # 0.1 + 0.2 + 2.5, then minus each in queue order, leaves -4.4e-16.
        types = [TaskType(f"T{i}", i) for i in range(3)]
        eet = EETMatrix(np.array([[0.1], [0.2], [2.5]]), types, ["M"])
        cluster = Cluster.build(eet, {"M": 2})
        machine = cluster[0]
        assert cluster.state.queued_floor == 0.0
        tasks = []
        for i, task_type in enumerate(types):
            task = Task(id=i, task_type=task_type, arrival_time=0.0, deadline=99.0)
            task.enqueue_batch()
            machine.enqueue(task, 0.0)
            tasks.append(task)
        for now, task in enumerate(tasks, start=1):
            if drain == "run":
                machine.start_next(float(now))
                machine.finish_running(now + 0.5)
            else:
                assert machine.drop_queued(task)
        residue = cluster.state.queued_list[0]
        assert residue < 0.0
        assert cluster.state.queued_floor == residue
        machine.fail(9.0)  # resets queued_work to 0.0; the floor stays
        assert cluster.state.queued_list[0] == 0.0
        assert cluster.state.queued_floor == residue


class TestEETCacheImmutability:
    def test_eet_vector_view_is_read_only(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        vec = cluster.eet_vector(t1_task(task_types))
        with pytest.raises(ValueError):
            vec += 1.0
