"""One-task batch passes: the scalar MCT shortcut equals the 1×M matrix pick.

``BatchScheduler.schedule`` answers a one-task snapshot with the cluster's
scalar MCT loop when the policy declares ``one_task_is_mct``. The reference
here is the pre-shortcut path, rebuilt in the test: the masked completion
matrix ``ready + eet`` (saturated and down machines at +inf) handed to the
policy's own ``select_pair``. Any drift between the two — a different tie
break, a missed mask, a different float — fails these tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.scheduling.base import BatchScheduler
from repro.scheduling.batch import MinMinScheduler
from repro.scheduling.context import SchedulingContext
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType

SHORTCUT_POLICIES = ("MM", "MAXMIN", "MSD", "MMU", "SUFFERAGE")
UNBOUNDED = float("inf")


def make_task(task_type, task_id=1000, deadline=50.0):
    task = Task(
        id=task_id, task_type=task_type, arrival_time=0.0, deadline=deadline
    )
    task.enqueue_batch()
    return task


def make_ctx(cluster, task, now):
    return SchedulingContext(
        now=now, pending=[task], cluster=cluster, rng=np.random.default_rng(0)
    )


def matrix_pick(scheduler, ctx):
    """The pre-shortcut pass on a one-task snapshot: build, mask, select."""
    tasks = list(ctx.pending)
    slots = ctx.free_slots()
    if not (slots > 0).any():
        return []
    completion = ctx.ready_times().astype(float)[None, :] + ctx.eet_matrix_for(
        tasks
    )
    completion[:, slots <= 0] = np.inf
    pick = scheduler.select_pair(tasks, completion, np.ones(1, dtype=bool), ctx)
    if pick is None:
        return []
    i, j = pick
    return [(tasks[i].id, ctx.cluster.machines[j].id)]


def shortcut_pick(scheduler, ctx):
    return [(a.task.id, a.machine.id) for a in scheduler.schedule(ctx)]


def assert_all_policies_agree(cluster, task, now):
    ctx = make_ctx(cluster, task, now)
    for name in SHORTCUT_POLICIES:
        scheduler = create_scheduler(name)
        assert scheduler.one_task_is_mct, name
        assert shortcut_pick(scheduler, ctx) == matrix_pick(scheduler, ctx), name


def load_machine(machine, task_type, n_queued, *, start, now, next_id):
    """Queue *n_queued* tasks on *machine*, optionally starting the head."""
    for k in range(n_queued):
        machine.enqueue(make_task(task_type, task_id=next_id + k), now)
    if start:
        machine.start_next(now)


@st.composite
def cluster_state(draw):
    n_types = draw(st.integers(min_value=1, max_value=3))
    n_mtypes = draw(st.integers(min_value=1, max_value=4))
    # A small value alphabet makes tied completion times common.
    values = np.array(
        [
            [
                draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 0.1, 7.3]))
                for _ in range(n_mtypes)
            ]
            for _ in range(n_types)
        ]
    )
    task_types = [TaskType(f"T{i}", i) for i in range(n_types)]
    eet = EETMatrix(values, task_types, [f"M{j}" for j in range(n_mtypes)])
    counts = {
        name: draw(st.integers(min_value=1, max_value=3))
        for name in eet.machine_type_names
    }
    capacity = draw(st.sampled_from([1, 2, UNBOUNDED]))
    cluster = Cluster.build(eet, counts, queue_capacity=capacity)
    setup_at = draw(st.sampled_from([0.0, 1.5]))
    next_id = 0
    for machine in cluster.machines:
        limit = 3 if capacity == UNBOUNDED else int(capacity)
        n_queued = draw(st.integers(min_value=0, max_value=limit))
        start = draw(st.booleans())
        load_machine(
            machine,
            task_types[draw(st.integers(0, n_types - 1))],
            n_queued,
            start=start,
            now=setup_at,
            next_id=next_id,
        )
        next_id += n_queued
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            machine.fail(setup_at)
    now = setup_at + draw(st.sampled_from([0.0, 0.5, 2.0, 30.0]))
    task = make_task(task_types[draw(st.integers(0, n_types - 1))])
    return cluster, task, now


@given(cluster_state())
@settings(max_examples=150, deadline=None)
def test_shortcut_matches_matrix_pick(state):
    cluster, task, now = state
    assert cluster.free_argmin_completion(task, now) is not None
    assert_all_policies_agree(cluster, task, now)


@pytest.fixture
def tie_eet():
    types = [TaskType("T1", 0)]
    return EETMatrix(np.array([[3.0, 3.0]]), types, ["A", "B"])


class TestOneTaskShortcut:
    def test_ties_break_to_first_machine(self, tie_eet):
        cluster = Cluster.build(tie_eet, {"A": 2, "B": 2}, queue_capacity=2)
        task = make_task(tie_eet.task_types[0])
        assert_all_policies_agree(cluster, task, 0.0)
        ctx = make_ctx(cluster, task, 0.0)
        assert shortcut_pick(create_scheduler("MM"), ctx) == [(task.id, 0)]

    def test_saturated_machines_are_skipped(self, tie_eet):
        cluster = Cluster.build(tie_eet, {"A": 2, "B": 2}, queue_capacity=1)
        t1 = tie_eet.task_types[0]
        for k, machine in enumerate(cluster.machines[:3]):
            machine.enqueue(make_task(t1, task_id=k), 0.0)
        task = make_task(t1)
        assert_all_policies_agree(cluster, task, 0.0)
        ctx = make_ctx(cluster, task, 0.0)
        assert shortcut_pick(create_scheduler("MM"), ctx) == [(task.id, 3)]

    def test_all_saturated_maps_nothing(self, tie_eet):
        cluster = Cluster.build(tie_eet, {"A": 1, "B": 1}, queue_capacity=1)
        t1 = tie_eet.task_types[0]
        for k, machine in enumerate(cluster.machines):
            machine.enqueue(make_task(t1, task_id=k), 0.0)
        task = make_task(t1)
        assert cluster.free_argmin_completion(task, 0.0)[1] == np.inf
        assert_all_policies_agree(cluster, task, 0.0)
        for name in SHORTCUT_POLICIES:
            assert create_scheduler(name).schedule(make_ctx(cluster, task, 0.0)) == []

    def test_down_machines_are_skipped(self, tie_eet):
        cluster = Cluster.build(tie_eet, {"A": 2, "B": 1})
        cluster.machines[0].fail(0.0)
        cluster.machines[1].fail(0.0)
        task = make_task(tie_eet.task_types[0])
        assert_all_policies_agree(cluster, task, 1.0)
        ctx = make_ctx(cluster, task, 1.0)
        assert shortcut_pick(create_scheduler("MM"), ctx) == [(task.id, 2)]

    def test_all_down_maps_nothing_but_immediate_mct_is_unchanged(self, tie_eet):
        cluster = Cluster.build(tie_eet, {"A": 1, "B": 2})
        for machine in cluster.machines:
            machine.fail(0.0)
        task = make_task(tie_eet.task_types[0])
        assert_all_policies_agree(cluster, task, 1.0)
        assert create_scheduler("MM").schedule(make_ctx(cluster, task, 1.0)) == []
        # Immediate callers keep the vectorised answer on a dark cluster.
        vector = cluster.completion_times(task, 1.0)
        assert cluster.argmin_completion(task, 1.0) == int(vector.argmin()) == 0
        assert cluster.min_completion_time(task, 1.0) == np.inf
        (assignment,) = create_scheduler("MECT").schedule(
            make_ctx(cluster, task, 1.0)
        )
        assert assignment.machine.id == 0

    def test_cluster_above_scalar_limit_keeps_matrix_path(self, tie_eet):
        limit = Cluster._SCALAR_ARGMIN_LIMIT
        cluster = Cluster.build(
            tie_eet, {"A": limit // 2 + 1, "B": limit // 2}, queue_capacity=1
        )
        assert len(cluster.machines) > limit
        t1 = tie_eet.task_types[0]
        for k, machine in enumerate(cluster.machines[::2]):
            machine.enqueue(make_task(t1, task_id=k), 0.0)
        task = make_task(t1)
        assert cluster.free_argmin_completion(task, 0.0) is None
        assert_all_policies_agree(cluster, task, 0.0)


class TestShortcutDeclaration:
    def test_only_min_completion_policies_declare_it(self):
        for name in SHORTCUT_POLICIES:
            assert create_scheduler(name).one_task_is_mct, name
        for name in ("ELARE", "FELARE"):
            assert not create_scheduler(name).one_task_is_mct, name
        assert BatchScheduler.one_task_is_mct is False

    def test_overriding_select_pair_turns_it_off(self):
        class LastMachine(MinMinScheduler):
            def select_pair(self, tasks, completion, alive, ctx):
                return 0, completion.shape[1] - 1

        class Declared(MinMinScheduler):
            one_task_is_mct = True

            def select_pair(self, tasks, completion, alive, ctx):
                return super().select_pair(tasks, completion, alive, ctx)

        assert not LastMachine.one_task_is_mct
        assert Declared.one_task_is_mct

    def test_user_policy_sees_the_matrix(self, tie_eet):
        class LastMachine(MinMinScheduler):
            def select_pair(self, tasks, completion, alive, ctx):
                return 0, completion.shape[1] - 1

        cluster = Cluster.build(tie_eet, {"A": 1, "B": 1})
        task = make_task(tie_eet.task_types[0])
        (assignment,) = LastMachine().schedule(make_ctx(cluster, task, 0.0))
        assert assignment.machine.id == 1
