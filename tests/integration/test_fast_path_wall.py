"""Differential wall: the scalar MCT fast paths never change a run.

Three callers answer minimum-completion-time questions with
``Cluster._scalar_mct`` instead of the vectorised ``ready + eet`` path:
one-task batch passes (``one_task_is_mct``), MECT (``argmin_completion``)
and the EET-aware gateway (``min_completion_time``). Each claims to make
the vectorised path's exact pick. This property runs random single-cluster
and flat-federation specs twice — as-is, and with those fast paths switched
off from here (``_SCALAR_ARGMIN_LIMIT = 0`` and ``one_task_is_mct = False``
on every batch policy) — and requires the two runs to report the same
thing, down to each task's machine and times.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_flat_equivalence import _fingerprint

from repro.core.config import Scenario
from repro.federation import ClusterSpec, FederationSpec
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.net import InterClusterTopology, Link
from repro.scheduling.base import BatchScheduler
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload

# Tie-heavy EETs: equal values on different machine types are common.
EETS = (1.0, 2.0, 2.5, 4.0)
POLICIES = ("MECT", "MM", "MAXMIN", "MSD", "MMU", "SUFFERAGE")
GATEWAYS = ("EET_AWARE_REMOTE", "RANDOM_SPLIT", "LEAST_LOADED", "LOCALITY_FIRST")


def _batch_policies():
    found, stack = [], [BatchScheduler]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


@contextlib.contextmanager
def fast_paths_off():
    """Put every MCT decision on the NumPy path inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cluster, "_SCALAR_ARGMIN_LIMIT", 0)
        for cls in _batch_policies():
            if "one_task_is_mct" in vars(cls):
                patch.setattr(cls, "one_task_is_mct", False)
        yield


@st.composite
def scenarios(draw):
    n_types = draw(st.integers(1, 3))
    mtypes = [f"M{k}" for k in range(draw(st.integers(1, 3)))]
    task_types = [TaskType(f"T{i}", i, data_in=1.0) for i in range(n_types)]
    values = [[draw(st.sampled_from(EETS)) for _ in mtypes] for _ in task_types]
    eet = EETMatrix(np.array(values), task_types, mtypes)
    # Arrivals on a half-second grid, so simultaneous arrivals are common.
    arrivals = sorted(
        0.5 * a for a in draw(st.lists(st.integers(0, 40), min_size=1, max_size=30))
    )
    tasks = [
        Task(
            id=i,
            task_type=task_types[draw(st.integers(0, n_types - 1))],
            arrival_time=a,
            deadline=a + draw(st.sampled_from([2.0, 5.0, 20.0, 200.0])),
        )
        for i, a in enumerate(arrivals)
    ]
    federation = None
    if draw(st.booleans()):
        clusters = []
        for c in range(draw(st.integers(2, 3))):
            counts = {m: draw(st.integers(0, 3)) for m in mtypes}
            counts[mtypes[0]] = max(counts[mtypes[0]], 1)
            clusters.append(ClusterSpec(name=f"c{c}", machine_counts=counts))
        federation = FederationSpec(
            clusters=clusters,
            gateway=draw(st.sampled_from(GATEWAYS)),
            topology=InterClusterTopology(
                default=Link(
                    draw(st.sampled_from([0.0, 0.1, 1.0])),
                    draw(st.sampled_from([0.0, 2.0])),
                )
            ),
        )
        machine_counts = federation.total_machine_counts()
    else:
        machine_counts = {m: draw(st.integers(1, 4)) for m in mtypes}
    failures = None
    if draw(st.booleans()):
        failures = FailureModel(
            mtbf=draw(st.sampled_from([5.0, 20.0])), mttr=draw(st.sampled_from([1.0, 4.0]))
        )
    return Scenario(
        eet=eet,
        machine_counts=machine_counts,
        scheduler=draw(st.sampled_from(POLICIES)),
        queue_capacity=draw(st.sampled_from([1, 2, float("inf")])),
        workload=Workload(task_types=task_types, tasks=tasks),
        failure_model=failures,
        federation=federation,
        seed=draw(st.integers(0, 1000)),
        name="fast-path-wall",
    )


def fingerprint(scenario):
    """JSON of what one run reports (NaN-safe, so equal runs compare equal)."""
    result = scenario.run()
    if scenario.federation is not None:
        out = _fingerprint(result)
    else:
        out = {
            "summary": result.summary.as_dict(),
            "events_processed": result.events_processed,
            "end_time": result.end_time,
            "tasks": [
                [r["task_id"], r["status"], r["machine"], r["start_time"], r["completion_time"]]
                for r in result.task_records
            ],
        }
    return json.dumps(out, sort_keys=True, default=str)


@given(scenarios())
@settings(max_examples=120, deadline=None)
def test_fast_paths_do_not_change_a_run(scenario):
    as_is = fingerprint(scenario)
    with fast_paths_off():
        assert fingerprint(scenario) == as_is


def test_the_switch_reaches_every_fast_path(eet_3x2):
    cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 1})
    task = Task(id=0, task_type=eet_3x2.task_types[0], arrival_time=0.0, deadline=9.0)
    with fast_paths_off():
        assert cluster.free_argmin_completion(task, 0.0) is None
        assert not any(create_scheduler(name).one_task_is_mct for name in POLICIES[1:])
    assert cluster.free_argmin_completion(task, 0.0) == (0, 4.0)
    assert all(create_scheduler(name).one_task_is_mct for name in POLICIES[1:])
