"""The grouped, bound-pruned MCT search equals a brute-force first argmin.

``Cluster._scalar_mct`` visits machines in groups of equal EET, cheapest
first, and stops at the first group whose lower bound ``base + eet`` is
above the best cell so far. Two references are computed here from the same
planning state, written straight into the cluster's mirrors:

1. the full scan the grouped search replaced: every machine in index
   order, the same cell arithmetic, a strict ``<`` (first minimum wins);
2. the vectorised path, ``ready_times(now) + eet_vector`` masked by the
   free slots, and NumPy's ``argmin``.

The draws aim at what could break the pruning: clusters whose machine types
are interleaved (``Cluster.build`` only makes contiguous blocks), equal EETs
on different machine types, tie-heavy value alphabets, free-slot masks,
small ``now``, and the tiny negative ``queued_work`` residues that the
``+=``/``-=`` bookkeeping leaves behind (with ``queued_floor`` at the
smallest of them, or below it for a residue since overwritten).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.machine import Machine
from repro.machines.machine_type import MachineType
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType

INF = float("inf")
EETS = (0.5, 1.0, 2.0, 2.5, 3.0)
FINISH = (0.0, 0.5, 1.0, 2.5, 3.0)
QUEUED = (0.0, 0.0, -1e-16, -8.881784197001252e-16, 1e-16, 0.5, 1.0, 2.0)
NOWS = (0.0, 1e-16, 0.5, 1.0)
FREE = (0.0, 1.0, INF)


def make_cluster(values, machine_cols):
    """A cluster whose machine *j* has EET column ``machine_cols[j]``."""
    n_types, n_mtypes = len(values), len(values[0])
    task_types = [TaskType(f"T{i}", i) for i in range(n_types)]
    eet = EETMatrix(np.array(values), task_types, [f"M{k}" for k in range(n_mtypes)])
    mtypes = [MachineType(name=f"M{k}", index=k) for k in range(n_mtypes)]
    machines = [
        Machine(machine_id=j, machine_type=mtypes[k], eet=eet)
        for j, k in enumerate(machine_cols)
    ]
    return Cluster(machines, eet), task_types


def write_state(cluster, finish, queued, stale):
    """Put *finish*/*queued* into the NumPy arrays and their list twins.

    ``queued_floor`` gets what the machine syncs would leave: the smallest
    value mirrored, or 0.0 — lowered by *stale* for a residue that has since
    been overwritten.
    """
    state = cluster.state
    for j, (f, q) in enumerate(zip(finish, queued)):
        state.finish_at[j] = state.finish_list[j] = f
        state.queued_work[j] = state.queued_list[j] = q
    state.queued_floor = min(0.0, *queued) + stale


def full_scan(cluster, row, now, free):
    """Every machine in index order with a strict ``<``: the first argmin."""
    state = cluster.state
    eet_row = cluster._eet_by_machine[row].tolist()
    best, best_j = INF, 0
    for j, f in enumerate(state.finish_list):
        if free is not None and free[j] <= 0.0:
            continue
        remaining = f - now
        if remaining < 0.0:
            remaining = 0.0
        v = now + remaining + state.queued_list[j] + eet_row[j]
        if v < best:
            best, best_j = v, j
    return best_j, best


def vector_pick(cluster, task, now, free):
    completion = cluster.completion_times(task, now)
    if free is not None:
        completion[np.asarray(free) <= 0.0] = INF
    j = int(completion.argmin())
    return j, float(completion[j])


@st.composite
def planning_states(draw):
    n_types = draw(st.integers(1, 3))
    n_mtypes = draw(st.integers(1, 4))
    values = [
        [draw(st.sampled_from(EETS)) for _ in range(n_mtypes)] for _ in range(n_types)
    ]
    n = draw(st.integers(1, 12))
    machine_cols = draw(st.lists(st.integers(0, n_mtypes - 1), min_size=n, max_size=n))
    finish = draw(st.lists(st.sampled_from(FINISH), min_size=n, max_size=n))
    queued = draw(st.lists(st.sampled_from(QUEUED), min_size=n, max_size=n))
    free = draw(st.none() | st.lists(st.sampled_from(FREE), min_size=n, max_size=n))
    stale = draw(st.sampled_from((0.0, 0.0, -1e-16)))
    now = draw(st.sampled_from(NOWS))
    row = draw(st.integers(0, n_types - 1))
    return values, machine_cols, finish, queued, stale, free, now, row


# A tie between groups: machine 1 (EET 0.5) scores 1.0 first, then machine 0
# (EET 1.0) ties it with bound exactly 1.0, and the lower index must win.
@example(([[1.0, 0.5]], [0, 1], [0.0, 0.0], [0.0, 0.5], 0.0, None, 0.0, 0))
# The negative residue: machine 1 (EET 0.5) scores 1 - 2**-53; machine 0
# (EET 1.0, queued -1e-16) ties it below ``now + 1.0``, so a bound that
# ignored the residue would prune the winning group.
@example(([[1.0, 0.5]], [0, 1], [0.0, 0.5], [-1e-16, -1e-16], 0.0, None, 0.0, 0))
@given(planning_states())
@settings(max_examples=400, deadline=None)
def test_grouped_search_is_the_first_argmin(case):
    values, machine_cols, finish, queued, stale, free, now, row = case
    cluster, task_types = make_cluster(values, machine_cols)
    write_state(cluster, finish, queued, stale)
    task = Task(id=0, task_type=task_types[row], arrival_time=0.0, deadline=INF)
    expected = full_scan(cluster, row, now, free)
    assert cluster._scalar_mct(task, now, free) == expected
    assert vector_pick(cluster, task, now, free) == expected
    if free is None:
        assert cluster.argmin_completion(task, now) == expected[0]
        assert cluster.min_completion_time(task, now) == expected[1]
    else:
        cluster.state.slots_list[:] = free
        assert cluster.free_argmin_completion(task, now) == expected


def test_groups_are_sorted_index_ordered_and_complete():
    cluster, _ = make_cluster([[2.0, 1.0, 2.0], [3.0, 3.0, 1.0]], [0, 1, 2, 0, 1, 2])
    assert cluster._mct_groups == [
        [(1.0, (1, 4)), (2.0, (0, 2, 3, 5))],
        [(1.0, (2, 5)), (3.0, (0, 1, 3, 4))],
    ]
