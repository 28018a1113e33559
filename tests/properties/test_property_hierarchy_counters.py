"""The hierarchy engine's live per-node counters, checked event by event.

``TREE_PRESSURE`` reads two integer counters per tree node instead of
rescanning every leaf: ``in_system`` (routed-but-not-terminal tasks under
the node) and ``alive`` (live machines under the node). Over random trees,
with and without machine failures and with deadlines tight enough that
some tasks are cancelled mid-WAN, after every single event:

1. each node's ``in_system`` equals the sum of ``shards[leaf].in_system``
   over ``leaves_under[node]``,
2. each node's ``alive`` equals the sum of machines minus ``n_down`` over
   the same leaves,
3. a feedback gateway was told about every terminal task so far (the
   engine chains its terminal hook onto the feedback one; it must not
   replace it),

and every routing decision equals the leaf-scan reference below, the
arithmetic the counters replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_hierarchy import federation_specs

from repro.federation.hierarchy import HierarchicalFederatedSimulator
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.scheduling.federation import TreePressureGateway
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


def leaf_scan_pick(ctx, wan_mb_weight):
    """The pre-counter TREE_PRESSURE walk: every subtree summed leaf by leaf."""
    view = ctx.hierarchy
    tree = view.tree
    node = tree.root
    while not tree.is_leaf(node):
        best, best_pressure, best_local = -1, float("inf"), False
        for child in tree.children[node]:
            in_system = 0
            inflight_mb = 0.0
            alive = 0
            for leaf in tree.leaves_under[child]:
                shard = ctx.shards[leaf]
                in_system += shard.in_system
                inflight_mb += view.inflight_mb[leaf]
                cluster = shard.cluster
                alive += len(cluster.machines) - cluster.state.n_down
            if alive <= 0:
                pressure = float("inf")
            else:
                pressure = (in_system + wan_mb_weight * inflight_mb) / alive
            local = ctx.origin in tree.leaves_under[child]
            if (
                best < 0
                or pressure < best_pressure
                or (pressure == best_pressure and local and not best_local)
            ):
                best, best_pressure, best_local = child, pressure, local
        node = best
    return node


class CheckedTreePressure(TreePressureGateway):
    """TREE_PRESSURE that checks each pick and may ask for feedback."""

    def __init__(self, *, feedback):
        super().__init__(wan_mb_weight=0.3)
        self.wants_feedback = feedback
        self.picks = []
        self.outcomes = 0

    def choose_cluster(self, ctx):
        pick = super().choose_cluster(ctx)
        self.picks.append((pick, leaf_scan_pick(ctx, self.wan_mb_weight)))
        return pick

    def record_outcome(self, task, now):
        self.outcomes += 1


def _simulator(spec, tasks, data_in, *, seed, failures, feedback):
    task_types = [TaskType("T1", 0, data_in=data_in)]
    eet = EETMatrix(np.array([[3.0]]), task_types, ["M"])
    workload = Workload(
        task_types=task_types,
        tasks=[
            Task(id=i, task_type=task_types[0], arrival_time=a, deadline=d)
            for i, (a, d) in enumerate(tasks)
        ],
    )
    gateway = CheckedTreePressure(feedback=feedback)

    class Engine(HierarchicalFederatedSimulator):
        def _make_gateway(self):
            return gateway

    sim = Engine(
        spec,
        eet,
        workload,
        seed=seed,
        failure_model=(
            FailureModel(mtbf=4.0, mttr=2.0) if failures else None
        ),
    )
    return sim, gateway


def _assert_counters_match_leaves(sim):
    tree = sim.tree
    view = sim._ctx.hierarchy
    for node in range(tree.n_nodes):
        leaves = [sim.shards[leaf] for leaf in tree.leaves_under[node]]
        assert view.in_system[node] == sum(s.in_system for s in leaves), node
        assert view.alive[node] == sum(
            len(s.cluster.machines) - s.cluster.state.n_down for s in leaves
        ), node


@given(
    spec=federation_specs(),
    seed=st.integers(min_value=0, max_value=2**16),
    data_in=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    tight=st.booleans(),
    failures=st.booleans(),
    feedback=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_counters_track_the_leaves_at_every_event(
    spec, seed, data_in, tight, failures, feedback
):
    deadline = 4.0 if tight else 60.0
    tasks = [(0.4 * i, 0.4 * i + deadline) for i in range(14)]
    sim, gateway = _simulator(
        spec, tasks, data_in, seed=seed, failures=failures, feedback=feedback
    )
    _assert_counters_match_leaves(sim)
    while sim.step() is not None:
        _assert_counters_match_leaves(sim)
        if feedback:
            assert gateway.outcomes == sim.recorded
    assert sim.recorded == len(tasks)
    assert gateway.outcomes == (len(tasks) if feedback else 0)
    assert len(gateway.picks) == len(tasks)
    for pick, reference in gateway.picks:
        assert pick == reference
