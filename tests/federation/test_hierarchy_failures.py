"""Hierarchical federations with machine failures.

Trees accept a failure model, so crashes and repairs move the per-node
live-machine counters ``TREE_PRESSURE`` routes on. One deterministic
``hier_3region`` run with failures must still conserve tasks (each
reaches exactly one terminal state), conserve WAN transfers at every tree
node, and repeat exactly for a given seed.
"""

import dataclasses
from collections import Counter

from repro.core.events import EventType
from repro.machines.failures import FailureModel
from repro.scenarios import build_scenario


def _run_with_failures():
    scenario = dataclasses.replace(
        build_scenario("hier_3region", duration=120.0),
        failure_model=FailureModel(mtbf=40.0, mttr=8.0),
    )
    sim = scenario.build_simulator()
    seen = Counter()
    sim.observers.append(lambda _sim, event: seen.update([event.type]))
    result = sim.run()
    return sim, result, seen


def _fingerprint(sim, result):
    return {
        "summary": result.summary.as_dict(),
        "per_cluster": {
            name: s.as_dict() for name, s in result.per_cluster.items()
        },
        "routing": result.routing,
        "tree": {node.wire: dict(node.stats) for node in result.tree},
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "energy": result.energy,
        "tasks": sorted(
            (task.id, task.status.name, task.completion_time, task.cluster)
            for shard in sim.shards
            for task in shard.collector.tasks()
        ),
    }


def test_tree_run_with_failures_conserves_tasks_and_wan():
    sim, result, seen = _run_with_failures()
    # Failures and repairs really happened, so the live-machine counters
    # moved during the run.
    assert seen[EventType.MACHINE_FAILURE] > 0
    assert seen[EventType.MACHINE_REPAIR] > 0

    recorded = [
        task for shard in sim.shards for task in shard.collector.tasks()
    ]
    ids = [task.id for task in recorded]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(task.id for task in sim.workload)
    assert all(task.status.is_terminal for task in recorded)
    summary = result.summary
    assert (
        summary.completed + summary.cancelled + summary.missed
        == summary.total_tasks
        == len(sim.workload)
    )

    for node in result.tree:
        stats = node.stats
        assert stats["wan_attempted"] == (
            stats["wan_delivered"] + stats["wan_cancelled_in_flight"]
        ), node.wire
        assert stats["routed"] == (
            stats["completed"] + stats["missed"] + stats["cancelled"]
        ), node.wire
    assert result.tree.root.stats["wan_attempted"] == result.offloaded


def test_tree_run_with_failures_is_deterministic():
    first = _fingerprint(*_run_with_failures()[:2])
    second = _fingerprint(*_run_with_failures()[:2])
    assert first == second
