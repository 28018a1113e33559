"""Gateway policies: deterministic routing decisions on crafted shard states."""

import numpy as np
import pytest

from repro.core.errors import (
    ConfigurationError,
    SchedulingError,
    UnknownGatewayError,
)
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.net import InterClusterTopology
from repro.scheduling.federation import (
    GatewayContext,
    create_gateway,
    gateway_class,
    shard_pressure,
)
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType

TASK_TYPES = [TaskType("T1", 0, data_in=10.0)]
EET = EETMatrix(np.array([[4.0, 2.0]]), TASK_TYPES, ["SLOW", "FAST"])


class StubShard:
    """Minimal ShardView implementation for policy unit tests."""

    def __init__(self, index, name, *, counts, in_system=0, weight=1.0):
        self.index = index
        self.name = name
        self.weight = weight
        self.cluster = Cluster.build(EET, counts)
        self.in_system = in_system


def make_ctx(shards, *, topology=None, origin=0, now=0.0, seed=0):
    task = Task(id=0, task_type=TASK_TYPES[0], arrival_time=now, deadline=1e9)
    task.origin_cluster = origin
    return GatewayContext(
        now=now,
        task=task,
        origin=origin,
        shards=shards,
        topology=topology or InterClusterTopology(),
        rng=np.random.default_rng(seed),
    )


class TestShardPressure:
    def test_counts_outstanding_per_live_machine(self):
        shard = StubShard(0, "a", counts={"SLOW": 2}, in_system=4)
        assert shard_pressure(shard) == pytest.approx(2.0)

    def test_all_down_is_infinite(self):
        shard = StubShard(0, "a", counts={"SLOW": 1}, in_system=0)
        shard.cluster.machines[0].fail(0.0)
        assert shard_pressure(shard) == float("inf")


class TestLocalityFirst:
    def test_stays_home_under_threshold(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=2),
            StubShard(1, "b", counts={"FAST": 4}, in_system=0),
        ]
        gateway = create_gateway("LOCALITY_FIRST", threshold=2.0)
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 0

    def test_spills_to_least_loaded_when_saturated(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=5),
            StubShard(1, "b", counts={"FAST": 1}, in_system=1),
            StubShard(2, "c", counts={"FAST": 1}, in_system=3),
        ]
        gateway = create_gateway("LOCALITY_FIRST", threshold=2.0)
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 1

    def test_stays_if_everyone_else_is_worse(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=5),
            StubShard(1, "b", counts={"FAST": 1}, in_system=9),
        ]
        gateway = create_gateway("LOCALITY_FIRST", threshold=2.0)
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigurationError):
            create_gateway("LOCALITY_FIRST", threshold=-1.0)


class TestLeastLoaded:
    def test_picks_minimum_pressure(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=3),
            StubShard(1, "b", counts={"FAST": 2}, in_system=1),
        ]
        gateway = create_gateway("LEAST_LOADED")
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 1

    def test_tie_prefers_origin(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=1),
            StubShard(1, "b", counts={"FAST": 1}, in_system=1),
        ]
        gateway = create_gateway("LEAST_LOADED")
        assert gateway.choose_cluster(make_ctx(shards, origin=1)) == 1


class TestEETAwareRemote:
    def test_offloads_to_faster_cluster_when_wan_is_cheap(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.5)  # 0.5 + 2.0 < 4.0: offload wins
        gateway = create_gateway("EET_AWARE_REMOTE")
        assert gateway.choose_cluster(make_ctx(shards, topology=topo)) == 1

    def test_stays_home_when_wan_dominates(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        topo = InterClusterTopology()
        topo.set_link("a", "b", 3.0)  # 3.0 + 2.0 > 4.0: stay home
        gateway = create_gateway("EET_AWARE_REMOTE")
        assert gateway.choose_cluster(make_ctx(shards, topology=topo)) == 0

    def test_bandwidth_term_uses_task_payload(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        # data_in=10 MB over 4 MB/s = 2.5 s: 2.5 + 2.0 > 4.0, stay home.
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.0, 4.0)
        gateway = create_gateway("EET_AWARE_REMOTE")
        assert gateway.choose_cluster(make_ctx(shards, topology=topo)) == 0


class TestRandomSplit:
    def test_never_routes_to_zero_weight(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, weight=1.0),
            StubShard(1, "b", counts={"FAST": 1}, weight=0.0),
        ]
        gateway = create_gateway("RANDOM_SPLIT")
        ctx = make_ctx(shards)
        assert all(gateway.choose_cluster(ctx) == 0 for _ in range(50))

    def test_explicit_weights_override(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, weight=1.0),
            StubShard(1, "b", counts={"FAST": 1}, weight=0.0),
        ]
        gateway = create_gateway("RANDOM_SPLIT", weights=[0.0, 1.0])
        assert gateway.choose_cluster(make_ctx(shards)) == 1

    def test_weight_length_mismatch_is_an_error(self):
        shards = [StubShard(0, "a", counts={"SLOW": 1})]
        gateway = create_gateway("RANDOM_SPLIT", weights=[0.5, 0.5])
        with pytest.raises(SchedulingError):
            gateway.choose_cluster(make_ctx(shards))

    def test_reused_instance_revalidates_each_shard_list(self):
        # The CDF is cached per shard list: a different list (of another
        # length) must be re-validated, raising the same errors as a fresh
        # gateway, and a failed build must not poison the cached one.
        two = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        one = [StubShard(0, "a", counts={"SLOW": 1})]
        three = two + [StubShard(2, "c", counts={"FAST": 1})]
        gateway = create_gateway("RANDOM_SPLIT", weights=[0.0, 1.0])
        assert gateway.choose_cluster(make_ctx(two)) == 1
        with pytest.raises(SchedulingError, match="2 weights for 1 clusters"):
            gateway.choose_cluster(make_ctx(one))
        with pytest.raises(SchedulingError, match="2 weights for 3 clusters"):
            gateway.choose_cluster(make_ctx(three))
        assert gateway.choose_cluster(make_ctx(two)) == 1

        dark = [StubShard(0, "z", counts={"SLOW": 1}, weight=0.0)]
        gateway = create_gateway("RANDOM_SPLIT")
        assert gateway.choose_cluster(make_ctx(one)) == 0
        with pytest.raises(SchedulingError, match="weights sum to zero"):
            gateway.choose_cluster(make_ctx(dark))
        with pytest.raises(SchedulingError, match="weights sum to zero"):
            gateway.choose_cluster(make_ctx([]))
        assert gateway.choose_cluster(make_ctx(two)) in (0, 1)

    def test_cached_draws_follow_generator_choice(self):
        shards = [
            StubShard(i, f"s{i}", counts={"SLOW": 1}, weight=w)
            for i, w in enumerate([3.0, 0.0, 1.0, 0.5])
        ]
        fewer = shards[:2] + [StubShard(2, "s2", counts={"SLOW": 1}, weight=2.0)]
        gateway = create_gateway("RANDOM_SPLIT")
        ctx = make_ctx(shards, seed=11)
        reference = np.random.default_rng(11)
        for shard_list in (shards, fewer, shards):
            ctx.shards = shard_list
            w = np.array([s.weight for s in shard_list])
            for _ in range(300):
                expected = int(reference.choice(len(w), p=w / w.sum()))
                assert gateway.choose_cluster(ctx) == expected
        gateway.reset()
        w = np.array([s.weight for s in shards])
        assert gateway.choose_cluster(ctx) == int(
            reference.choice(len(w), p=w / w.sum())
        )

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            create_gateway("RANDOM_SPLIT", weights=[])
        with pytest.raises(ConfigurationError):
            create_gateway("RANDOM_SPLIT", weights=[-1.0, 2.0])
        with pytest.raises(ConfigurationError):
            create_gateway("RANDOM_SPLIT", weights=[0.0, 0.0])


class TestRegistry:
    def test_lookup_is_case_and_hyphen_insensitive(self):
        assert gateway_class("least-loaded").name == "LEAST_LOADED"
        assert gateway_class("Locality_First").name == "LOCALITY_FIRST"
        assert gateway_class("eetremote").name == "EET_AWARE_REMOTE"

    def test_unknown_gateway_error(self):
        with pytest.raises(UnknownGatewayError):
            gateway_class("TELEPORT")

    def test_bad_params_raise_configuration_error(self):
        with pytest.raises(ConfigurationError):
            create_gateway("LEAST_LOADED", not_a_param=1)
