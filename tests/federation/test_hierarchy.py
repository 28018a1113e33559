"""Hierarchy semantics: paths, trees, rollups, relays, refusals.

The fixture tree used throughout::

    *
    ├── region            (uplink: 0.5 s, 1 MB/s FIFO, 2 J/MB)
    │   ├── site-a        (1 SLOW machine; arrivals land here)
    │   └── site-b        (1 SLOW machine)
    └── cloud             (FAST machines, arrival weight 0)

All site/cloud uplinks are latency-only (0.25 s), so the region uplink is
the single contended resource: every site→cloud offload pays it, 4 MB at
1 MB/s, FIFO — which makes queueing, ordering and cancellation exactly
computable by hand.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError
from repro.federation import ClusterSpec, FederationSpec, RegionSpec
from repro.federation.hierarchy import ClusterPath, FederationTree
from repro.federation.spec import MigrationSpec
from repro.machines.eet import EETMatrix
from repro.metrics.rollup import TreeRollup
from repro.net import InterClusterTopology
from repro.net.topology import Link
from repro.scheduling.federation import TreePressureGateway, create_gateway
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


def tree_spec(*, site_b_weight=0.0, gateway="TREE_PRESSURE", **spec_kwargs):
    return FederationSpec(
        children=[
            RegionSpec(
                name="region",
                uplink=Link(0.5, 1.0, contention="fifo", energy_per_mb=2.0),
                children=[
                    ClusterSpec(
                        name="site-a",
                        machine_counts={"SLOW": 1},
                        weight=1.0,
                        uplink=Link(0.25, 0.0),
                    ),
                    ClusterSpec(
                        name="site-b",
                        machine_counts={"SLOW": 1},
                        weight=site_b_weight,
                        uplink=Link(0.25, 0.0),
                    ),
                ],
            ),
            ClusterSpec(
                name="cloud",
                machine_counts={"FAST": 1},
                weight=0.0,
                uplink=Link(0.25, 0.0),
            ),
        ],
        gateway=gateway,
        **spec_kwargs,
    )


def hier_scenario(tasks, *, n_cloud=1, site_b_weight=0.0,
                  gateway="TREE_PRESSURE", seed=3):
    """Explicit-workload scenario over the module fixture tree."""
    task_types = [TaskType("T1", 0, data_in=4.0)]
    eet = EETMatrix(np.array([[10.0, 1.0]]), task_types, ["SLOW", "FAST"])
    workload = Workload(
        task_types=task_types,
        tasks=[
            Task(id=i, task_type=task_types[0], arrival_time=a, deadline=d)
            for i, (a, d) in enumerate(tasks)
        ],
    )
    federation = tree_spec(site_b_weight=site_b_weight, gateway=gateway)
    federation.clusters[2].machine_counts = {"FAST": n_cloud}
    return Scenario(
        eet=eet,
        machine_counts={"SLOW": 2, "FAST": n_cloud},
        scheduler="MECT",
        workload=workload,
        federation=federation,
        seed=seed,
        name="hier-test",
    )


class TestClusterPath:
    def test_wire_round_trip(self):
        path = ClusterPath(("eu", "paris", "edge-0"))
        assert path.wire == "eu/paris/edge-0"
        assert ClusterPath.from_wire(path.wire) == path
        assert isinstance(path, tuple)

    def test_rejects_empty_path(self):
        with pytest.raises(ConfigurationError, match="at least one segment"):
            ClusterPath(())

    @pytest.mark.parametrize("segment", ["", "a/b"])
    def test_rejects_bad_segments(self, segment):
        with pytest.raises(ConfigurationError, match="segment"):
            ClusterPath(("eu", segment))


class TestSpecValidation:
    def test_clusters_derived_in_preorder_leaf_order(self):
        spec = tree_spec()
        assert spec.names == ["site-a", "site-b", "cloud"]

    def test_passing_the_exact_leaf_list_is_allowed(self):
        template = tree_spec()
        spec = FederationSpec(
            clusters=list(template.clusters),
            children=template.children,
            gateway="TREE_PRESSURE",
        )
        assert spec.names == template.names

    def test_passing_a_different_cluster_list_is_refused(self):
        template = tree_spec()
        with pytest.raises(ConfigurationError, match="derived from"):
            FederationSpec(
                clusters=list(reversed(template.clusters)),
                children=template.children,
            )

    def test_duplicate_node_names_are_refused(self):
        with pytest.raises(ConfigurationError, match="globally unique"):
            FederationSpec(
                children=[
                    RegionSpec(
                        name="eu",
                        children=[
                            ClusterSpec(name="eu", machine_counts={"M": 1})
                        ],
                    )
                ]
            )

    @pytest.mark.parametrize("name", ["a/b", "a->b", "*"])
    def test_reserved_characters_are_refused(self, name):
        with pytest.raises(ConfigurationError):
            FederationSpec(
                children=[ClusterSpec(name=name, machine_counts={"M": 1})]
            )

    def test_migration_is_refused(self):
        with pytest.raises(ConfigurationError, match="migration"):
            tree_spec(migration=MigrationSpec())

    def test_explicit_topology_links_are_refused(self):
        topo = InterClusterTopology()
        topo.set_link("site-a", "cloud", 1.0, 10.0)
        with pytest.raises(ConfigurationError, match="uplink"):
            tree_spec(topology=topo)

    def test_empty_region_is_refused(self):
        with pytest.raises(ConfigurationError, match="at least one child"):
            RegionSpec(name="empty")

    def test_json_round_trip_is_stable(self):
        spec = tree_spec()
        wire = json.dumps(spec.to_dict(), sort_keys=True)
        rebuilt = FederationSpec.from_dict(json.loads(wire))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire
        assert rebuilt.names == spec.names
        # Hierarchical JSON omits the derived fields entirely.
        assert "clusters" not in spec.to_dict()
        assert "migration" not in spec.to_dict()

    def test_from_dict_error_names_both_spellings(self):
        with pytest.raises(ConfigurationError, match="children"):
            FederationSpec.from_dict({"gateway": "TREE_PRESSURE"})


class TestFederationTree:
    def test_node_namespace_leaves_first_then_root(self):
        tree = FederationTree(tree_spec())
        assert tree.node_names[: tree.n_leaves] == [
            "site-a", "site-b", "cloud",
        ]
        assert tree.node_names[tree.root] == "*"
        assert tree.node_names[tree.n_leaves + 1 :] == ["region"]
        assert [p.wire for p in tree.leaf_paths] == [
            "region/site-a", "region/site-b", "cloud",
        ]

    def test_routes_climb_to_the_lca_only(self):
        tree = FederationTree(tree_spec())
        region = tree.node_names.index("region")
        # Siblings meet at their own parent, never at the root.
        assert tree.route(0, 1) == (0, region, 1)
        # Cross-subtree routes pass through the root.
        assert tree.route(0, 2) == (0, region, tree.root, 2)
        assert tree.route(2, 1) == (2, tree.root, region, 1)
        assert tree.route(0, 0) == (0,)

    def test_hop_topology_has_only_uplink_edges(self):
        tree = FederationTree(tree_spec())
        labels = {
            tuple(sorted(edge)) for edge in tree.hop_topology.links
        }
        assert labels == {
            ("region", "site-a"),
            ("region", "site-b"),
            ("*", "region"),
            ("*", "cloud"),
        }
        # The default link is inert: no phantom leaf-to-leaf channels.
        assert tree.hop_topology.default == Link()

    def test_leaves_under_and_depth(self):
        tree = FederationTree(tree_spec())
        region = tree.node_names.index("region")
        assert tree.leaves_under[tree.root] == (0, 1, 2)
        assert tree.leaves_under[region] == (0, 1)
        assert tree.depth(tree.root) == 0
        assert tree.depth(region) == 1
        assert tree.depth(0) == 2

    def test_path_transfer_energy_sums_the_hops(self):
        tree = FederationTree(tree_spec())
        # site-a -> cloud: only the region uplink carries a J/MB price.
        assert tree.path_transfer_energy(0, 2, 4.0) == pytest.approx(8.0)
        assert tree.path_transfer_energy(0, 1, 4.0) == pytest.approx(0.0)
        assert tree.path_transfer_energy(2, 2, 4.0) == 0.0

    def test_flat_spec_is_refused(self):
        flat = FederationSpec(
            clusters=[ClusterSpec(name="only", machine_counts={"M": 1})]
        )
        with pytest.raises(ConfigurationError, match="hierarchical"):
            FederationTree(flat)


class TestTreeRollup:
    PATHS = [("eu", "paris"), ("eu", "lyon"), ("us",)]
    STATS = [{"x": 1.0, "y": 2.0}, {"x": 10.0}, {"x": 100.0, "y": 5.0}]

    def test_interior_nodes_are_leaf_sums(self):
        rollup = TreeRollup.from_leaves(self.PATHS, self.STATS)
        assert rollup.root.stats == {"x": 111.0, "y": 7.0}
        assert rollup.at("eu").stats == {"x": 11.0, "y": 2.0}
        assert rollup.at("eu").n_leaves == 2
        assert rollup.at("us").stats == {"x": 100.0, "y": 5.0}
        assert rollup.root.n_leaves == 3
        assert len(rollup) == 5  # root, eu, eu/paris, eu/lyon, us

    def test_iteration_is_parents_before_children(self):
        rollup = TreeRollup.from_leaves(self.PATHS, self.STATS)
        wires = [n.wire for n in rollup]
        assert wires == ["*", "eu", "eu/lyon", "eu/paris", "us"]
        assert [n.wire for n in rollup.leaves] == [
            "eu/lyon", "eu/paris", "us",
        ]
        assert [n.wire for n in rollup.children_of(rollup.root)] == [
            "eu", "us",
        ]

    def test_as_dict_and_text(self):
        rollup = TreeRollup.from_leaves(self.PATHS, self.STATS)
        assert rollup.as_dict()["eu/paris"] == {"x": 1.0, "y": 2.0}
        text = rollup.to_text()
        lines = text.splitlines()
        assert lines[0].split() == ["node", "x", "y"]
        assert lines[1].startswith("*")
        assert any(line.startswith("    lyon") for line in lines)

    def test_unknown_wire_raises(self):
        rollup = TreeRollup.from_leaves(self.PATHS, self.STATS)
        with pytest.raises(KeyError, match="asia"):
            rollup.at("asia")

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="stat mappings"):
            TreeRollup.from_leaves(self.PATHS, self.STATS[:2])

    def test_duplicate_leaf_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            TreeRollup.from_leaves(
                [("a",), ("a",)], [{"x": 1.0}, {"x": 2.0}]
            )

    def test_leaf_prefix_of_leaf_raises(self):
        with pytest.raises(ValueError, match="prefix"):
            TreeRollup.from_leaves(
                [("a",), ("a", "b")], [{"x": 1.0}, {"x": 2.0}]
            )


class TestRefusals:
    def test_flat_gateway_is_refused_by_the_tree_engine(self):
        scenario = hier_scenario([(0.0, 100.0)], gateway="LEAST_LOADED")
        with pytest.raises(ConfigurationError, match="TREE_PRESSURE"):
            scenario.build_simulator()

    def test_parallel_execution_is_refused(self):
        scenario = hier_scenario([(0.0, 100.0)])
        with pytest.raises(ConfigurationError, match="parallel federated"):
            scenario.build_simulator(parallel_workers=2)

    @pytest.mark.parametrize("params", [{"wan_mb_weight": -1.0}])
    def test_gateway_rejects_negative_weights(self, params):
        with pytest.raises(ConfigurationError, match=">= 0"):
            TreePressureGateway(**params)

    def test_gateway_has_no_migration_weight(self):
        # Trees refuse migration, so the knob could never act; a spec that
        # still passes it fails at load through the registry.
        with pytest.raises(ConfigurationError, match="bad parameters"):
            create_gateway("TREE_PRESSURE", migration_weight=0.5)


class TestHierarchicalExecution:
    def test_multi_hop_offload_pays_every_uplink(self):
        """t=0 stays local (all idle → origin); t=1 offloads to the idle
        cloud: 0.25 s site hop + (4 MB / 1 MB/s + 0.5 s) region hop +
        0.25 s cloud hop = 5.0 s of WAN, then 1 s on the FAST machine."""
        result = hier_scenario([(0.0, 100.0), (1.0, 100.0)]).run()
        assert result.offloaded == 1
        assert result.routing["region/site-a"]["cloud"] == 1
        assert result.wan_time_total == pytest.approx(5.0)
        # Task 0: SLOW for 10 s. Task 1: delivered at 6.0, done at 7.0.
        assert result.summary.makespan == pytest.approx(10.0)
        assert result.per_cluster["cloud"].completed == 1
        # Only the region uplink carries J/MB: 4 MB * 2 J/MB.
        assert result.energy_split.wan_transfer_energy == pytest.approx(8.0)
        rollup = result.tree
        assert rollup.at("cloud").stats["wan_delivered"] == 1
        assert rollup.at("region").stats["completed"] == 1
        assert rollup.root.stats["completed"] == 2

    def test_shared_uplink_is_fifo_across_descendants(self):
        """Three offloads funnel into the region uplink; each serialises
        4 s, so deliveries space out in submission order while the tail
        waits its full queue time."""
        scenario = hier_scenario(
            [(0.0, 100.0), (0.1, 100.0), (0.2, 100.0), (0.4, 100.0)],
            n_cloud=3,
        )
        sim = scenario.build_simulator()
        region = sim.tree.node_names.index("region")
        root = sim.tree.root
        submitted, delivered = [], []
        orig_submit = sim._wan.submit

        def spy_submit(task, src, dst, now, **kwargs):
            if (src, dst) == (region, root):
                submitted.append(task.id)
            return orig_submit(task, src, dst, now, **kwargs)

        sim._wan.submit = spy_submit
        cloud_shard = sim.shards[2]
        orig_arrival = cloud_shard._on_arrival

        def spy_arrival(task):
            delivered.append((sim.clock._now, task.id))
            orig_arrival(task)

        cloud_shard._on_arrival = spy_arrival
        result = sim.run()
        # Tasks 1, 2, 4... — whichever offloaded — crossed the shared
        # uplink and reached the cloud in exactly submission order.
        assert len(submitted) >= 2
        assert [task_id for _, task_id in delivered] == submitted
        times = [t for t, _ in delivered]
        assert times == sorted(times)
        # FIFO serialisation: consecutive deliveries are >= 4 s apart
        # while the queue is non-empty (4 MB at 1 MB/s each).
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 4.0 - 1e-9 for gap in gaps)
        usage = result.wan_links["region<->*"]
        assert usage.delivered == len(submitted)
        # One transfer serialises at a time: busy time is the exact sum.
        assert usage.busy_time == pytest.approx(4.0 * len(submitted))

    def test_deadline_in_flight_is_cancelled_and_conserved(self):
        """Task 1 offloads at t=1 and dies at t=3, mid region-uplink
        serialisation: terminal state lands on the destination shard and
        the WAN conservation counters record the loss exactly."""
        result = hier_scenario([(0.0, 100.0), (1.0, 3.0)]).run()
        assert result.summary.cancelled == 1
        assert result.per_cluster["cloud"].cancelled == 1
        rollup = result.tree
        cloud = rollup.at("cloud").stats
        assert cloud["wan_attempted"] == 1
        assert cloud["wan_delivered"] == 0
        assert cloud["wan_cancelled_in_flight"] == 1
        root = rollup.root.stats
        assert root["wan_attempted"] == (
            root["wan_delivered"] + root["wan_cancelled_in_flight"]
        )

    def test_two_sites_compete_for_the_parent_uplink(self):
        """With both sites originating work, offloads from *different*
        descendants still cross the shared region uplink strictly FIFO,
        and conservation holds at every tree node."""
        tasks = [(0.25 * i, 1000.0) for i in range(24)]
        scenario = hier_scenario(tasks, n_cloud=3, site_b_weight=1.0, seed=11)
        sim = scenario.build_simulator()
        region = sim.tree.node_names.index("region")
        root = sim.tree.root
        submitted, delivered = [], []
        orig_submit = sim._wan.submit

        def spy_submit(task, src, dst, now, **kwargs):
            if (src, dst) == (region, root):
                submitted.append(task.id)
            return orig_submit(task, src, dst, now, **kwargs)

        sim._wan.submit = spy_submit
        cloud_shard = sim.shards[2]
        orig_arrival = cloud_shard._on_arrival

        def spy_arrival(task):
            delivered.append(task.id)
            orig_arrival(task)

        cloud_shard._on_arrival = spy_arrival
        result = sim.run()
        routing = result.routing
        # Both descendants actually sent work up the shared link.
        assert routing["region/site-a"]["cloud"] > 0
        assert routing["region/site-b"]["cloud"] > 0
        assert delivered == submitted
        rollup = result.tree
        for node in rollup:
            stats = node.stats
            assert stats["wan_attempted"] == (
                stats["wan_delivered"] + stats["wan_cancelled_in_flight"]
            ), node.wire
        # Interior nodes are exact sums of their children.
        region_children = rollup.children_of(rollup.at("region"))
        assert rollup.at("region").stats["routed"] == sum(
            c.stats["routed"] for c in region_children
        )

    def test_runs_are_deterministic(self):
        tasks = [(0.3 * i, 1000.0) for i in range(20)]
        a = hier_scenario(tasks, site_b_weight=1.0, seed=7).run()
        b = hier_scenario(tasks, site_b_weight=1.0, seed=7).run()
        assert a.summary.as_dict() == b.summary.as_dict()
        assert a.routing == b.routing
        assert a.tree.as_dict() == b.tree.as_dict()

    def test_result_text_uses_path_keys(self):
        result = hier_scenario([(0.0, 100.0), (1.0, 100.0)]).run()
        text = result.to_text()
        assert "region/site-a" in text
        assert "region<->*" in text


class TestFlatFallback:
    def test_tree_pressure_matches_least_loaded_on_flat_federations(self):
        """On a flat spec the tree walk degenerates to LEAST_LOADED's
        arithmetic exactly — same summaries, same routing."""
        from repro.scenarios import build_scenario

        tree = build_scenario("geo_3site", gateway="TREE_PRESSURE").run()
        flat = build_scenario("geo_3site", gateway="LEAST_LOADED").run()
        assert tree.summary.as_dict() == flat.summary.as_dict()
        assert tree.routing == flat.routing
        assert tree.tree is None
