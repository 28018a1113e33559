"""Hierarchical federations: path-routed multi-level topologies.

A flat federation (:mod:`repro.federation.simulator`) is a clique: every
cluster pair has its own direct WAN link. Planet-scale deployments are not
cliques — they are trees (region → site → cluster), where two clusters in
different regions talk through both region **uplinks** and a congested
uplink back-pressures every site beneath it. This module is that tree:

* :class:`ClusterPath` — a leaf's position as a ``/``-joined name path
  (``"eu/paris/edge-0"``), the wire form of hierarchical addressing.
* :class:`FederationTree` — the compiled topology: node namespace (leaves
  first, so leaf ids *are* shard indices), child→parent uplink edges as an
  :class:`~repro.net.topology.InterClusterTopology`, and cached
  lowest-common-ancestor routes.
* :class:`HierarchyView` — what a tree-capable gateway policy sees: the
  tree, live per-node task and live-machine counters, and per-leaf
  in-flight WAN megabytes.
* :class:`HierarchicalFederatedSimulator` — the engine. Offloads hop the
  tree store-and-forward: each hop is one :class:`~repro.net.wan.WanTransfer`
  on the child↔parent uplink channel, relay deliveries carry the remaining
  node path as their :attr:`~repro.core.events.Event.cluster` (a tuple),
  and the *final* hop carries the destination leaf as a plain ``int`` — so
  flat federations, whose every path has one hop, keep byte-identical
  event streams.

Routing address forms, by example (leaf ids 0..n-1, interior ids above)::

    Event.cluster = 3          # final hop: deliver to shard 3 (flat form)
    Event.cluster = (19, 7, 3) # relay: now at node 19, still 7 → 3 to go

Refusals are explicit: gateways that do not understand trees
(``supports_hierarchy`` is false) are rejected at construction — a flat
policy would price every leaf pair over a direct link the tree does not
have — and :class:`~repro.federation.parallel.ParallelFederatedSimulator`
rejects hierarchical specs (shared uplink channels couple all shards, so
the conservative per-pair lookahead windows no longer bound cross-shard
effects).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..core.errors import (
    ConfigurationError,
    SimulationStateError,
)
from ..core.events import Event, EventType
from ..metrics.rollup import TreeRollup, offload_energy_split, routing_table
from ..net.topology import InterClusterTopology, Link
from ..net.wan import WanManager
from ..tasks.task import TaskStatus
from .result import FederatedSimulationResult
from .simulator import FederatedSimulator
from .spec import ClusterSpec, FederationSpec, RegionSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..scheduling.federation.base import GatewayPolicy
    from ..tasks.task import Task

__all__ = [
    "ClusterPath",
    "FederationTree",
    "HierarchyView",
    "HierarchicalFederatedSimulator",
]

_ARRIVAL = EventType.TASK_ARRIVAL
_CREATED = TaskStatus.CREATED

#: Name of the implicit federation root node (reserved in specs).
ROOT_NAME = "*"


class ClusterPath(tuple[str, ...]):
    """A node's position in the federation tree, root-most segment first.

    An immutable tuple of node names; the wire form joins the segments
    with ``/`` (which is why node names may not contain it). The root's
    path is written ``*`` on the wire but is *not* a ClusterPath — paths
    address real nodes, so they are non-empty by construction.
    """

    __slots__ = ()

    def __new__(cls, segments: Iterable[str]) -> "ClusterPath":
        path = super().__new__(cls, segments)
        if not path:
            raise ConfigurationError("a cluster path needs at least one segment")
        for segment in path:
            if not segment or "/" in segment:
                raise ConfigurationError(
                    f"invalid cluster-path segment {segment!r} in "
                    f"{'/'.join(path)!r}"
                )
        return path

    @property
    def wire(self) -> str:
        """The ``/``-joined serialised form."""
        return "/".join(self)

    @classmethod
    def from_wire(cls, wire: str) -> "ClusterPath":
        """Inverse of :attr:`wire`."""
        return cls(wire.split("/"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterPath({self.wire!r})"


class FederationTree:
    """The compiled topology of one hierarchical federation.

    Node namespace: leaves occupy indices ``0..n_leaves-1`` in pre-order —
    identical to shard indices, which is what lets the final hop of a route
    reuse the flat ``int`` event address — the implicit root is
    ``n_leaves``, and further interior nodes follow in discovery
    (pre-order) order. Edges are child→parent uplinks only; the hop
    topology is symmetric, so both directions of an edge share one
    physical channel, exactly like a real uplink port.
    """

    def __init__(self, spec: FederationSpec) -> None:
        if spec.children is None:
            raise ConfigurationError(
                "FederationTree needs a hierarchical FederationSpec "
                "(children is None)"
            )
        n_leaves = len(spec.clusters)
        # Leaf slots are pre-allocated so leaf ids match shard indices;
        # interior nodes append behind the root as the walk discovers them.
        names: list[str] = [""] * n_leaves + [ROOT_NAME]
        paths: list[tuple[str, ...]] = [()] * n_leaves + [()]
        parent: list[int] = [-1] * (n_leaves + 1)
        uplink: list[Link | None] = [None] * (n_leaves + 1)
        children: list[list[int]] = [[] for _ in range(n_leaves + 1)]
        root = n_leaves
        leaf_cursor = 0

        def visit(
            node: "RegionSpec | ClusterSpec", parent_idx: int
        ) -> None:
            nonlocal leaf_cursor
            path = paths[parent_idx] + (node.name,)
            if isinstance(node, ClusterSpec):
                idx = leaf_cursor
                leaf_cursor += 1
                names[idx] = node.name
                paths[idx] = path
            else:
                idx = len(names)
                names.append(node.name)
                paths.append(path)
                parent.append(-1)
                uplink.append(None)
                children.append([])
            parent[idx] = parent_idx
            uplink[idx] = node.uplink
            children[parent_idx].append(idx)
            if isinstance(node, RegionSpec):
                for child in node.children:
                    visit(child, idx)

        for top in spec.children:
            visit(top, root)
        assert leaf_cursor == n_leaves

        self.n_leaves = n_leaves
        self.root = root
        self.node_names: list[str] = names
        self.parent: list[int] = parent
        self.children: list[tuple[int, ...]] = [tuple(c) for c in children]
        self.leaf_paths: list[ClusterPath] = [
            ClusterPath(paths[i]) for i in range(n_leaves)
        ]
        self._paths = paths
        # Child→parent uplink edges, one per non-root node. Symmetric: both
        # directions share the physical port. The *default* link of the hop
        # topology is inert on purpose — every real edge is explicit, so a
        # submit between non-adjacent nodes (a routing bug) would cross a
        # zero link instead of silently inventing a direct WAN path, and
        # the WAN manager's energy-bearing-default channel materialisation
        # cannot fabricate leaf-to-leaf channels that do not exist.
        links: dict[tuple[str, str], Link] = {}
        default = spec.topology.default
        for idx in range(len(names)):
            up = parent[idx]
            if up < 0:
                continue
            edge = uplink[idx] if uplink[idx] is not None else default
            assert edge is not None
            links[(names[idx], names[up])] = edge
        self.hop_topology = InterClusterTopology(
            links=links, default=Link(), symmetric=True
        )
        # Leaf ids under each node, in leaf order (pre-order ⇒ sorted).
        leaves_under: list[tuple[int, ...]] = [()] * len(names)

        def collect(idx: int) -> tuple[int, ...]:
            if idx < n_leaves:
                leaves_under[idx] = (idx,)
            else:
                acc: list[int] = []
                for child in self.children[idx]:
                    acc.extend(collect(child))
                leaves_under[idx] = tuple(acc)
            return leaves_under[idx]

        collect(root)
        self.leaves_under: list[tuple[int, ...]] = leaves_under
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {}
        # Each leaf's ancestor-or-self chain, leaf first and root last: the
        # nodes whose live counters move when a task enters or leaves it.
        self.leaf_ancestors: list[tuple[int, ...]] = [
            self.route(leaf, root) for leaf in range(n_leaves)
        ]

    @property
    def n_nodes(self) -> int:
        """Total node count: leaves + interior nodes + the root."""
        return len(self.node_names)

    def is_leaf(self, node: int) -> bool:
        """True for shard-backed nodes (ids below ``n_leaves``)."""
        return node < self.n_leaves

    def depth(self, node: int) -> int:
        """Levels below the root (the root itself is depth 0)."""
        return len(self._paths[node])

    def path_of(self, node: int) -> tuple[str, ...]:
        """Name path of any node (empty for the root)."""
        return self._paths[node]

    def route(self, origin: int, destination: int) -> tuple[int, ...]:
        """Node-id path origin → LCA → destination, endpoints included.

        Cached — a federation routes the same leaf pairs millions of
        times. The route never leaves the LCA's subtree: it climbs
        origin's parent chain and descends destination's, touching no
        sibling subtrees.
        """
        key = (origin, destination)
        route = self._routes.get(key)
        if route is None:
            chain = []
            idx = origin
            while idx != -1:
                chain.append(idx)
                idx = self.parent[idx]
            position = {node: i for i, node in enumerate(chain)}
            down: list[int] = []
            idx = destination
            while idx not in position:
                down.append(idx)
                idx = self.parent[idx]
            route = tuple(chain[: position[idx] + 1] + down[::-1])
            self._routes[key] = route
        return route

    def edge_link(self, a: int, b: int) -> Link:
        """The physical uplink joining two *adjacent* nodes."""
        return self.hop_topology.link_between(
            self.node_names[a], self.node_names[b]
        )

    def path_transfer_energy(
        self, origin: int, destination: int, megabytes: float
    ) -> float:
        """J/MB payload cost summed over every uplink hop of the route."""
        if origin == destination:
            return 0.0
        route = self.route(origin, destination)
        return sum(
            self.edge_link(a, b).transfer_energy(megabytes)
            for a, b in zip(route, route[1:])
        )


@dataclasses.dataclass
class HierarchyView:
    """Live tree state a tree-capable gateway policy may consult.

    Every field is a live reference the engine updates in place.
    ``in_system`` and ``alive`` are indexed by tree node: routed-but-not-
    terminal tasks and live (not failed) machines under that node.
    ``inflight_mb`` is indexed by leaf: WAN megabytes routed toward the leaf
    and not yet delivered or cancelled (per leaf only, because a per-node
    float total would round differently from a leaf-order sum).
    """

    tree: FederationTree
    in_system: Sequence[int]
    alive: Sequence[int]
    inflight_mb: Sequence[float]


class HierarchicalFederatedSimulator(FederatedSimulator):
    """Federated engine whose WAN is a tree of shared uplinks.

    Subclasses the flat engine and overrides exactly the routing surface:
    gateway arrivals walk the tree hop by hop (each hop a WAN transfer on
    the child↔parent channel), relay deliveries re-submit the next hop,
    and per-leaf attempted/delivered/cancelled counters feed the
    :class:`~repro.metrics.rollup.TreeRollup` attached to the result.
    """

    def __init__(
        self,
        spec: FederationSpec,
        eet: Any,
        workload: Any,
        **kwargs: Any,
    ) -> None:
        if spec.children is None:
            raise ConfigurationError(
                "HierarchicalFederatedSimulator needs a hierarchical "
                "FederationSpec (children set); flat federations run on "
                "FederatedSimulator"
            )
        self._tree = FederationTree(spec)
        n = len(spec.clusters)
        # Per-leaf WAN conservation counters: attempted == delivered +
        # cancelled_in_flight at every node once the run drains (checked by
        # the property suite at every interior node via the rollup).
        self._inflight_mb: list[float] = [0.0] * n
        self._wan_attempted: list[int] = [0] * n
        self._wan_delivered: list[int] = [0] * n
        self._wan_cancelled: list[int] = [0] * n
        super().__init__(spec, eet, workload, **kwargs)
        tree = self._tree
        self._in_system: list[int] = [0] * tree.n_nodes
        self._alive: list[int] = [
            sum(len(self.shards[leaf].cluster.machines) for leaf in leaves)
            for leaves in tree.leaves_under
        ]
        self._ctx.hierarchy = HierarchyView(
            tree=tree,
            in_system=self._in_system,
            alive=self._alive,
            inflight_mb=self._inflight_mb,
        )
        for shard in self.shards:
            collector = shard.collector
            collector.on_terminal = self._count_terminal(
                tree.leaf_ancestors[shard.index], collector.on_terminal
            )

    # -- construction hooks ---------------------------------------------------------

    def _make_gateway(self) -> "GatewayPolicy":
        gateway = super()._make_gateway()
        if not gateway.supports_hierarchy:
            raise ConfigurationError(
                f"gateway {gateway.name!r} does not support hierarchical "
                "federations: it compares clusters over direct links the "
                "tree does not have. Use a tree-capable policy "
                "(e.g. TREE_PRESSURE) or flatten the federation."
            )
        return gateway

    def _make_wan(self, wan_seed: int | None) -> WanManager:
        # The engine's working topology is the tree's hop topology (uplink
        # edges over the full node namespace), not the spec's: WAN routes,
        # gateway context and energy accounting all see tree edges.
        self.topology = self._tree.hop_topology
        return WanManager(
            self.topology,
            self.events,
            list(self._tree.node_names),
            seed=wan_seed,
        )

    @property
    def tree(self) -> FederationTree:
        """The compiled federation tree."""
        return self._tree

    # -- live per-node counters -------------------------------------------------------

    def _count_terminal(
        self, chain: tuple[int, ...], then: Callable[["Task"], None] | None
    ) -> Callable[["Task"], None]:
        """A leaf collector's terminal hook: leave every ancestor, then
        call the hook already installed there (the feedback gateway's)."""
        in_system = self._in_system

        def on_terminal(task: "Task") -> None:
            for node in chain:
                in_system[node] -= 1
            if then is not None:
                then(task)

        return on_terminal

    def _on_alive_change(self, shard: int, delta: int) -> None:
        for node in self._tree.leaf_ancestors[shard]:
            self._alive[node] += delta

    # -- event routing ----------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        cluster_id = event.cluster
        if type(cluster_id) is tuple:
            # A relay hop landed on an interior node; the tuple is the
            # remaining node path (current node first).
            self._on_relay(event.payload, cluster_id)
            return
        if cluster_id is not None and event.type is _ARRIVAL:
            # Final hop: the offloaded task reached its destination leaf.
            task = event.payload
            transfer = self._transfers.pop(task.id, None)
            if transfer is not None:
                self._wan.on_delivered(transfer, self.clock._now)
                self._wan.release(transfer)
            assert isinstance(cluster_id, int)
            self._inflight_mb[cluster_id] -= task.task_type.data_in
            self._wan_delivered[cluster_id] += 1
            self.shards[cluster_id]._on_arrival(task)
            return
        super()._dispatch(event)

    def _on_relay(self, task: "Task", path: tuple[int, ...]) -> None:
        """A store-and-forward hop finished; launch the next one."""
        transfer = self._transfers.pop(task.id, None)
        if transfer is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"relay delivery for task {task.id} without a tracked "
                "WAN transfer"
            )
        self._wan.on_delivered(transfer, self.clock._now)
        self._wan.release(transfer)
        self._forward(task, path)

    def _forward(self, task: "Task", route: tuple[int, ...]) -> None:
        """Ship a task along ``route`` (``route[0]`` = node it is at now).

        Each hop is one WAN transfer on the child↔parent uplink channel.
        Intermediate hops stamp the remaining node path on their delivery
        event; the final hop stamps the destination leaf id as a plain
        ``int``, the flat wire form. Zero-delay hops return no transfer
        handle and are crossed immediately within this call.
        """
        now = self.clock._now
        last = len(route) - 1
        i = 1
        while True:
            src, dst = route[i - 1], route[i]
            tag: int | tuple[int, ...] = (
                dst if i == last else tuple(route[i:])
            )
            transfer = self._wan.submit(task, src, dst, now, tag=tag)
            if transfer is not None:
                self._transfers[task.id] = transfer
                return
            if i == last:
                # The whole remaining path crossed instantly.
                self._inflight_mb[dst] -= task.task_type.data_in
                self._wan_delivered[dst] += 1
                self.shards[dst]._on_arrival(task)
                return
            i += 1

    # -- the gateway layer -------------------------------------------------------------

    def _on_gateway_arrival(self, task: "Task") -> None:
        origin = task.origin_cluster
        if origin is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"task {task.id} reached the gateway without an origin cluster"
            )
        ctx = self._ctx
        ctx.now = self.clock._now
        ctx.task = task
        ctx.origin = origin
        destination = self.gateway.choose_cluster(ctx)
        if not 0 <= destination < len(self.shards):
            raise SimulationStateError(
                f"{self.gateway.name}: cluster index {destination} out of "
                f"range for {len(self.shards)} leaf clusters"
            )
        task.cluster = destination
        self._routing[origin][destination] += 1
        shard = self.shards[destination]
        shard.routed += 1
        for node in self._tree.leaf_ancestors[destination]:
            self._in_system[node] += 1
        if destination == origin:
            shard._on_arrival(task)
            return
        self._offloaded += 1
        self._wan_attempted[destination] += 1
        self._inflight_mb[destination] += task.task_type.data_in
        self._forward(task, self._tree.route(origin, destination))

    def _on_deadline(self, task: "Task") -> None:
        if task.status is _CREATED and task.id in self._transfers:
            # Still hopping the tree: the WAN cancellation itself (channel
            # bookkeeping, terminal recording) is the flat path's job; only
            # the per-leaf conservation counters are ours.
            leaf = task.cluster
            assert isinstance(leaf, int)
            self._inflight_mb[leaf] -= task.task_type.data_in
            self._wan_cancelled[leaf] += 1
        super()._on_deadline(task)

    # -- results -----------------------------------------------------------------------

    def _leaf_stats(self, index: int) -> dict[str, float]:
        """The per-leaf numbers the tree rollup aggregates."""
        shard = self.shards[index]
        counts = shard.collector.counts()
        return {
            "routed": float(shard.routed),
            "completed": float(counts["completed"]),
            "missed": float(counts["missed"]),
            "cancelled": float(counts["cancelled"]),
            "wan_attempted": float(self._wan_attempted[index]),
            "wan_delivered": float(self._wan_delivered[index]),
            "wan_cancelled_in_flight": float(self._wan_cancelled[index]),
            "machines": float(len(shard.cluster.machines)),
        }

    def tree_rollup(self) -> TreeRollup:
        """Current per-level rollup (callable mid-run or at the end)."""
        return TreeRollup.from_leaves(
            self._tree.leaf_paths,
            [self._leaf_stats(i) for i in range(len(self.shards))],
        )

    def _build_result(self) -> FederatedSimulationResult:
        base = super()._build_result()
        wires = [p.wire for p in self._tree.leaf_paths]
        all_tasks: list["Task"] = []
        for shard in self.shards:
            all_tasks.extend(shard.collector.tasks())
        return dataclasses.replace(
            base,
            # Routing keys become full leaf paths: globally unambiguous,
            # and they make the level structure visible in reports.
            routing=routing_table(wires, self._routing),
            # The energy split prices each offload over its *tree path* —
            # every uplink hop pays its own J/MB — instead of a direct
            # link the topology does not have.
            energy_split=offload_energy_split(
                all_tasks,
                self.spec.names,
                self.topology,
                energy_fn=self._tree.path_transfer_energy,
            ),
            tree=self.tree_rollup(),
        )
