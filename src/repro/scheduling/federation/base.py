"""Gateway (inter-cluster offloading) policy framework.

A federated simulation (:mod:`repro.federation`) runs two decision layers:
the *gateway* decides **which cluster** receives each arriving task, then the
cluster's local scheduling policy decides **which machine** runs it. This
module is the gateway half: the read-only view a gateway policy receives
(:class:`GatewayContext`), the shard surface it may consult
(:class:`ShardView`), and the :class:`GatewayPolicy` base class every
offloading policy subclasses.

Gateway decisions are *routing* decisions — the policy returns a cluster
index and must not mutate tasks or shards. Offloaded tasks pay the WAN
transfer delay of :class:`repro.net.topology.InterClusterTopology` before
entering the destination cluster's batch queue.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ...federation.hierarchy import HierarchyView
    from ...machines.cluster import Cluster
    from ...net.topology import InterClusterTopology
    from ...net.wan import WanManager
    from ...tasks.task import Task

__all__ = ["ShardView", "GatewayContext", "GatewayPolicy", "shard_pressure"]


@runtime_checkable
class ShardView(Protocol):
    """What a gateway policy may read about one cluster shard.

    :class:`repro.federation.shard.ClusterShard` satisfies this protocol
    structurally; tests can substitute a lightweight stub.
    """

    @property
    def index(self) -> int:
        """Position of the shard in the federation (the routing target)."""
        ...  # pragma: no cover - protocol

    @property
    def name(self) -> str:
        """Cluster name (the topology's node label)."""
        ...  # pragma: no cover - protocol

    @property
    def weight(self) -> float:
        """Configured arrival/traffic weight of the cluster."""
        ...  # pragma: no cover - protocol

    @property
    def cluster(self) -> "Cluster":
        """The machine population (ready times, EETs, idle index)."""
        ...  # pragma: no cover - protocol

    @property
    def in_system(self) -> int:
        """Tasks routed to this shard that have not reached a terminal state.

        Counts WAN in-transit, batch-queued, machine-queued and running
        tasks — the shard's total outstanding load, maintained in O(1).
        """
        ...  # pragma: no cover - protocol


def shard_pressure(shard: ShardView) -> float:
    """Outstanding tasks per live machine (``inf`` when the shard is dark).

    The load signal the stock gateway policies share: cheap (O(1)),
    monotone in backlog, and comparable across clusters of different sizes.
    Real shards answer through their own ``pressure()`` (same arithmetic,
    fewer property hops — this is called several times per routing
    decision); protocol stubs take the generic path.
    """
    try:
        return shard.pressure()  # type: ignore[attr-defined]
    except AttributeError:
        pass
    cluster = shard.cluster
    alive = len(cluster.machines) - cluster.state.n_down
    if alive <= 0:
        return float("inf")
    return shard.in_system / alive


@dataclass
class GatewayContext:
    """Everything a gateway policy may consult for one routing decision.

    The federation reuses one context object across decisions (``now``,
    ``task`` and ``origin`` are updated in place), so treat it as a
    read-only view valid only for the duration of the current
    ``choose_cluster`` call.

    Attributes
    ----------
    now:
        Current simulation time.
    task:
        The arriving task (still CREATED; not yet in any queue).
    origin:
        Index of the shard the task arrived at.
    shards:
        All cluster shards, in federation order.
    topology:
        Inter-cluster WAN links (``wan_delay(src, dst, megabytes)``).
    rng:
        Seeded generator for stochastic gateways (random-split).
    wan:
        Live WAN link state (:class:`repro.net.wan.WanManager`) — the
        congestion and energy signals. ``None`` in lightweight test
        harnesses; the signal methods below then fall back to the static
        topology numbers.
    migrations:
        Live source × destination mid-queue migration counters (the
        rebalancer's matrix, shard-index keyed), or ``None`` when the run
        has no rebalancer. Lets a gateway see how often its routing
        decisions are being corrected after the fact — e.g. back off a
        destination the rebalancer keeps draining.
    hierarchy:
        The federation tree with its live per-node task and live-machine
        counters and per-leaf WAN payload
        (:class:`repro.federation.hierarchy.HierarchyView`) when the run
        is hierarchical; ``None`` on flat federations. Tree-capable
        gateways (``supports_hierarchy``) read subtree pressure from this
        view to pick subtrees level by level.
    """

    now: float
    task: "Task"
    origin: int
    shards: Sequence[ShardView]
    topology: "InterClusterTopology"
    rng: np.random.Generator
    wan: "WanManager | None" = None
    migrations: "Sequence[Sequence[int]] | None" = None
    hierarchy: "HierarchyView | None" = None

    def migrations_between(self, source: int, destination: int) -> int:
        """Tasks migrated source → destination so far (0 without a rebalancer)."""
        if self.migrations is None:
            return 0
        return self.migrations[source][destination]

    def wan_delay_to(self, destination: int) -> float:
        """Static (contention-blind) transfer delay of the current task."""
        return self.topology.wan_delay(
            self.shards[self.origin].name,
            self.shards[destination].name,
            self.task.task_type.data_in,
        )

    def estimated_wan_delay_to(self, destination: int) -> float:
        """Backlog-aware expected in-WAN time of the current task.

        On an uncontended (``"none"``) link — or without live WAN state —
        this equals :meth:`wan_delay_to`, so congestion-aware policies
        degrade exactly to their PR-3 behaviour when contention is off.
        """
        wan = self.wan
        if wan is None:
            return self.wan_delay_to(destination)
        try:
            # Index-keyed fast path: shard indices ARE the WAN manager's
            # name-table indices (both come from federation order).
            return wan.estimated_delay_by_index(
                self.origin, destination, self.task.task_type.data_in, self.now
            )
        except AttributeError:  # a test double exposing only the name API
            return wan.estimated_delay(
                self.shards[self.origin].name,
                self.shards[destination].name,
                self.task.task_type.data_in,
                self.now,
            )

    def link_queue_depth(self, destination: int) -> int:
        """Transfers occupying/awaiting the origin→destination link, now."""
        if self.wan is None:
            return 0
        return self.wan.queue_depth(
            self.shards[self.origin].name, self.shards[destination].name
        )

    def wan_energy_to(self, destination: int) -> float:
        """Joules the WAN would charge to ship the current task there."""
        if destination == self.origin:
            return 0.0
        link = self.topology.link_between(
            self.shards[self.origin].name, self.shards[destination].name
        )
        return link.transfer_energy(self.task.task_type.data_in)


class GatewayPolicy(abc.ABC):
    """Common interface of every inter-cluster offloading policy."""

    #: Registry name (e.g. "LEAST_LOADED"); set by subclasses.
    name: ClassVar[str] = ""
    #: Short human-readable description for the CLI / docs.
    description: ClassVar[str] = ""
    #: Whether ``choose_cluster`` reads live shard/WAN state (pressure,
    #: completion times, link backlog). State-blind policies (weights +
    #: seeded draws only) can be evaluated by a coordinator that has not
    #: synchronised with the shards — the property parallel federated
    #: execution needs for bit-identical windowed runs.
    reads_shard_state: ClassVar[bool] = True
    #: Whether the federation should call :meth:`record_outcome` for every
    #: terminal task. Learning policies (the adaptive gateway) opt in; the
    #: default keeps the stock policies free of per-task callback cost.
    wants_feedback: ClassVar[bool] = False
    #: Whether ``choose_cluster`` understands hierarchical federations
    #: (reads ``ctx.hierarchy`` and routes level by level). Flat policies
    #: compare leaves pairwise over direct links — links a tree topology
    #: does not have — so the hierarchy engine refuses them at
    #: construction rather than silently mis-pricing every WAN signal.
    supports_hierarchy: ClassVar[bool] = False

    @abc.abstractmethod
    def choose_cluster(self, ctx: GatewayContext) -> int:
        """Return the index of the shard that should receive ``ctx.task``."""

    def record_outcome(self, task: "Task", now: float) -> None:
        """Observe a task reaching a terminal state (hook; default no-op).

        Called once per terminal task — completed, deadline-missed, or
        cancelled in the WAN — when :attr:`wants_feedback` is true, after
        the owning shard's collector recorded it. Policies must treat the
        task as read-only.
        """

    def reset(self) -> None:
        """Clear any internal state (between simulation runs)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
