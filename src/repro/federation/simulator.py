"""The federated simulation kernel: N cluster shards, one heap, one clock.

``FederatedSimulator`` hosts multiple :class:`~repro.federation.shard.ClusterShard`
engines under a single future-event list and simulation clock. Arriving tasks
hit the **gateway layer** first: a registered gateway policy
(:mod:`repro.scheduling.federation`) picks the destination cluster; offloaded
tasks pay the WAN transfer delay of the federation's
:class:`~repro.net.topology.InterClusterTopology` before entering the
destination's batch queue, where the cluster's *local* policy maps them to
machines exactly as in a single-cluster run.

Event flow per task::

    arrival ──▶ gateway policy ──▶ [WAN transfer] ──▶ batch queue ──▶ local
    (origin      (which cluster?)    (offloads only)    (destination    policy
     cluster)                                            shard)         ──▶ machine

Routing uses the ``cluster`` id stamped on every event: shard-scheduled
events (completions, deliveries, failures, repairs) carry their shard index
and go straight back to the owning shard's handlers; federation-level events
(initial arrivals, deadlines) carry ``None`` and are handled here.

When the spec carries a :class:`~repro.federation.spec.MigrationSpec`, a
:class:`~repro.federation.migration.Rebalancer` additionally re-homes tasks
*mid-queue*: periodic ``TASK_MIGRATION`` ticks (``cluster=None``) evict
tasks from saturated shards' batch queues and ship them over the same WAN
channels offloads use; the resulting deliveries are ``TASK_MIGRATION``
events carrying the destination shard id.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..core.clock import SimulationClock
from ..core.errors import SchedulingError, SimulationStateError
from ..core.event_queue import EventQueue
from ..core.events import Event, EventType
from ..core.rng import derive_seed, make_rng, spawn
from ..machines.cluster import Cluster
from ..machines.eet import EETMatrix
from ..machines.execution import ExecutionTimeModel
from ..machines.failures import FailureModel
from ..machines.machine import Machine
from ..machines.machine_queue import UNBOUNDED
from ..machines.power import PowerProfile
from ..metrics.collector import SummaryMetrics
from ..metrics.records import RecordsSource
from ..metrics.rollup import (
    MigrationStats,
    global_energy,
    global_summary,
    offload_energy_split,
    routing_table,
)
from ..net.wan import TransferPhase, WanManager, WanTransfer
from ..scheduling.federation.base import GatewayContext, GatewayPolicy
from ..scheduling.federation.registry import create_gateway
from ..scheduling.overhead import SchedulingOverhead
from ..scheduling.registry import create_scheduler
from ..tasks.task import Task, TaskStatus
from ..tasks.workload import Workload
from .migration import Rebalancer
from .result import FederatedSimulationResult
from .shard import ClusterShard
from .spec import FederationSpec

__all__ = ["FederatedSimulator"]

Observer = Callable[["FederatedSimulator", Event], None]

# Module-bound enum members: the routing loop tests several per event, and
# Enum class attribute access costs ~10x a global load on CPython 3.11.
_ARRIVAL = EventType.TASK_ARRIVAL
_COMPLETION = EventType.TASK_COMPLETION
_DEADLINE = EventType.TASK_DEADLINE
_LINK_TRANSFER = EventType.LINK_TRANSFER
_MIGRATION = EventType.TASK_MIGRATION
_CROSS_TRAFFIC = EventType.CROSS_TRAFFIC
_CONTROL = EventType.CONTROL
_CREATED = TaskStatus.CREATED


class FederatedSimulator:
    """Discrete-event simulator for one federated (multi-cluster) run."""

    def __init__(
        self,
        spec: FederationSpec,
        eet: EETMatrix,
        workload: Workload,
        *,
        seed: int | None | np.random.Generator = None,
        drop_on_deadline: bool = True,
        execution_model: ExecutionTimeModel | None = None,
        queue_capacity: float = UNBOUNDED,
        enable_network: bool = False,
        failure_model: FailureModel | None = None,
        scheduling_overhead: SchedulingOverhead | None = None,
        power_profiles: dict[str, PowerProfile] | None = None,
        memory_capacities: dict[str, float] | None = None,
        network: dict[str, tuple[float, float]] | None = None,
        default_scheduler: str = "MECT",
        default_scheduler_params: dict[str, Any] | None = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        workload.validate_against_eet(eet)
        self.spec = spec
        self.workload = workload
        self.drop_on_deadline = drop_on_deadline
        self.topology = spec.topology
        self.observers = list(observers)

        self.clock = SimulationClock()
        self.events = EventQueue()

        # Independent substreams: origin assignment, gateway draws, one per
        # shard — so adding a draw to one component never perturbs another,
        # and sweeping the gateway policy never changes where tasks arrive.
        wan_seed: int | None
        if isinstance(seed, np.random.Generator):
            # Spawn keys are sequential, so asking for one extra child
            # (the WAN cross-traffic root) leaves the first n+2 substreams
            # exactly where pre-cross-traffic builds drew them.
            children = spawn(seed, len(spec.clusters) + 3)
            origins_rng, self._gateway_rng = children[0], children[1]
            shard_rngs = children[2:-1]
            wan_seed = int(children[-1].integers(0, 2**31 - 1))
        else:
            origins_rng = make_rng(derive_seed(seed, "federation", "origins"))
            self._gateway_rng = make_rng(
                derive_seed(seed, "federation", "gateway")
            )
            shard_rngs = [
                make_rng(derive_seed(seed, "federation", "shard", i))
                for i in range(len(spec.clusters))
            ]
            wan_seed = derive_seed(seed, "federation", "crosstraffic")

        self.gateway = self._make_gateway()
        self.gateway.reset()

        self.shards: list[ClusterShard] = []
        for i, cspec in enumerate(spec.clusters):
            cluster = Cluster.build(
                eet,
                cspec.machine_counts,
                power_profiles=power_profiles or {},
                queue_capacity=(
                    queue_capacity
                    if cspec.queue_capacity is None
                    else cspec.queue_capacity
                ),
                memory_capacities=memory_capacities or {},
                network=network or {},
            )
            # Qualify machine names so federation-wide reports stay unique
            # (two shards may both have a "CPU-0").
            for machine in cluster:
                machine.name = f"{cspec.name}:{machine.name}"
            scheduler = (
                create_scheduler(cspec.scheduler, **cspec.scheduler_params)
                if cspec.scheduler is not None
                else create_scheduler(
                    default_scheduler, **(default_scheduler_params or {})
                )
            )
            self.shards.append(
                ClusterShard(
                    index=i,
                    name=cspec.name,
                    cluster=cluster,
                    scheduler=scheduler,
                    federation=self,
                    clock=self.clock,
                    events=self.events,
                    rng=shard_rngs[i],
                    weight=cspec.weight,
                    drop_on_deadline=drop_on_deadline,
                    execution_model=execution_model,
                    queue_capacity=(
                        queue_capacity
                        if cspec.queue_capacity is None
                        else cspec.queue_capacity
                    ),
                    enable_network=enable_network,
                    failure_model=failure_model,
                    scheduling_overhead=scheduling_overhead,
                )
            )

        local_names = {shard.scheduler.name for shard in self.shards}
        self.scheduler_name = (
            local_names.pop() if len(local_names) == 1 else "mixed"
        )

        n = len(self.shards)
        self._routing = [[0] * n for _ in range(n)]
        self._offloaded = 0
        # WAN link channels: contention disciplines, per-link energy, and
        # the cancellation handles for tasks still crossing the WAN.
        self._wan = self._make_wan(wan_seed)
        self._transfers: dict[int, WanTransfer] = {}
        # Mid-queue migration: a periodic rebalance pass sharing the WAN
        # channels above. None when the spec does not ask for it — the
        # event stream is then bit-identical to a migration-free build.
        self._rebalancer = (
            Rebalancer(self, spec.migration)
            if spec.migration is not None
            else None
        )
        self._events_processed = 0
        self._finished = False
        self._result: FederatedSimulationResult | None = None
        self._ctx = GatewayContext(
            now=0.0,
            task=None,  # type: ignore[arg-type]  (set before every decision)
            origin=0,
            shards=self.shards,
            topology=self.topology,
            rng=self._gateway_rng,
            wan=self._wan,
            # Live reference: the gateway sees every migration the moment
            # the rebalancer books it.
            migrations=(
                None
                if self._rebalancer is None
                else self._rebalancer.matrix_counts
            ),
        )
        if self.gateway.wants_feedback:
            # Every terminal task funnels through exactly one shard
            # collector (completions, deadline misses, in-WAN
            # cancellations), so hooking record_terminal there pays the
            # learning gateway for precisely the tasks it routed.
            def _feed_back(task: Task) -> None:
                self.gateway.record_outcome(task, self.clock._now)

            for shard in self.shards:
                shard.collector.on_terminal = _feed_back

        # Origin assignment: one vectorised draw, a pure function of the
        # federation seed — identical across gateway/local-policy sweeps.
        if len(workload) > 0:
            weights = np.asarray(spec.arrival_weights(), dtype=float)
            origins = origins_rng.choice(n, size=len(workload), p=weights / weights.sum())
            initial: list[Event] = []
            inf = float("inf")
            for task, origin in zip(workload, origins):
                task.origin_cluster = int(origin)
                initial.append(
                    Event(task.arrival_time, EventType.TASK_ARRIVAL, task)
                )
                if drop_on_deadline and task.deadline != inf:
                    initial.append(
                        Event(task.deadline, EventType.TASK_DEADLINE, task)
                    )
            self.events.push_many(initial)
            if failure_model is not None:
                for shard in self.shards:
                    shard.start_failure_process()
            if self._rebalancer is not None:
                self._rebalancer.schedule_first_tick()

    # -- construction hooks ---------------------------------------------------------

    def _make_gateway(self) -> GatewayPolicy:
        """Build the gateway policy (hook for the hierarchical engine)."""
        return create_gateway(self.spec.gateway, **self.spec.gateway_params)

    def _make_wan(self, wan_seed: int | None) -> WanManager:
        """Build the WAN manager (hook for the hierarchical engine).

        Overrides may reassign ``self.topology`` before constructing the
        manager; the gateway context is built afterwards, so it picks up
        whatever topology this hook leaves behind.
        """
        return WanManager(
            self.topology, self.events, self.spec.names, seed=wan_seed
        )

    def _on_alive_change(self, shard: int, delta: int) -> None:
        """Shard ``shard`` gained ``delta`` live machines (hook; the flat
        engine keeps no aggregate to update)."""

    # -- public control surface ----------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock._now

    @property
    def is_finished(self) -> bool:
        return self._finished

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def recorded(self) -> int:
        """Terminal tasks across all shards."""
        return sum(shard.collector.recorded for shard in self.shards)

    @property
    def wan(self) -> WanManager:
        """Live WAN link state (shared by gateway offloads and migrations)."""
        return self._wan

    @property
    def rebalancer(self) -> Rebalancer | None:
        """The mid-queue migration engine, when the spec enables one."""
        return self._rebalancer

    def track_transfer(self, transfer: WanTransfer) -> None:
        """Keep the cancellation handle for a task crossing the WAN."""
        self._transfers[transfer.task.id] = transfer

    def all_tasks_terminal(self) -> bool:
        """True once every workload task reached a terminal state."""
        return self.recorded >= len(self.workload)

    def next_event_time(self) -> float | None:
        """Timestamp of the next pending event (None when drained)."""
        return self.events.next_time()

    def step(self) -> Event | None:
        """Process exactly one event; None when the federation is done."""
        if self._finished:
            return None
        if not self.events:
            self._finish()
            return None
        event = self.events.pop()
        self.clock.advance_to(event.time)
        self._dispatch(event)
        self._events_processed += 1
        if self.observers:
            for observer in self.observers:
                observer(self, event)
        if not self.events:
            self._finish()
        return event

    def run(self, until: float | None = None) -> FederatedSimulationResult:
        """Run to completion (or simulated time *until*) and return results."""
        if until is None:
            if self.observers:
                while not self._finished:
                    self.step()
            else:
                # Hot path: step() without the per-event call layer and
                # observer check. Semantics identical to step().
                self._events_processed += self.events.dispatch_all(
                    self.clock, self._dispatch
                )
                if not self._finished:
                    self._finish()
            assert self._result is not None
            return self._result
        while not self._finished:
            next_time = self.events.next_time()
            if next_time is None:
                break
            if next_time > until:
                self.clock.advance_to(until)
                break
            self.step()
        return self._build_result()

    def result(self) -> FederatedSimulationResult:
        """Result of a finished run."""
        if self._result is None:
            raise SimulationStateError(
                "simulation has not finished; call run() first"
            )
        return self._result

    # -- event routing ---------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        # Flat federations never stamp tuple cluster paths (single-element
        # paths are always their int form); the hierarchy engine intercepts
        # tuples in its own _dispatch before delegating here.
        cluster_id: int | None = event.cluster  # type: ignore[assignment]
        etype = event.type
        if cluster_id is None:
            # Federation-level event: a task arriving at the gateway, or a
            # deadline firing wherever the task currently is.
            if etype is _ARRIVAL:
                self._on_gateway_arrival(event.payload)
            elif etype is _DEADLINE:
                self._on_deadline(event.payload)
            elif etype is _LINK_TRANSFER:
                # A WAN serialisation milestone: the owning link channel
                # frees the pipe, delivers, and starts whatever is queued.
                WanManager.on_link_event(event, self.clock._now)
            elif etype is _MIGRATION:
                # The rebalance clock: run one mid-queue migration pass.
                if self._rebalancer is not None:
                    self._rebalancer.on_tick(self.clock._now)
            elif etype is _CROSS_TRAFFIC:
                # A WAN link entered its next background-utilisation epoch.
                WanManager.on_cross_traffic(event, self.clock._now)
            elif etype is _CONTROL:  # pragma: no cover - hook
                pass
            else:  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"federation-level event of type {event.type} has no owner"
                )
        elif etype is _COMPLETION:
            # The most common shard-owned event: skip the shard's own
            # dispatch chain and call the handler directly.
            self.shards[cluster_id]._on_completion(event.payload)
        elif etype is _ARRIVAL:
            # A WAN transfer completed: the task reaches its destination.
            transfer = self._transfers.pop(event.payload.id, None)
            if transfer is not None:
                self._wan.on_delivered(transfer, self.clock._now)
                self._wan.release(transfer)
            self.shards[cluster_id]._on_arrival(event.payload)
        elif etype is _MIGRATION:
            # A migrated task survived the WAN: re-enqueue at its new home.
            task = event.payload
            transfer = self._transfers.pop(task.id, None)
            if transfer is None:  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"migration delivery for task {task.id} without a "
                    "tracked WAN transfer"
                )
            self._wan.on_delivered(transfer, self.clock._now)
            assert self._rebalancer is not None
            self._rebalancer.record_delivered(task, transfer)
            self._wan.release(transfer)
            self.shards[cluster_id]._on_arrival(task)
        else:
            self.shards[cluster_id]._dispatch(event)

    # -- the gateway layer -------------------------------------------------------------

    def _on_gateway_arrival(self, task: Task) -> None:
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
            raise SchedulingError(
                f"{self.gateway.name}: cluster index {destination} out of "
                f"range for {len(self.shards)} clusters"
            )
        task.cluster = destination
        self._routing[origin][destination] += 1
        shard = self.shards[destination]
        shard.routed += 1
        if destination != origin:
            self._offloaded += 1
            transfer = self._wan.submit(
                task, origin, destination, self.clock._now
            )
            if transfer is not None:
                self._transfers[task.id] = transfer
                return
        shard._on_arrival(task)

    def _on_deadline(self, task: Task) -> None:
        if task.status.is_terminal:
            return  # completed exactly at (or before) the deadline
        cluster_id = task.cluster
        if cluster_id is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"deadline fired for task {task.id} before any gateway decision"
            )
        shard = self.shards[cluster_id]
        if task.status is _CREATED:
            # Still crossing the WAN: the transfer is abandoned and the task
            # is cancelled (deadline before any mapping decision), accounted
            # to its destination cluster. The link channel reclaims the pipe
            # for queued transfers and charges only the payload fraction
            # that actually crossed. Offloads and migrations share this
            # path; migrations additionally bump the rebalancer's
            # cancelled-in-flight counter so attempted == delivered +
            # cancelled holds at the end of the run.
            transfer = self._transfers.pop(task.id, None)
            if transfer is not None:
                # A transfer cancelled while QUEUED stays lazily referenced
                # by its FIFO channel until _start_next skips it, so only
                # further-along phases may return their slot to the pool.
                in_fifo = transfer.phase is TransferPhase.QUEUED
                self._wan.cancel(transfer, self.now)
                if (
                    transfer.kind is EventType.TASK_MIGRATION
                    and self._rebalancer is not None
                ):
                    self._rebalancer.record_cancelled(task)
                if not in_fifo:
                    self._wan.release(transfer)
            task.cancel(self.now)
            shard.collector.record_terminal(task)
            shard.type_stats.record(task.task_type.name, False)
            return
        shard._on_deadline(task)

    # -- termination -------------------------------------------------------------------

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        now = self.now
        for shard in self.shards:
            shard.finalize(now)
        self._result = self._build_result()
        expected = len(self.workload)
        if self.drop_on_deadline and self.recorded != expected:
            raise SimulationStateError(
                f"conservation violated: {self.recorded} terminal tasks "
                f"out of {expected} across {len(self.shards)} clusters"
            )

    def _build_result(self) -> FederatedSimulationResult:
        now = self.now
        names = self.spec.names
        per_cluster: dict[str, SummaryMetrics] = {}
        machines: list[Machine] = []
        for shard in self.shards:
            per_cluster[shard.name] = shard.collector.summary(
                shard.cluster, end_time=now
            )
            machines.extend(shard.cluster.machines)
        summary = global_summary(
            [shard.collector for shard in self.shards], machines, end_time=now
        )
        all_tasks: list[Task] = []
        for shard in self.shards:
            all_tasks.extend(shard.collector.tasks())
        if self._rebalancer is not None:
            migrations = self._rebalancer.matrix()
            mig_stats = self._rebalancer.stats(all_tasks)
        else:
            migrations = {}
            mig_stats = MigrationStats()
        return FederatedSimulationResult(
            summary=summary,
            per_cluster=per_cluster,
            routing=routing_table(names, self._routing),
            offloaded=self._offloaded,
            wan_time_total=self._wan.total_time,
            records=RecordsSource(
                [
                    (shard.name, shard.collector, shard.cluster)
                    for shard in self.shards
                ]
            ),
            energy=global_energy(machines),
            end_time=now,
            scheduler_name=self.scheduler_name,
            gateway_name=self.gateway.name,
            events_processed=self._events_processed,
            wan_links=self._wan.usage(now),
            energy_split=offload_energy_split(
                all_tasks, names, self.topology
            ),
            migrations=migrations,
            migration_stats=mig_stats,
        )

    # -- renderer-facing state -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Live outcome counters summed across shards."""
        totals = {"completed": 0, "cancelled": 0, "missed": 0}
        for shard in self.shards:
            for key, value in shard.collector.counts().items():
                totals[key] += value
        return totals

    def remaining_arrivals(self) -> int:
        """Workload tasks whose gateway decision has not happened yet (O(n))."""
        routed = sum(shard.routed for shard in self.shards)
        return len(self.workload) - routed
