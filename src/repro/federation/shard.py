"""One cluster shard of a federated simulation.

A :class:`ClusterShard` is the single-cluster engine
(:class:`repro.core.simulator.Simulator`) re-hosted inside a federation: it
keeps its own cluster, batch queue, local scheduling policy, metrics
collector and per-type statistics — the full PR-2 vectorised hot path — but
shares the federation's event heap and clock instead of owning a loop.
Every event it schedules is stamped with its shard index (``Event.cluster``)
so the federation loop can route the event straight back to this shard's
inherited handlers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.simulator import Simulator
from ..machines.cluster import Cluster
from ..machines.execution import DeterministicExecution, ExecutionTimeModel
from ..machines.machine_queue import UNBOUNDED
from ..metrics.collector import MetricsCollector
from ..queues.batch_queue import BatchQueue
from ..scheduling.base import Scheduler, SchedulingMode
from ..scheduling.context import LiveTypeStats, SchedulingContext
from ..scheduling.overhead import SchedulingOverhead

if TYPE_CHECKING:  # pragma: no cover
    from ..core.clock import SimulationClock
    from ..core.event_queue import EventQueue
    from ..machines.failures import FailureModel
    from ..machines.machine import Machine
    from .simulator import FederatedSimulator

__all__ = ["ClusterShard"]


class ClusterShard(Simulator):
    """A :class:`Simulator` whose loop, clock and event heap live elsewhere.

    The federation owns stepping and termination; the shard contributes the
    per-cluster event handlers (arrival, completion, deadline, delivery,
    failure, repair) it inherits unchanged from :class:`Simulator` —
    including the incremental ``ClusterState`` planning arrays and the
    columnar metrics path — so per-shard scheduling work is identical to a
    standalone single-cluster run.
    """

    # Deliberately does NOT call Simulator.__init__: a shard neither owns a
    # workload (arrivals are routed in by the gateway) nor builds its own
    # clock/event queue (both are the federation's).
    def __init__(  # pylint: disable=super-init-not-called
        self,
        index: int,
        name: str,
        cluster: Cluster,
        scheduler: Scheduler,
        *,
        federation: "FederatedSimulator",
        clock: "SimulationClock",
        events: "EventQueue",
        rng: np.random.Generator,
        weight: float = 1.0,
        drop_on_deadline: bool = True,
        execution_model: ExecutionTimeModel | None = None,
        queue_capacity: float = UNBOUNDED,
        enable_network: bool = False,
        failure_model: "FailureModel | None" = None,
        scheduling_overhead: SchedulingOverhead | None = None,
    ) -> None:
        self._shard_id = index
        self.index = index
        self.name = name
        self.weight = weight
        self.cluster = cluster
        self.scheduler = scheduler
        self._federation = federation
        self.clock = clock
        self.events = events
        self.rng = rng
        self.drop_on_deadline = drop_on_deadline
        self.execution_model = execution_model or DeterministicExecution()
        self._deterministic_execution = (
            type(self.execution_model) is DeterministicExecution
        )
        self.enable_network = enable_network
        self.failure_model = failure_model
        self.scheduling_overhead = (
            scheduling_overhead
            if scheduling_overhead is not None
            else SchedulingOverhead()
        )
        self._overhead_free = self.scheduling_overhead.is_free
        self._immediate_fast = (
            scheduler.mode is SchedulingMode.IMMEDIATE
            and self._overhead_free
            and not enable_network
        )
        self.observers = []

        if scheduler.mode is SchedulingMode.IMMEDIATE:
            cluster.set_queue_capacity(UNBOUNDED)
        elif queue_capacity != UNBOUNDED:
            cluster.set_queue_capacity(queue_capacity)

        self.batch_queue = BatchQueue()
        self.collector = MetricsCollector()
        self.type_stats = LiveTypeStats()
        self.scheduler.reset()
        self._arrived = 0
        self._n_machines = len(cluster.machines)
        #: Tasks the gateway routed to this shard (local or via WAN).
        self.routed = 0
        self._ctx = SchedulingContext(
            now=0.0,
            pending=(),
            cluster=self.cluster,
            type_stats=self.type_stats,
            rng=self.rng,
        )

    # -- federation-facing surface -------------------------------------------------

    @property
    def in_system(self) -> int:
        """Routed-but-not-terminal tasks (WAN transit + queued + running)."""
        return self.routed - self.collector.recorded

    def pressure(self) -> float:
        """Outstanding tasks per live machine (the gateway load signal).

        Same arithmetic as :func:`repro.scheduling.federation.base.shard_pressure`
        with the attribute chains flattened — this runs several times per
        routing decision.
        """
        state = self.cluster._state
        alive = self._n_machines - state.n_down
        if alive <= 0:
            return float("inf")
        return (self.routed - self.collector.recorded) / alive

    def start_failure_process(self) -> None:
        """Schedule the first failure event for every machine of this shard."""
        if self.failure_model is None:
            return
        for machine in self.cluster:
            self._schedule_failure(machine)

    def finalize(self, now: float) -> None:
        """Close the trailing energy interval of every machine."""
        for machine in self.cluster:
            machine.finalize_energy(now)

    # -- overridden Simulator hooks -----------------------------------------------

    def _on_failure(self, machine: "Machine") -> None:
        down = self.cluster._state.n_down
        super()._on_failure(machine)
        self._federation._on_alive_change(
            self.index, down - self.cluster._state.n_down
        )

    def _on_repair(self, machine: "Machine") -> None:
        down = self.cluster._state.n_down
        super()._on_repair(machine)
        self._federation._on_alive_change(
            self.index, down - self.cluster._state.n_down
        )

    def _all_tasks_terminal(self) -> bool:
        # Repairs keep the failure process alive only while the *federation*
        # still has work anywhere: an idle shard must stay repairable because
        # the gateway may offload to it later.
        return self._federation.all_tasks_terminal()

    def _finish(self) -> None:  # pragma: no cover - defensive
        raise NotImplementedError(
            "shards do not finish individually; the federation terminates"
        )
