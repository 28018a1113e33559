"""The E2C simulation engine (Fig. 1).

Orchestrates the full pipeline: workload → batch queue → scheduler → machine
queues → machines, with cancelled/dropped bookkeeping, energy metering, and
the four reports at the end.

Event handling per step:

* ``TASK_ARRIVAL`` — the task enters the batch queue; a scheduling pass runs.
* ``TASK_COMPLETION`` — the machine finishes its running task (on time by
  construction: the completion event is cancelled if the deadline fires
  first); the machine starts its next queued task; a scheduling pass runs
  (batch mode sees the freed queue slot).
* ``TASK_DEADLINE`` — fate depends on where the task is: batch queue ⇒
  CANCELLED; machine queue ⇒ MISSED (queued); executing ⇒ MISSED (running;
  the pending completion event is cancelled and the machine moves on).
* ``NETWORK_DELIVERY`` — (communication extension) the task's payload has
  reached its machine; the machine may start it now.

A scheduling pass sweeps expired tasks out of the batch queue, snapshots the
remaining pending tasks, invokes the policy, and applies its assignments —
including starting idle machines and scheduling their completion events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..machines.cluster import Cluster
from ..machines.execution import DeterministicExecution, ExecutionTimeModel
from ..machines.failures import FailureModel
from ..machines.machine import Machine
from ..machines.machine_queue import UNBOUNDED
from ..metrics.collector import MetricsCollector, SummaryMetrics
from ..metrics.energy import EnergyBreakdown, energy_breakdown
from ..metrics.records import RecordsSource
from ..metrics.reports import ReportBundle
from ..queues.batch_queue import BatchQueue
from ..scheduling.base import Assignment, Scheduler, SchedulingMode
from ..scheduling.context import LiveTypeStats, SchedulingContext
from ..tasks.task import DropStage, Task, TaskStatus
from ..tasks.workload import Workload
from .clock import SimulationClock
from .errors import ConfigurationError, SchedulingError, SimulationStateError
from .event_queue import EventQueue
from .events import Event, EventType
from .rng import make_rng

__all__ = ["Simulator", "SimulationResult"]

Observer = Callable[["Simulator", Event], None]

# Event-type members bound once at module scope: member access on an Enum
# class goes through a descriptor (~10x a plain global load on CPython 3.11),
# and the dispatch loop reads several members per event.
_ARRIVAL = EventType.TASK_ARRIVAL
_COMPLETION = EventType.TASK_COMPLETION
_DEADLINE = EventType.TASK_DEADLINE
_DELIVERY = EventType.NETWORK_DELIVERY
_FAILURE = EventType.MACHINE_FAILURE
_REPAIR = EventType.MACHINE_REPAIR
_CONTROL = EventType.CONTROL
_CREATED = TaskStatus.CREATED
_IN_BATCH_QUEUE = TaskStatus.IN_BATCH_QUEUE
_ASSIGNED = TaskStatus.ASSIGNED
_RUNNING = TaskStatus.RUNNING


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run produced.

    ``task_records`` / ``machine_records`` are built lazily from ``records``
    on first access (and cached): most consumers — benchmarks, campaign
    sweeps, regression gates — only read the summary, and the per-task row
    dicts are the single most expensive part of result assembly.
    """

    summary: SummaryMetrics
    energy: EnergyBreakdown
    end_time: float
    scheduler_name: str
    events_processed: int
    records: RecordsSource = field(repr=False, compare=False)

    @cached_property
    def task_records(self) -> list[dict]:
        """One dict per task — the Task report rows (lazy, cached)."""
        return self.records.task_rows()

    @cached_property
    def machine_records(self) -> list[dict]:
        """One dict per machine — the Machine report rows (lazy, cached)."""
        return self.records.machine_rows()

    @property
    def reports(self) -> ReportBundle:
        """The four E2C reports (Full / Task / Machine / Summary)."""
        return ReportBundle(
            self.task_records, self.machine_records, self.summary.as_dict()
        )

    @property
    def completion_rate(self) -> float:
        return self.summary.completion_rate


class Simulator:
    """Discrete-event simulator for one scenario run."""

    #: Cluster-shard id stamped onto every event this engine schedules.
    #: ``None`` for a standalone (single-cluster) simulation; a federated
    #: shard (:class:`repro.federation.shard.ClusterShard`) overrides it so
    #: the federation loop can route popped events back to their shard.
    _shard_id: int | None = None

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        scheduler: Scheduler,
        *,
        seed: int | None | np.random.Generator = None,
        drop_on_deadline: bool = True,
        execution_model: ExecutionTimeModel | None = None,
        queue_capacity: float | None = None,
        enable_network: bool = False,
        failure_model: FailureModel | None = None,
        scheduling_overhead: "SchedulingOverhead | None" = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        workload.validate_against_eet(cluster.eet)
        self.cluster = cluster
        self.workload = workload
        self.scheduler = scheduler
        self.drop_on_deadline = drop_on_deadline
        self.execution_model = execution_model or DeterministicExecution()
        # Deterministic runtimes (the default) need no sampling call per start.
        self._deterministic_execution = (
            type(self.execution_model) is DeterministicExecution
        )
        self.enable_network = enable_network
        self.failure_model = failure_model
        from ..scheduling.overhead import SchedulingOverhead

        self.scheduling_overhead = (
            scheduling_overhead
            if scheduling_overhead is not None
            else SchedulingOverhead()
        )
        self.observers = list(observers)
        self.rng = make_rng(seed)

        if queue_capacity is not None:
            if (
                scheduler.mode is SchedulingMode.IMMEDIATE
                and queue_capacity != UNBOUNDED
            ):
                raise ConfigurationError(
                    "immediate policies require unbounded machine queues "
                    "(Fig. 3: 'limited to infinite for immediate policies')"
                )
            cluster.set_queue_capacity(queue_capacity)
        elif scheduler.mode is SchedulingMode.IMMEDIATE:
            cluster.set_queue_capacity(UNBOUNDED)

        self.clock = SimulationClock()
        self.events = EventQueue()
        self.batch_queue = BatchQueue()
        self.collector = MetricsCollector()
        self.type_stats = LiveTypeStats()
        self.scheduler.reset()

        self._events_processed = 0
        self._finished = False
        self._result: SimulationResult | None = None
        self._arrived = 0  # arrival events processed (O(1) remaining_arrivals)
        self._overhead_free = self.scheduling_overhead.is_free
        # Immediate policies with zero decision overhead and no network can
        # map an arriving task on the spot whenever the batch queue is empty,
        # skipping the queue push / sweep / snapshot / Assignment machinery —
        # the dominant arrival shape for every immediate preset.
        self._immediate_fast = (
            scheduler.mode is SchedulingMode.IMMEDIATE
            and self._overhead_free
            and not enable_network
        )
        # One context object reused across passes (policies treat it as a
        # read-only view; only now/pending vary between passes).
        self._ctx = SchedulingContext(
            now=0.0,
            pending=(),
            cluster=self.cluster,
            type_stats=self.type_stats,
            rng=self.rng,
        )

        initial: list[Event] = []
        inf = float("inf")
        for task in workload:
            initial.append(
                Event(task.arrival_time, EventType.TASK_ARRIVAL, task)
            )
            if self.drop_on_deadline and task.deadline != inf:
                initial.append(
                    Event(task.deadline, EventType.TASK_DEADLINE, task)
                )
        self.events.push_many(initial)
        if self.failure_model is not None and len(workload) > 0:
            for machine in self.cluster:
                self._schedule_failure(machine)

    # -- public control surface ---------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock._now  # single attribute hop; .now is a property

    @property
    def is_finished(self) -> bool:
        return self._finished

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def next_event_time(self) -> float | None:
        return self.events.next_time()

    def step(self) -> Event | None:
        """Process exactly one event (the GUI's Increment button).

        Returns the processed event, or None when the simulation is over.
        """
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

    def run(self, until: float | None = None) -> SimulationResult:
        """Run to completion (or to simulated time *until*) and return results."""
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

    def result(self) -> SimulationResult:
        """Result of a finished run."""
        if self._result is None:
            raise SimulationStateError(
                "simulation has not finished; call run() first"
            )
        return self._result

    # -- event dispatch ----------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        etype = event.type
        if etype is _ARRIVAL:
            self._on_arrival(event.payload)
        elif etype is _COMPLETION:
            self._on_completion(event.payload)
        elif etype is _DEADLINE:
            self._on_deadline(event.payload)
        elif etype is _DELIVERY:
            self._on_delivery(event.payload)
        elif etype is _FAILURE:
            self._on_failure(event.payload)
        elif etype is _REPAIR:
            self._on_repair(event.payload)
        elif etype is _CONTROL:  # pragma: no cover - hook
            pass
        else:  # pragma: no cover - defensive
            raise SimulationStateError(f"unhandled event type {event.type}")

    def _on_arrival(self, task: Task) -> None:
        self._arrived += 1
        if self._immediate_fast and self.batch_queue.is_empty:
            # Same decisions, records, and RNG consumption as the general
            # path below — merely without materialising the single-task
            # batch pass (push, sweep, snapshot, Assignment, remove).
            now = self.clock._now
            if self.drop_on_deadline and task.deadline <= now:
                task.cancel(now)
                self.collector.record_terminal(task)
                self.type_stats.record(task.task_type.name, False)
                return
            ctx = self._ctx
            ctx.now = now
            ctx.pending = (task,)
            machine = self.scheduler.choose_machine(task, ctx)
            if machine is None:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"{self.scheduler.name}: immediate policy returned no "
                    f"machine for task {task.id}"
                )
            if machine.can_accept(task):
                machine.enqueue(task, now)
                self._try_start(machine)
            else:
                # Admission refused: buffer it exactly as the general path
                # would have left it, awaiting the next scheduling pass.
                self.batch_queue.push(task)
            return
        self.batch_queue.push(task)
        self._scheduling_pass()

    def _on_completion(self, payload: tuple[Machine, Task]) -> None:
        machine, task = payload
        if machine.running is not task:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"completion event for task {task.id} but machine "
                f"{machine.name} is running "
                f"{machine.running.id if machine.running else None}"
            )
        finished = machine.finish_running(self.now)
        self.collector.record_terminal(finished)
        self.type_stats.record(finished.task_type.name, finished.on_time)
        self._try_start(machine)
        self._scheduling_pass()

    def _on_deadline(self, task: Task) -> None:
        if task.status.is_terminal:
            return  # completed exactly at (or before) the deadline
        now = self.now
        if task.status in (_CREATED, _IN_BATCH_QUEUE):
            self.batch_queue.remove(task)
            task.cancel(now)
            self.collector.record_terminal(task)
            self.type_stats.record(task.task_type.name, False)
            return
        machine = task.machine
        if machine is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"task {task.id} is {task.status.name} but has no machine"
            )
        if task.status is _ASSIGNED:
            in_transit = (
                task.available_at is not None and task.available_at > now
            )
            if not machine.drop_queued(task):  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"task {task.id} not found in machine {machine.name} queue"
                )
            task.miss(
                now,
                DropStage.IN_TRANSIT if in_transit else DropStage.MACHINE_QUEUE,
            )
        elif task.status is _RUNNING:
            if machine.completion_event is not None:
                self.events.cancel(machine.completion_event)
            machine.drop_running(self.now)
            task.miss(now, DropStage.EXECUTING)
            self._try_start(machine)
        else:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"deadline fired for task {task.id} in state {task.status.name}"
            )
        self.collector.record_terminal(task)
        self.type_stats.record(task.task_type.name, False)
        self._scheduling_pass()

    def _on_delivery(self, payload: tuple[Machine, Task]) -> None:
        machine, task = payload
        if task.status is _ASSIGNED:
            self._try_start(machine)

    # -- failure injection ---------------------------------------------------------

    def _schedule_failure(self, machine: Machine) -> None:
        assert self.failure_model is not None
        uptime = self.failure_model.sample_uptime(machine, self.rng)
        self.events.push(
            Event(
                self.now + uptime,
                EventType.MACHINE_FAILURE,
                machine,
                cluster=self._shard_id,
            )
        )

    def _all_tasks_terminal(self) -> bool:
        return self.collector.recorded >= len(self.workload)

    def _on_failure(self, machine: Machine) -> None:
        assert self.failure_model is not None
        if not machine.up:  # pragma: no cover - defensive
            return
        if machine.completion_event is not None:
            self.events.cancel(machine.completion_event)
        evicted = machine.fail(self.now)
        for task in evicted:
            task.requeue(self.now)
            self.batch_queue.readmit(task)
        downtime = self.failure_model.sample_downtime(machine, self.rng)
        self.events.push(
            Event(
                self.now + downtime,
                EventType.MACHINE_REPAIR,
                machine,
                cluster=self._shard_id,
            )
        )
        # Evicted tasks may be remappable onto surviving machines right now.
        self._scheduling_pass()

    def _on_repair(self, machine: Machine) -> None:
        assert self.failure_model is not None
        machine.repair(self.now)
        # Keep the failure process alive only while there is work left; this
        # bounds the event stream so simulations terminate.
        if not self._all_tasks_terminal():
            self._schedule_failure(machine)
        self._scheduling_pass()

    # -- scheduling ---------------------------------------------------------------------

    def _scheduling_pass(self) -> None:
        if self.batch_queue.is_empty:
            return  # nothing to sweep, nothing to map
        now = self.now
        if self.drop_on_deadline:
            for task in self.batch_queue.sweep_expired(now):
                self.collector.record_terminal(task)
                self.type_stats.record(task.task_type.name, False)
        pending = self.batch_queue.snapshot()
        if not pending:
            return
        ctx = self._ctx
        ctx.now = now
        ctx.pending = pending
        assignments = self.scheduler.schedule(ctx)
        if self._overhead_free:
            decision_delay = 0.0
        else:
            decision_delay = self.scheduling_overhead.pass_delay(
                len(pending), len(self.cluster)
            )
        self._apply(assignments, decision_delay=decision_delay)

    def _apply(
        self,
        assignments: Sequence[Assignment],
        *,
        decision_delay: float = 0.0,
    ) -> None:
        now = self.now
        network = self.enable_network
        for assignment in assignments:
            task, machine = assignment.task, assignment.machine
            if task.status is not _IN_BATCH_QUEUE:
                raise SchedulingError(
                    f"{self.scheduler.name}: assignment for task {task.id} "
                    f"in state {task.status.name}"
                )
            if not machine.can_accept(task):
                # Bounded queue or memory admission refused the mapping; the
                # task stays in the batch queue for the next pass.
                continue
            if not self.batch_queue.remove(task):  # pragma: no cover - defensive
                raise SchedulingError(
                    f"{self.scheduler.name}: task {task.id} not in batch queue"
                )
            if network:
                delay = self._transfer_delay(task, machine) + decision_delay
            else:
                delay = decision_delay
            if delay > 0:
                task.available_at = now + delay
            machine.enqueue(task, now)
            if delay > 0:
                self.events.push(
                    Event(
                        now + delay,
                        EventType.NETWORK_DELIVERY,
                        (machine, task),
                        cluster=self._shard_id,
                    )
                )
            self._try_start(machine)

    def _transfer_delay(self, task: Task, machine: Machine) -> float:
        if not self.enable_network:
            return 0.0
        from ..net.transfer import transfer_delay

        return transfer_delay(task.task_type, machine.machine_type)

    def _try_start(self, machine: Machine) -> None:
        """Start the machine's next task if possible; schedule its completion."""
        if machine.running is not None or not machine.queue:
            return  # busy or nothing queued: the common _apply case
        head = machine.queue.peek()
        runtime = None
        if head is not None:
            expected = machine.eet_for(head)
            if self._deterministic_execution:
                runtime = expected
            else:
                runtime = self.execution_model.sample(head, expected, self.rng)
        started = machine.start_next(self.now, runtime)
        if started is not None:
            event = self.events.push(
                Event(
                    machine.run_finishes_at,
                    EventType.TASK_COMPLETION,
                    (machine, started),
                    cluster=self._shard_id,
                )
            )
            machine.completion_event = event

    # -- termination -----------------------------------------------------------------------

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        for machine in self.cluster:
            machine.finalize_energy(self.now)
        self._result = self._build_result()
        expected = len(self.workload)
        if self.drop_on_deadline and self.collector.recorded != expected:
            raise SimulationStateError(
                f"conservation violated: {self.collector.recorded} terminal "
                f"tasks out of {expected}"
            )

    def _build_result(self) -> SimulationResult:
        summary = self.collector.summary(self.cluster, end_time=self.now)
        return SimulationResult(
            summary=summary,
            energy=energy_breakdown(self.cluster),
            end_time=self.now,
            scheduler_name=self.scheduler.name,
            events_processed=self._events_processed,
            records=RecordsSource([(None, self.collector, self.cluster)]),
        )

    # -- renderer-facing state ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Live outcome counters (the cancelled/missed boxes of the GUI).

        O(1): reads the collector's incrementally-maintained counters
        instead of scanning every recorded task per rendered frame.
        """
        return self.collector.counts()

    def remaining_arrivals(self) -> int:
        """Workload tasks that have not arrived yet (O(1))."""
        return len(self.workload) - self._arrived
