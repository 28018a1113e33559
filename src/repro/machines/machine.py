"""Machine runtime state: queue, running task, readiness and energy.

A machine executes its FIFO queue sequentially (§3: "Tasks are executed on the
assigned machine in a sequential manner"). The scheduler plans against
:meth:`ready_time` / :meth:`completion_time_for`, the standard quantities of
the MCT/Min-Min heuristic family:

    ready_time(now)      = now + remaining(running) + Σ EET(queued)
    completion_time_for  = ready_time + EET(candidate)

With deterministic execution these are exact; with an execution-noise model
they are the *expected* values — which is precisely what the "Expected
Execution Time" matrix semantics call for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import SimulationStateError
from ..memory.allocation import fits_in_memory, memory_in_use as _memory_in_use
from ..tasks.task import Task
from .eet import EETMatrix
from .machine_queue import UNBOUNDED, MachineQueue
from .machine_type import MachineType
from .power import EnergyMeter

if TYPE_CHECKING:  # pragma: no cover
    from ..core.events import Event
    from .cluster import ClusterState

__all__ = ["Machine"]


class Machine:
    """One physical machine instance of a given machine type."""

    def __init__(
        self,
        machine_id: int,
        machine_type: MachineType,
        eet: EETMatrix,
        *,
        queue_capacity: float = UNBOUNDED,
        name: str | None = None,
    ) -> None:
        self.id = machine_id
        self.machine_type = machine_type
        self.name = name if name is not None else f"{machine_type.name}-{machine_id}"
        self._eet = eet
        # Per-machine EET column resolved once: task type name -> seconds as a
        # plain Python float. eet_for() is on the per-decision hot path; the
        # generic EETMatrix.lookup costs two dict probes plus a NumPy scalar
        # extraction per call.
        if eet.has_machine_type(machine_type.name):
            self._eet_by_type_name = dict(
                zip(eet.task_type_names, eet.column(machine_type.name).tolist())
            )
        else:  # standalone machine without an EET column; lookup() will raise
            self._eet_by_type_name = None
        self.queue = MachineQueue(queue_capacity)
        self.running: Task | None = None
        self.run_started_at: float | None = None
        self.run_finishes_at: float | None = None
        self.completion_event: "Event | None" = None
        self.energy = EnergyMeter(machine_type.power)
        self.completed_count = 0
        self.missed_count = 0
        self.failure_count = 0
        self.up = True  # failure-injection extension: powered-on flag
        self._queued_work = 0.0  # incremental Σ EET of queued tasks
        # Optional cluster-shared planning arrays (see Cluster/ClusterState);
        # a standalone machine (no cluster) simply never syncs.
        self._shared: "ClusterState | None" = None
        self._shared_idx = 0

    # -- EET access -------------------------------------------------------------

    def eet_for(self, task: Task) -> float:
        """Expected execution time of *task* on this machine."""
        by_name = self._eet_by_type_name
        if by_name is not None:
            eet = by_name.get(task.task_type.name)
            if eet is not None:
                return eet
        return self._eet.lookup(task.task_type, self.machine_type.name)

    # -- cluster-shared planning state ------------------------------------------

    def bind_shared_state(self, state: "ClusterState", index: int) -> None:
        """Mirror this machine's planning quantities into *state* at *index*.

        The cluster keeps per-machine ``finish_at`` / ``queued_work`` / ``up``
        NumPy arrays so ``Cluster.ready_times`` is one vectorised expression
        instead of a Python loop over machines per scheduling decision.
        """
        self._shared = state
        self._shared_idx = index
        self._sync_shared()

    def _sync_shared(self) -> None:
        state = self._shared
        if state is None:
            return
        i = self._shared_idx
        finishes = self.run_finishes_at
        if finishes is None:
            finishes = 0.0
        state.finish_at[i] = finishes
        state.finish_list[i] = finishes
        state.queued_work[i] = self._queued_work
        state.queued_list[i] = self._queued_work
        free = self.queue.free_slots if self.up else 0.0
        state.slots[i] = free
        state.slots_list[i] = free
        if bool(state.up[i]) != self.up:
            state.up[i] = self.up
            state.n_down += -1 if self.up else 1
        idle_now = self.running is None and self.up
        if bool(state.idle[i]) != idle_now:
            state.idle[i] = idle_now
            state.n_idle += 1 if idle_now else -1

    def _sync_queued(self) -> None:
        """Cheap sync for transitions that only touch the queue."""
        state = self._shared
        if state is not None:
            i = self._shared_idx
            state.queued_work[i] = self._queued_work
            state.queued_list[i] = self._queued_work
            free = self.queue.free_slots if self.up else 0.0
            state.slots[i] = free
            state.slots_list[i] = free

    def _sync_run(self) -> None:
        """Cheap sync for start/finish transitions (finish_at + idleness)."""
        state = self._shared
        if state is None:
            return
        i = self._shared_idx
        finishes = self.run_finishes_at
        if finishes is None:
            finishes = 0.0
        state.finish_at[i] = finishes
        state.finish_list[i] = finishes
        state.queued_work[i] = self._queued_work
        state.queued_list[i] = self._queued_work
        free = self.queue.free_slots if self.up else 0.0
        state.slots[i] = free
        state.slots_list[i] = free
        idle_now = self.running is None and self.up
        if bool(state.idle[i]) != idle_now:
            state.idle[i] = idle_now
            state.n_idle += 1 if idle_now else -1

    # -- planning quantities ------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        return self.running is None

    def remaining_runtime(self, now: float) -> float:
        """Time until the running task finishes (0 when idle)."""
        if self.running is None or self.run_finishes_at is None:
            return 0.0
        return max(0.0, self.run_finishes_at - now)

    def queued_work(self) -> float:
        """Σ EET of queued (not yet running) tasks (incrementally tracked)."""
        return self._queued_work

    def ready_time(self, now: float) -> float:
        """Earliest time a newly queued task could start.

        A failed machine is never ready (infinite), steering every
        completion-time-based policy away from it while it is down.
        """
        if not self.up:
            return float("inf")
        return now + self.remaining_runtime(now) + self.queued_work()

    def completion_time_for(self, task: Task, now: float) -> float:
        """Expected completion time of *task* if appended to this queue now."""
        return self.ready_time(now) + self.eet_for(task)

    @property
    def load(self) -> int:
        """Queued + running task count."""
        return len(self.queue) + (0 if self.running is None else 1)

    # -- execution lifecycle --------------------------------------------------------

    def enqueue(self, task: Task, now: float) -> None:
        """Accept an assigned task into the local queue."""
        task.assign(self, now)
        self.queue.push(task)
        self._queued_work += self.eet_for(task)
        self._sync_queued()

    def can_accept(self, task: Task | None = None) -> bool:
        """Queue has a free slot (and memory headroom, when constrained).

        Capacity counts queued tasks only; the running task occupies no slot.
        When the machine type declares a memory capacity and *task* is given,
        admission also requires the task's footprint to fit next to the
        queued + running residents (memory extension, DESIGN.md S18).
        """
        if not self.up:
            return False
        if self.queue.is_full:
            return False
        if task is not None and self.machine_type.memory_capacity > 0:
            if not fits_in_memory(self, task):
                return False
        return True

    def memory_in_use(self) -> float:
        """MB of memory held by queued + running tasks."""
        return _memory_in_use(self)

    def start_next(self, now: float, runtime: float | None = None) -> Task | None:
        """If idle and the queue head is startable, start it.

        A head task still in transit (``available_at`` in the future, network
        extension) blocks the queue until its delivery event fires. Returns
        the started task (runtime stored on it) or None. The caller schedules
        the completion event for ``run_finishes_at``.
        """
        if not self.up or self.running is not None or not self.queue:
            return None
        head = self.queue.peek()
        if head is not None and head.available_at is not None and head.available_at > now:
            return None
        # Close the idle interval that just ended.
        self.energy.advance(now, busy=False)
        task = self.queue.pop()
        self._queued_work -= self.eet_for(task)
        actual = runtime if runtime is not None else self.eet_for(task)
        if actual < 0:
            raise SimulationStateError(f"negative runtime {actual} for task {task.id}")
        task.start(now)
        task.execution_time = actual
        self.running = task
        self.run_started_at = now
        self.run_finishes_at = now + actual
        self._sync_run()
        return task

    def finish_running(self, now: float) -> Task:
        """Complete the running task at *now* (its completion event fired)."""
        task = self._detach_running(now)
        task.complete(now)
        started = task.start_time if task.start_time is not None else now
        task.energy = self.energy.profile.energy_for(
            task.task_type.name, now - started
        )
        self.completed_count += 1
        return task

    def drop_running(self, now: float) -> Task:
        """Drop the running task (deadline miss mid-execution); machine frees."""
        task = self._detach_running(now)
        # Energy already spent on the partial run is attributed to the task.
        started = task.start_time if task.start_time is not None else now
        task.energy = self.energy.profile.energy_for(
            task.task_type.name, now - started
        )
        self.missed_count += 1
        return task

    def drop_queued(self, task: Task) -> bool:
        """Remove a queued task (deadline miss while waiting). True if found."""
        removed = self.queue.remove(task)
        if removed:
            self._queued_work -= self.eet_for(task)
            self.missed_count += 1
            self._sync_queued()
        return removed

    def _detach_running(self, now: float) -> Task:
        if self.running is None:
            raise SimulationStateError(f"machine {self.name} is not running anything")
        task = self.running
        self.energy.advance(now, busy=True, task_type_name=task.task_type.name)
        self.running = None
        self.run_started_at = None
        self.run_finishes_at = None
        self.completion_event = None
        self._sync_run()
        return task

    def fail(self, now: float) -> list[Task]:
        """Crash the machine: evict the running task and the whole queue.

        Closes the current power interval (busy or idle), switches to the
        powered-off state, and returns the evicted tasks in execution order
        (running task first). The caller requeues or retires them and must
        cancel the pending completion event.
        """
        if not self.up:
            raise SimulationStateError(f"machine {self.name} is already down")
        evicted: list[Task] = []
        if self.running is not None:
            self.energy.advance(
                now, busy=True, task_type_name=self.running.task_type.name
            )
            evicted.append(self.running)
            self.running = None
            self.run_started_at = None
            self.run_finishes_at = None
            self.completion_event = None
        else:
            self.energy.advance(now, busy=False)
        evicted.extend(self.queue.clear())
        self._queued_work = 0.0
        self.up = False
        self.failure_count += 1
        self._sync_shared()
        return evicted

    def repair(self, now: float) -> None:
        """Bring the machine back up; downtime is metered as powered-off."""
        if self.up:
            raise SimulationStateError(f"machine {self.name} is not down")
        self.energy.advance_off(now)
        self.up = True
        self._sync_shared()

    def finalize_energy(self, now: float) -> None:
        """Close the trailing power interval at end of simulation."""
        if not self.up:
            self.energy.advance_off(now)
        elif self.running is not None:
            self.energy.advance(
                now, busy=True, task_type_name=self.running.task_type.name
            )
            # Re-open bookkeeping so a subsequent finish still integrates from now.
            # (finalize is only called when the simulation truly ends)
        else:
            self.energy.advance(now, busy=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "idle" if self.is_idle else f"running task {self.running.id}"
        return f"Machine({self.name}, {state}, queued={len(self.queue)})"
