"""Scheduler framework: policy base classes and the mapping loop.

Two policy families mirror the paper's scheduler component (Fig. 3):

* **Immediate** — the arriving task is mapped on the spot; machine queues are
  unbounded. Subclass :class:`ImmediateScheduler`, implement
  :meth:`ImmediateScheduler.choose_machine`.
* **Batch** — tasks buffer in the batch queue; mapping happens in passes over
  the whole buffer, respecting bounded machine queues. Subclass
  :class:`BatchScheduler` and implement :meth:`BatchScheduler.select_pair`;
  the base class runs the standard two-phase mapping loop (recompute the
  completion-time matrix, let the policy pick one (task, machine) pair, apply
  it virtually, repeat) shared by Min-Min/Max-Min/Sufferage/MSD/MMU/ELARE.

E2C is "designed to be modular, hence providing the ability ... to modify the
existing scheduling methods or add their own custom-designed scheduling
methods" (§3) — that is the :mod:`repro.scheduling.registry` plus these ABCs.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..core.errors import SchedulingError
from ..machines.machine import Machine
from ..tasks.task import Task
from .context import SchedulingContext

__all__ = [
    "SchedulingMode",
    "Assignment",
    "Scheduler",
    "ImmediateScheduler",
    "BatchScheduler",
]


class SchedulingMode(enum.Enum):
    """Immediate vs batch scheduling (Maheswaran et al. 1999 taxonomy)."""

    IMMEDIATE = "immediate"
    BATCH = "batch"


@dataclass(frozen=True, slots=True)
class Assignment:
    """One mapping decision: put *task* on *machine*'s queue."""

    task: Task
    machine: Machine


class Scheduler(abc.ABC):
    """Common interface of every scheduling policy."""

    #: Registry name (e.g. "MECT"); set by subclasses.
    name: ClassVar[str] = ""
    #: Mode this policy operates in.
    mode: ClassVar[SchedulingMode]
    #: Short human-readable description for the CLI / docs.
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def schedule(self, ctx: SchedulingContext) -> list[Assignment]:
        """Return mapping decisions for the current context.

        Implementations must not mutate tasks or machines; the simulator
        applies the returned assignments (and validates capacity).
        """

    def reset(self) -> None:
        """Clear any internal state (between simulation runs)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, mode={self.mode.value})"


class ImmediateScheduler(Scheduler):
    """Maps each arriving task immediately (queues unbounded)."""

    mode = SchedulingMode.IMMEDIATE

    def schedule(self, ctx: SchedulingContext) -> list[Assignment]:
        assignments: list[Assignment] = []
        for task in ctx.pending:
            machine = self.choose_machine(task, ctx)
            if machine is None:
                raise SchedulingError(
                    f"{self.name}: immediate policy returned no machine for "
                    f"task {task.id}"
                )
            assignments.append(Assignment(task, machine))
        return assignments

    @abc.abstractmethod
    def choose_machine(self, task: Task, ctx: SchedulingContext) -> Machine:
        """Pick the machine for one arriving task."""


class BatchScheduler(Scheduler):
    """Two-phase mapping loop over the batch-queue snapshot.

    Every iteration the policy sees the *current* completion-time matrix
    ``completion`` of shape (n_pending, n_machines), where saturated machines
    and already-mapped tasks are masked with +inf, and returns the (i, j)
    index pair to map next (or None to stop early). The base class maintains
    virtual ready times and free slots so one pass produces a consistent
    multi-task mapping, exactly like the classic Min-Min formulation.
    """

    mode = SchedulingMode.BATCH
    #: Whether :meth:`select_pair` on a one-task snapshot always returns
    #: ``(0, first argmin of the row)``, or None when every cell is +inf.
    #: Policies that declare it let :meth:`schedule` answer one-task passes
    #: with the cluster's scalar MCT loop instead of building the 1×M
    #: planning matrix — the same pick, since the loop performs the
    #: matrix's IEEE operations. A subclass that overrides ``select_pair``
    #: without re-declaring the flag is switched back to the matrix path.
    one_task_is_mct: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "select_pair" in vars(cls) and "one_task_is_mct" not in vars(cls):
            cls.one_task_is_mct = False

    def schedule(self, ctx: SchedulingContext) -> list[Assignment]:
        tasks = list(ctx.pending)
        if not tasks:
            return []
        if len(tasks) == 1 and self.one_task_is_mct:
            hit = ctx.cluster.free_argmin_completion(tasks[0], ctx.now)
            if hit is not None:
                j, completion = hit
                if completion == np.inf:  # every machine saturated or down
                    return []
                return [Assignment(tasks[0], ctx.cluster.machines[j])]
        slots = ctx.free_slots()
        if not (slots > 0).any():
            # Every machine queue is saturated (or down): no pick is legal,
            # so skip building the planning matrices entirely — the dominant
            # pass shape under bounded queues with a backed-up batch queue.
            return []
        machines = ctx.cluster.machines
        ready = ctx.ready_times().astype(float)  # astype always copies
        eet = ctx.eet_matrix_for(tasks)  # (T, M); fresh gather, safe to mark
        alive = np.ones(len(tasks), dtype=bool)
        assignments: list[Assignment] = []

        # The completion matrix is maintained incrementally: a pick dirties
        # exactly one column (the chosen machine's ready time advanced) and
        # one row (the chosen task left the pool). Recomputing only those —
        # with the same ``ready[j] + eet[·, j]`` arithmetic the full rebuild
        # performed — yields bit-identical cells, so every policy makes the
        # same sequence of picks as under the per-iteration rebuild.
        completion = ready[None, :] + eet
        completion[:, slots <= 0] = np.inf
        while True:
            pick = self.select_pair(tasks, completion, alive, ctx)
            if pick is None:
                break
            i, j = pick
            if not alive[i]:
                raise SchedulingError(
                    f"{self.name}: selected already-mapped task index {i}"
                )
            if slots[j] <= 0:
                raise SchedulingError(
                    f"{self.name}: selected saturated machine index {j}"
                )
            assignments.append(Assignment(tasks[i], machines[j]))
            ready[j] += eet[i, j]
            slots[j] -= 1
            alive[i] = False
            if not alive.any() or not (slots > 0).any():
                break
            completion[i, :] = np.inf
            # Dead rows must stay +inf through later column refreshes.
            eet[i, :] = np.inf
            if slots[j] > 0:
                completion[:, j] = ready[j] + eet[:, j]
            else:
                completion[:, j] = np.inf
        return assignments

    @abc.abstractmethod
    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        """Choose the next (task index, machine index) pair, or None to stop.

        ``completion[i, j]`` is +inf when task *i* is already mapped or
        machine *j* is saturated; a policy returning a pair must pick a
        finite cell.
        """


def argmin_2d(matrix: np.ndarray) -> tuple[int, int] | None:
    """Index of the smallest finite cell, ties broken row-major. None if all inf."""
    flat = int(np.argmin(matrix))
    i, j = divmod(flat, matrix.shape[1])
    if not np.isfinite(matrix[i, j]):
        return None
    return i, j
