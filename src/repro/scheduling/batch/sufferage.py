"""Sufferage — classic batch baseline from [13].

For each unmapped task compute sufferage = (second-best completion time −
best completion time): how much the task *suffers* if it loses its best
machine. Map the task with the greatest sufferage to its best machine first.
Tasks with only one feasible machine get infinite sufferage (they must win).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["SufferageScheduler"]


@register_scheduler
class SufferageScheduler(BatchScheduler):
    """Greatest (second-best − best) completion gap first."""

    name = "SUFFERAGE"
    description = (
        "Sufferage: map first the task that loses the most if denied its "
        "best machine."
    )
    one_task_is_mct = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        n_machines = completion.shape[1]
        best = completion.min(axis=1)
        feasible = np.isfinite(best)
        if not feasible.any():
            return None
        if n_machines == 1:
            i = int(np.argmin(np.where(feasible, best, np.inf)))
            return i, int(np.argmin(completion[i]))
        two_smallest = np.partition(completion, 1, axis=1)[:, :2]
        # Infeasible rows are all-inf: difference would be nan, mask them out
        # before subtracting. A task with a single finite machine must win.
        single_option = feasible & ~np.isfinite(two_smallest[:, 1])
        sufferage = np.full(completion.shape[0], -np.inf)
        both_finite = np.isfinite(two_smallest[:, 1])
        sufferage[both_finite] = (
            two_smallest[both_finite, 1] - two_smallest[both_finite, 0]
        )
        sufferage[single_option] = np.inf
        i = int(np.argmax(sufferage))
        if not feasible[i]:
            return None
        j = int(np.argmin(completion[i]))
        return i, j
