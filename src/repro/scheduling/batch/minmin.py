"""MinCompletion-MinCompletion (MM) — paper policy, a.k.a. Min-Min.

Phase 1: for every unmapped task find its minimum completion time across
machines. Phase 2: map the task whose minimum is globally smallest, update the
chosen machine's virtual ready time, repeat. The canonical batch heuristic of
Ibarra & Kim / Maheswaran et al.; ties break row-major (task order, then
machine id).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler, argmin_2d
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["MinMinScheduler"]


@register_scheduler(aliases=("MINMIN", "MIN-MIN", "MINCOMPLETION-MINCOMPLETION"))
class MinMinScheduler(BatchScheduler):
    """Globally smallest completion-time cell first."""

    name = "MM"
    description = (
        "MinCompletion-MinCompletion (Min-Min): repeatedly map the task with "
        "the globally smallest achievable completion time."
    )
    one_task_is_mct = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        return argmin_2d(completion)
