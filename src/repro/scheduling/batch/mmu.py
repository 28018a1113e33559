"""MinCompletion-MaxUrgency (MMU) — paper policy.

Two-phase batch heuristic (Mokhtari et al., IPDPSW'20 family): phase 1 finds
each task's best machine by minimum completion time; phase 2 maps the most
*urgent* task first, where urgency is the inverse of the slack its best
mapping would leave:

    urgency(i) = 1 / (deadline_i − bestCompletion_i)

Tasks whose best completion already violates the deadline have non-positive
slack ⇒ infinite urgency; among those, the one with the smallest slack
deficit goes first (it is the most doomed — mapping it first documents the
miss immediately and frees attention for salvageable tasks). Ties break by
task order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["MMUScheduler"]


@register_scheduler(aliases=("MINCOMPLETION-MAXURGENCY",))
class MMUScheduler(BatchScheduler):
    """Most urgent (least slack at its best machine) task first."""

    name = "MMU"
    description = (
        "MinCompletion-MaxUrgency: map first the task with the least slack "
        "between its best completion time and its deadline."
    )
    one_task_is_mct = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        best = completion.min(axis=1)
        feasible = np.isfinite(best)
        if not feasible.any():
            return None
        deadlines = ctx.deadlines(tasks)
        slack = deadlines - best
        slack = np.where(feasible, slack, np.inf)
        i = int(np.argmin(slack))  # least slack == max urgency
        j = int(np.argmin(completion[i]))
        return i, j
