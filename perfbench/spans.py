"""Span tracing for the benchmark's traced repeat.

Tracing lives in the benchmark, not in the simulator: the traced repeat
swaps the public layer methods of the objects one run builds (and a few
class- or module-level entry points) for wrappers that record spans, then
puts every original back. A span is ``[name, start, end, parent, run]``;
``parent`` is the index of the span that was open when it started (-1 for
none) and ``run`` numbers the simulation cells of the repeat. Spans stay in
memory; a layer's self time is its spans' durations minus the parts their
child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable

from repro.experiments import runner
from repro.core.config import Scenario
from repro.net.wan import WanManager
from repro.scheduling.base import SchedulingMode

clock = time.perf_counter

_MISSING = object()

#: Span name -> the per-layer metric that reports its self time.
SELF_TIME_METRICS = {
    "scenarios.build": "scenarios.build_s",
    "tasks.workload": "tasks.workload_s",
    "engine.construct": "engine.construct_s",
    "core.run": "core.kernel.self_s",
    "scheduling.batch": "scheduling.batch.self_s",
    "scheduling.immediate": "scheduling.immediate.self_s",
    "gateway": "gateway.self_s",
    "net.wan": "net.wan.self_s",
    "metrics.record": "metrics.record.self_s",
    "metrics.result": "metrics.result_s",
    "experiments.cell": "experiments.cell_overhead_s",
}

#: Span name -> the per-layer metric that reports its call count.
CALL_METRICS = {
    "scheduling.batch": "scheduling.batch.calls",
    "scheduling.immediate": "scheduling.immediate.calls",
    "gateway": "gateway.calls",
    "net.wan": "net.wan.calls",
    "metrics.record": "metrics.record.calls",
}

#: WanManager methods every federated engine calls on its WAN instance.
WAN_METHODS = ("submit", "on_delivered", "cancel", "release")
#: WanManager static handlers the federation loop calls on the class.
WAN_STATIC_METHODS = ("on_link_event", "on_cross_traffic")


class Patcher:
    """Replaces attributes of objects, classes or modules and restores them.

    ``restore`` puts back exactly what was there: a class attribute is
    reinstated (a ``staticmethod`` stays one), and an instance attribute that
    only shadowed a class method is deleted again. ``unrestored`` names every
    patched attribute that does not hold its original afterwards.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        raw = vars(owner).get(name, _MISSING)
        replacement = make(getattr(owner, name))
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, name, replacement)
        self._saved.append((owner, name, raw))

    def restore(self) -> None:
        for owner, name, raw in reversed(self._saved):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)

    def unrestored(self) -> list[str]:
        return [
            f"{type(owner).__name__}.{name}"
            for owner, name, raw in self._saved
            if vars(owner).get(name, _MISSING) is not raw
        ]


class Tracer:
    """Collects spans and counters for one traced repeat."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.run = 0
        self._stack = [-1]

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span has closed."""
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1], tracer.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- instrumentation -----------------------------------------------------------

    def patch_entry_points(self, patcher: Patcher) -> None:
        """Class- and module-level spans: set-up steps, sweep cells and the
        WAN handlers the federation loop calls on the class."""
        patcher.patch(
            Scenario, "build_simulator", lambda f: self.wrap(f, "engine.construct")
        )
        patcher.patch(
            Scenario, "build_workload", lambda f: self.wrap(f, "tasks.workload")
        )
        patcher.patch(
            runner, "_execute_cell", lambda f: self.wrap(f, "experiments.cell")
        )
        for name in WAN_STATIC_METHODS:
            patcher.patch(WanManager, name, lambda f: self.wrap(f, "net.wan"))

    def instrument(self, patcher: Patcher, sim: Any) -> None:
        """Wrap the layer methods of one freshly built simulator."""
        counts = self.counts
        events = sim.events
        # The constructor bulk-loads arrivals and deadlines before any
        # wrapper exists; nothing has been popped yet, so every live entry
        # is one push.
        counts["core.pushes"] += len(events)

        def count_push(push: Callable) -> Callable:
            def push_counted(event: Any) -> Any:
                counts["core.pushes"] += 1
                return push(event)

            return push_counted

        def count_push_many(push_many: Callable) -> Callable:
            def push_many_counted(items: Any) -> None:
                items = list(items)
                counts["core.pushes"] += len(items)
                push_many(items)

            return push_many_counted

        def count_cancel(cancel: Callable) -> Callable:
            def cancel_counted(event: Any) -> bool:
                done = cancel(event)
                if done:
                    counts["core.cancels"] += 1
                return done

            return cancel_counted

        def batch_pass(args: tuple, assignments: Any) -> None:
            counts["batch.pending"] += len(args[0].pending)
            if assignments:
                counts["batch.useful"] += 1

        patcher.patch(events, "push", count_push)
        patcher.patch(events, "push_many", count_push_many)
        patcher.patch(events, "cancel", count_cancel)
        patcher.patch(sim, "run", lambda f: self.wrap(f, "core.run"))
        patcher.patch(sim, "_build_result", lambda f: self.wrap(f, "metrics.result"))
        for shard in getattr(sim, "shards", [sim]):
            scheduler = shard.scheduler
            if scheduler.mode is SchedulingMode.BATCH:
                patcher.patch(
                    scheduler,
                    "schedule",
                    lambda f: self.wrap(f, "scheduling.batch", batch_pass),
                )
            else:
                patcher.patch(
                    scheduler,
                    "choose_machine",
                    lambda f: self.wrap(f, "scheduling.immediate"),
                )
            patcher.patch(
                shard.collector,
                "record_terminal",
                lambda f: self.wrap(f, "metrics.record"),
            )
        gateway = getattr(sim, "gateway", None)
        if gateway is not None:
            patcher.patch(gateway, "choose_cluster", lambda f: self.wrap(f, "gateway"))
        wan = getattr(sim, "wan", None)
        if wan is not None:
            for name in WAN_METHODS:
                patcher.patch(wan, name, lambda f: self.wrap(f, "net.wan"))

    # -- derived metrics -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counters of the traced repeat.

        ``wall_s`` is the repeat's traced wall time; whatever no span covers
        is ``trace.unattributed_s``, so the self times plus that term add up
        to the wall time (checked by the caller).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                covered += end - start
        unknown = set(self_s) - set(SELF_TIME_METRICS)
        if unknown:
            raise ValueError(f"spans without a metric: {sorted(unknown)}")
        out = {metric: self_s[name] for name, metric in SELF_TIME_METRICS.items()}
        out.update({metric: float(calls[name]) for name, metric in CALL_METRICS.items()})
        counts = self.counts
        out["core.pushes"] = float(counts["core.pushes"])
        out["core.cancels"] = float(counts["core.cancels"])
        out["core.cancelled_ratio"] = _ratio(counts["core.cancels"], counts["core.pushes"])
        batch_calls = calls["scheduling.batch"]
        out["scheduling.batch.pending_mean"] = _ratio(counts["batch.pending"], batch_calls)
        out["scheduling.batch.useful_ratio"] = _ratio(counts["batch.useful"], batch_calls)
        out["gateway.us_per_call"] = _ratio(self_s["gateway"] * 1e6, calls["gateway"])
        out["trace.unattributed_s"] = wall_s - covered
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
