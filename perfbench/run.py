"""Host-time benchmark of the E2C simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fed_scale --seed 1 --seconds 35 --trace 0

Each repeat builds its workload from ``--seed`` (a fresh ``Scenario`` every
time, so workload generation is part of set-up), runs it single-threaded in
this process and checks the simulated outputs. Repeats continue until the
next one would overrun ``--seconds``. ``--trace 0`` reports the end-to-end
metrics (medians over repeats); ``--trace 1`` adds one traced repeat and
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; ``attempted``
counts simulation runs (a sweep repeat is 120 of them).

``--smoke`` runs every workload at a tiny size through both paths and
checks that every metric named in BENCHMARK.json is reported; ``--shape``
prints task and event counts of each workload for the default and held-out
seeds. The benchmark writes files only under ``--out DIR``, when given.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed the benchmark uses unless told otherwise, and the seed kept back
#: for checking a claimed gain on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

SWEEP_SCENARIOS = ("classroom_homogeneous", "satellite_imaging", "edge_ai", "edge_cloud")
SWEEP_SCHEDULERS = ("FCFS", "MECT", "MM", "MSD", "SUFFERAGE")

#: name -> (preset, preset overrides) or the sweep grid, at full and smoke size.
WORKLOADS: dict[str, dict[str, Any]] = {
    "fed_scale": {
        "full": ("scale_federation", {}),
        "smoke": ("scale_federation", {"n_clusters": 3, "machines_per_type": 1, "duration": 40.0}),
    },
    "tree_wan": {
        "full": ("hier_3region", {"duration": 2400.0}),
        "smoke": ("hier_3region", {"duration": 60.0}),
    },
    "sweep_classroom": {
        "full": (SWEEP_SCENARIOS, SWEEP_SCHEDULERS, tuple(range(6)), None),
        "smoke": (SWEEP_SCENARIOS, ("FCFS", "MM"), (0,), 60.0),
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "core.kernel.self_s": "s",
    "core.events": "count",
    "core.pushes": "count",
    "core.cancels": "count",
    "core.cancelled_ratio": "ratio",
    "scheduling.batch.calls": "count",
    "scheduling.batch.self_s": "s",
    "scheduling.batch.pending_mean": "tasks",
    "scheduling.batch.useful_ratio": "ratio",
    "scheduling.immediate.calls": "count",
    "scheduling.immediate.self_s": "s",
    "gateway.calls": "count",
    "gateway.self_s": "s",
    "gateway.us_per_call": "us",
    "net.wan.calls": "count",
    "net.wan.self_s": "s",
    "net.wan.delivered_ratio": "ratio",
    "metrics.record.calls": "count",
    "metrics.record.self_s": "s",
    "metrics.result_s": "s",
    "scenarios.build_s": "s",
    "tasks.workload_s": "s",
    "engine.construct_s": "s",
    "experiments.cell_overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer metrics whose sum must equal the traced wall time.
WALL_PARTITION = (
    "core.kernel.self_s",
    "scheduling.batch.self_s",
    "scheduling.immediate.self_s",
    "gateway.self_s",
    "net.wan.self_s",
    "metrics.record.self_s",
    "metrics.result_s",
    "scenarios.build_s",
    "tasks.workload_s",
    "engine.construct_s",
    "experiments.cell_overhead_s",
    "trace.unattributed_s",
)


def import_program() -> None:
    """Make this checkout's ``src/repro`` importable, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# -- one simulation cell -------------------------------------------------------------


@dataclass
class Cell:
    """Timing and checks of one simulation run."""

    setup_s: float
    run_s: float
    events: int
    tasks: int
    digest: str
    problems: list[str]
    links: tuple[int, int] = (0, 0)  # WAN (delivered, attempted), simulated


def digest(result: Any) -> str:
    """Hash of the simulated outputs: summary, event count, routing."""
    payload = {
        "summary": result.summary.as_dict(),
        "events": result.events_processed,
        "routing": getattr(result, "routing", None),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check(sim: Any, result: Any) -> list[str]:
    """Violations of the invariants every run must keep."""
    problems = []
    terminal = sum(sim.counts().values())
    if terminal != len(sim.workload):
        problems.append(f"{terminal} terminal tasks of {len(sim.workload)}")
    links = getattr(result, "wan_links", {})
    tree = getattr(result, "tree", None)
    if tree is not None:
        for node in tree:
            s = node.stats
            if s["wan_attempted"] != s["wan_delivered"] + s["wan_cancelled_in_flight"]:
                problems.append(f"WAN conservation broken at tree node {node.path}")
        abandoned = sum(usage.abandoned for usage in links.values())
        if abandoned != tree.root.stats["wan_cancelled_in_flight"]:
            problems.append("WAN links abandoned != transfers cancelled in flight")
    elif hasattr(result, "routing"):
        # Flat federation: every offload is one transfer on the direct link
        # between its origin and destination.
        attempted: dict[str, int] = {}
        for src, row in result.routing.items():
            for dst, count in row.items():
                if src != dst and count:
                    a, b = sim.topology.link_key(src, dst)
                    label = f"{a}<->{b}" if f"{a}<->{b}" in links else f"{a}->{b}"
                    attempted[label] = attempted.get(label, 0) + count
        for label in set(attempted) | set(links):
            usage = links.get(label)
            closed = usage.delivered + usage.abandoned if usage else 0
            if attempted.get(label, 0) != closed:
                problems.append(f"WAN link {label}: attempted != delivered + cancelled")
    return problems


class Probe:
    """Builds, runs, times and checks the simulation cells of one repeat."""

    def __init__(self, tracer: Any = None, patcher: Any = None) -> None:
        from repro.scenarios import build_scenario

        self.cells: list[Cell] = []
        self.tracer = tracer
        self.patcher = patcher
        self._build = build_scenario if tracer is None else tracer.wrap(build_scenario, "scenarios.build")
        self._build_s = 0.0

    def build(self, name: str, **overrides: Any) -> Any:
        t0 = clock()
        scenario = self._build(name, **overrides)
        self._build_s = clock() - t0
        return scenario

    def run_scenario(self, scenario: Any, replication: int = 0) -> Any:
        """Stand-in for ``Scenario.run``: the same two calls, timed apart."""
        t0 = clock()
        sim = scenario.build_simulator(replication=replication)
        setup_s = self._build_s + clock() - t0
        if self.tracer is not None:
            self.tracer.run = len(self.cells)
            self.tracer.instrument(self.patcher, sim)
        t1 = clock()
        result = sim.run()
        run_s = clock() - t1
        links = getattr(result, "wan_links", {}).values()
        delivered = sum(u.delivered for u in links)
        self.cells.append(
            Cell(
                setup_s=setup_s,
                run_s=run_s,
                events=result.events_processed,
                tasks=len(sim.workload),
                digest=digest(result),
                problems=check(sim, result),
                links=(delivered, delivered + sum(u.abandoned for u in links)),
            )
        )
        return result


# -- one repeat ----------------------------------------------------------------------


@dataclass
class Repeat:
    wall_s: float
    cells: list[Cell]
    error: str | None = None
    unrestored: list[str] = field(default_factory=list)
    tracer: Any = None


def n_cells(workload: str, size: str) -> int:
    spec = WORKLOADS[workload][size]
    return len(spec[0]) * len(spec[1]) * len(spec[2]) if workload == "sweep_classroom" else 1


def run_repeat(workload: str, seed: int, size: str, traced: bool) -> Repeat:
    from repro.core.config import Scenario
    from repro.experiments import CampaignSpec, execute_campaign, runner
    from spans import Patcher, Tracer

    patcher = Patcher()
    tracer = Tracer() if traced else None
    probe = Probe(tracer, patcher)
    spec = WORKLOADS[workload][size]
    error = None
    gc.collect()
    t0 = clock()
    try:
        if tracer is not None:
            tracer.patch_entry_points(patcher)
        if workload == "sweep_classroom":
            scenarios, schedulers, grid_seeds, duration = spec
            patcher.patch(runner, "build_scenario", lambda f: probe.build)
            patcher.patch(
                Scenario,
                "run",
                lambda f: lambda self, *, replication=0: probe.run_scenario(self, replication),
            )
            overrides = {} if duration is None else {"duration": duration}
            t0 = clock()
            execute_campaign(
                CampaignSpec(
                    scenarios=[{"name": s, "overrides": overrides} for s in scenarios],
                    schedulers=list(schedulers),
                    seeds=list(grid_seeds),
                    seed=seed,
                    name=workload,
                )
            )
        else:
            preset, overrides = spec
            t0 = clock()
            probe.run_scenario(probe.build(preset, seed=seed, **overrides))
    except Exception as exc:  # a failing run is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall_s = clock() - t0
        patcher.restore()
    return Repeat(wall_s, probe.cells, error, patcher.unrestored(), tracer)


# -- a whole benchmark run -----------------------------------------------------------


def count_failures(repeats: list[Repeat], expected: int, reference: list[str]) -> int:
    """Failed simulation runs: raised or unfinished, broke an invariant, or
    simulated differently from the first repeat of the same seed."""
    failed = 0
    for repeat in repeats:
        failed += expected - len(repeat.cells)
        for i, cell in enumerate(repeat.cells):
            if cell.problems or i >= len(reference) or cell.digest != reference[i]:
                failed += 1
    return failed


def measure(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict[str, Any]:
    expected = n_cells(workload, size)
    repeats: list[Repeat] = []
    start = clock()
    while True:
        t0 = clock()
        repeats.append(run_repeat(workload, seed, size, traced=False))
        if clock() - start + (clock() - t0) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = [cell.digest for cell in repeats[0].cells]
    problems = [p for r in repeats for c in r.cells for p in c.problems]
    problems += [r.error for r in repeats if r.error]
    walls = [r.wall_s for r in repeats]
    setups = [sum(c.setup_s for c in r.cells) for r in repeats]
    runs = [sum(c.run_s for c in r.cells) for r in repeats]
    rates = [sum(c.events for c in r.cells) / run_s for r, run_s in zip(repeats, runs) if r.cells]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(rates or [0.0]),
        "peak_rss_mb": peak_rss_mb,
    }
    all_runs = repeats[:]
    layers: dict[str, float] = {}
    spans: list[list[Any]] = []
    trace_ok = True
    if traced:
        traced_repeat = run_repeat(workload, seed, size, traced=True)
        all_runs.append(traced_repeat)
        if traced_repeat.error:
            problems.append(f"traced: {traced_repeat.error}")
        if traced_repeat.unrestored:
            problems.append(f"not restored after tracing: {traced_repeat.unrestored}")
            trace_ok = False
        spans = traced_repeat.tracer.spans
        layers = traced_repeat.tracer.layer_metrics(traced_repeat.wall_s)
        cells = traced_repeat.cells
        layers["core.events"] = float(sum(c.events for c in cells))
        delivered = sum(c.links[0] for c in cells)
        attempted_links = sum(c.links[1] for c in cells)
        layers["net.wan.delivered_ratio"] = delivered / attempted_links if attempted_links else 0.0
        layers["trace.overhead_s"] = traced_repeat.wall_s - e2e["wall_s"]
        covered = sum(layers[name] for name in WALL_PARTITION)
        if abs(covered - traced_repeat.wall_s) > 1e-6 * max(1.0, traced_repeat.wall_s):
            problems.append(f"layers cover {covered:.6f} s of a {traced_repeat.wall_s:.6f} s traced wall")
            trace_ok = False
    attempted = expected * len(all_runs)
    failed = count_failures(all_runs, expected, reference)
    e2e["ok_frac"] = (attempted - failed) / attempted
    return {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layers,
        "spans": spans,
        "problems": problems,
        "repeats": len(repeats),
        "raw": {"wall_s": walls, "setup_s": setups, "run_s": runs},
        "shape": {
            "tasks": sum(c.tasks for c in repeats[0].cells),
            "events": sum(c.events for c in repeats[0].cells),
        },
    }


# -- host manifest -------------------------------------------------------------------


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def manifest(workload: str, seed: int, seconds: float, traced: bool, repeats: int) -> dict[str, Any]:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "repeats": repeats,
    }


# -- entry points --------------------------------------------------------------------


def report(workload: str, seed: int, seconds: float, traced: bool, out: Path | None) -> dict[str, Any]:
    outcome = measure(workload, seed, seconds, traced)
    spans = outcome.pop("spans")
    record = {"manifest": manifest(workload, seed, seconds, traced, outcome["repeats"]), **outcome}
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = outcome["per_layer"] if traced else outcome["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    problems = outcome["problems"]
    for problem in problems[:10]:
        print(f"problem: {problem}")
    if len(problems) > 10:
        print(f"problem: ... and {len(problems) - 10} more")
    print(f"failed_frac = {outcome['failed']}/{outcome['attempted']} runs")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print("manifest: " + json.dumps(record["manifest"], sort_keys=True))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{workload}-seed{seed}-trace{int(traced)}"
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        if spans:
            with stem.with_suffix(".spans.jsonl").open("w", encoding="utf-8") as lines:
                lines.writelines(json.dumps(span) + "\n" for span in spans)
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def smoke() -> bool:
    """Every workload, tiny, untraced and traced: all named metrics present."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"] for m in declared["end_to_end"]}
    want_layers = {m["name"] for m in declared["per_layer"]}
    want_workloads = {w["name"] for w in declared["workloads"]}
    ok = want_workloads == set(WORKLOADS)
    for workload in WORKLOADS:
        outcome = measure(workload, DEFAULT_SEED, 0.0, traced=True, size="smoke")
        e2e, layers = set(outcome["end_to_end"]), set(outcome["per_layer"])
        passed = (
            outcome["correct"]
            and e2e == want_e2e == set(END_TO_END_UNITS)
            and layers == want_layers == set(PER_LAYER_UNITS)
        )
        ok &= passed
        print(
            f"smoke {workload}: {'ok' if passed else 'FAILED'} "
            f"({outcome['attempted']} runs, {len(e2e)} end-to-end, {len(layers)} per-layer; "
            f"missing {sorted((want_e2e - e2e) | (want_layers - layers))}; problems {outcome['problems']})"
        )
    return ok


def shape() -> bool:
    """Task and event counts for the default and held-out seeds."""
    ok = True
    for workload in WORKLOADS:
        counts = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            outcome = measure(workload, seed, 0.0, traced=False)
            counts[seed] = outcome["shape"]
            ok &= outcome["correct"]
        for key in ("tasks", "events"):
            low, high = sorted(c[key] for c in counts.values())
            ok &= high < 10 * low
        print(f"shape {workload}: " + json.dumps(counts))
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for the full record (nothing is written without it)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--shape", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_program()
    if args.smoke:
        return 0 if smoke() else 1
    if args.shape:
        return 0 if shape() else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = report(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
