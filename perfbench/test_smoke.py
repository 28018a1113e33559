"""Smoke test of the benchmark itself: ``python -m pytest perfbench``.

Runs every workload at a tiny size through the untraced and the traced path
and requires every metric BENCHMARK.json names to be reported, then checks
the result-line contract on one real invocation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def test_smoke_reports_every_metric() -> None:
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 3


def test_result_line_contract(tmp_path: Path) -> None:
    proc = run(
        "--workload", "tree_wan", "--seed", "3", "--seconds", "0",
        "--trace", "0", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    declared = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    record = json.loads((tmp_path / "tree_wan-seed3-trace0.json").read_text())
    assert record["manifest"]["seed"] == 3 and record["manifest"]["cpu_count"]


def test_patcher_restores_every_kind_of_attribute() -> None:
    sys.path[:0] = [str(RUN.parent.parent / "src"), str(RUN.parent)]
    from repro.core.event_queue import EventQueue
    from repro.experiments import runner
    from repro.net.wan import WanManager
    from spans import Patcher, Tracer

    tracer, patcher, queue = Tracer(), Patcher(), EventQueue()
    originals = (vars(WanManager)["on_link_event"], runner._execute_cell)
    patcher.patch(WanManager, "on_link_event", lambda f: tracer.wrap(f, "net.wan"))
    patcher.patch(runner, "_execute_cell", lambda f: tracer.wrap(f, "experiments.cell"))
    patcher.patch(queue, "push", lambda f: tracer.wrap(f, "core.push"))
    assert isinstance(vars(WanManager)["on_link_event"], staticmethod)
    assert "push" in vars(queue)
    patcher.restore()
    assert patcher.unrestored() == []
    assert (vars(WanManager)["on_link_event"], runner._execute_cell) == originals
    assert "push" not in vars(queue)
