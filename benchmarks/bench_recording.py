"""Keyed result-file recording and timing shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable

#: Environment switch for the timing records. Throughput figures change on
#: every run, so rewriting the committed ``engine_throughput.{json,txt}``
#: and ``service_load.txt`` is opt-in: a plain test run leaves the working
#: tree clean. The regression gate reads ``--benchmark-json``, not these.
RECORD_ENV = "E2C_BENCH_RECORD"


def timing_records_enabled() -> bool:
    """Whether ``E2C_BENCH_RECORD`` asks for the timing records (set, not 0)."""
    return os.environ.get(RECORD_ENV, "0") not in ("", "0")


def run_timed(
    benchmark: Any, fn: Callable[[], Any], **pedantic: Any
) -> tuple[Any, float]:
    """Benchmark *fn*; return ``(result, mean wall seconds per call)``.

    Keyword arguments go to ``benchmark.pedantic``; without them the
    fixture calibrates its own rounds. Under ``--benchmark-disable`` the
    fixture calls *fn* once and keeps no stats, so the mean falls back to
    that one call's wall time and every throughput assertion still runs.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, **pedantic) if pedantic else benchmark(fn)
    elapsed = time.perf_counter() - start
    if benchmark.stats is None:
        return result, elapsed
    return result, benchmark.stats["mean"]


def record_result_line(path: Path, key: str, line: str) -> None:
    """Write ``key: line`` into *path*, replacing any previous entry for *key*.

    Result files are committed artifacts; blind appending made every local
    benchmark run accumulate duplicate lines. Keying each line by its
    benchmark id keeps exactly one (the latest) measurement per benchmark
    while preserving first-seen ordering for unrelated keys.
    """
    prefix = f"{key}: "
    lines = []
    if path.exists():
        lines = path.read_text(encoding="utf-8").splitlines()
    replaced = False
    for i, existing in enumerate(lines):
        if existing.startswith(prefix):
            lines[i] = prefix + line
            replaced = True
            break
    if not replaced:
        lines.append(prefix + line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_result_json(path: Path, key: str, payload: dict) -> None:
    """Merge ``{key: payload}`` into the JSON result file at *path*.

    The machine-readable twin of :func:`record_result_line`: one top-level
    object keyed by benchmark id, each value a flat dict of measurements
    (events, events/s, wall time, ...). Same replace-don't-append semantics,
    so the committed artifact stays one entry per benchmark. Keys are sorted
    on write to keep diffs stable across partial re-runs.
    """
    data: dict = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data[key] = payload
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
