"""Repeatable wall-clock measurement with JSON archival (``BENCH_*.json``).

The benchmark harness under ``benchmarks/`` regenerates paper artifacts;
this module adds the *performance-trajectory* layer on top: run a sweep
callable several times (``--warmup``/``--repeat``), summarize the wall
clock as median + p95, and archive the record — engine name, git revision,
per-run seconds — as ``BENCH_<name>.json`` at the repository root.  Records
are append-friendly snapshots: comparing two files from different
revisions (or the same revision under ``ref`` vs ``fast``) is how the
simulator's speed is tracked over time.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import statistics
import subprocess
import time
from typing import Any, Callable

#: Repository root (this file lives at src/repro/eval/bench.py).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def git_rev(root: pathlib.Path | None = None) -> str:
    """Short git revision of *root* (default: the repo), or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (q in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark so far, in MiB."""
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    fn: Callable[[], Any], *, warmup: int = 0, repeat: int = 1
) -> tuple[Any, list[float]]:
    """Call *fn* ``warmup`` untimed + ``repeat`` timed times.

    Returns (the last timed call's result, per-run wall-clock seconds).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    for _ in range(max(0, warmup)):
        fn()
    seconds: list[float] = []
    result: Any = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - t0)
    return result, seconds


def record(
    name: str,
    seconds: list[float],
    *,
    engine: str | None = None,
    warmup: int = 0,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the archival payload for one measured benchmark.

    ``engine`` is resolved the way every Machine resolves it (``None``
    means ``$REPRO_ENGINE``, else ``ref``), so records always name the
    core that actually produced the numbers.  Called after the timed runs,
    it also archives ``peak_rss_mb``, the process's memory high-water mark
    so far, so a memory claim is recorded the way a speed claim is.
    """
    from repro.engines import resolve_engine

    payload: dict[str, Any] = {
        "name": name,
        "engine": resolve_engine(engine).name,
        "git_rev": git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "warmup": warmup,
        "repeat": len(seconds),
        "runs_s": [round(s, 6) for s in seconds],
        "median_s": round(statistics.median(seconds), 6),
        "p95_s": round(percentile(seconds, 95), 6),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    if extra:
        payload.update(extra)
    return payload


def write_bench_json(
    payload: dict[str, Any], out: str | os.PathLike | None = None
) -> pathlib.Path:
    """Write *payload* to ``BENCH_<name>.json`` (or *out*); return the path."""
    path = (
        pathlib.Path(out)
        if out is not None
        else REPO_ROOT / f"BENCH_{payload['name']}.json"
    )
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
