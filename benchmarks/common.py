"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the relevant (application × configuration) sweep inside ``benchmark.pedantic``
(one round — these are simulations, not microbenchmarks), prints the rendered
rows, and archives them under ``benchmarks/results/`` so the EXPERIMENTS.md
numbers can be traced to a concrete run.  Each archived file also records the
wall-clock seconds of the run that produced it (from :func:`run_once`, or an
explicit ``elapsed=`` argument).  Those seconds are a note, not a
measurement: timing claims are made with ``perfbench/run.py`` (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-app scales for benchmark runs — large enough to be representative,
#: small enough that the whole harness finishes in a few minutes.
INTRA_SCALE = 1.0
INTER_SCALE = 1.0

#: Wall-clock seconds of the most recent :func:`run_once`; picked up by
#: :func:`save_result` so every archived file records how long it took.
LAST_RUN_SECONDS: float | None = None


def save_result(name: str, text: str, *, elapsed: float | None = None) -> None:
    """Archive *text* (plus wall-clock seconds) and echo it to stdout."""
    if elapsed is None:
        elapsed = LAST_RUN_SECONDS
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    body = text + "\n"
    if elapsed is not None:
        body += f"\n[wall-clock: {elapsed:.3f} s]\n"
    (RESULTS_DIR / f"{name}.txt").write_text(body)
    print(f"\n=== {name} ===")
    print(text)


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark and return its result."""
    global LAST_RUN_SECONDS
    t0 = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
    LAST_RUN_SECONDS = time.perf_counter() - t0
    return result
