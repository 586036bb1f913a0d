"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the relevant (application × configuration) sweep inside ``benchmark.pedantic``
(one round — these are simulations, not microbenchmarks), prints the rendered
rows, and archives them under ``benchmarks/results/`` so the EXPERIMENTS.md
numbers can be traced to a concrete run.  Each archived file also records the
wall-clock seconds of the run that produced it (from :func:`run_once`, or an
explicit ``elapsed=`` argument).

Each ``bench_*.py`` file is also directly runnable —
``python benchmarks/bench_fig9_intra_time.py --engine fast --warmup 1
--repeat 3`` — via :func:`bench_main`, which times the sweep and archives
median/p95 wall clock (plus engine and git revision) as ``BENCH_<name>.json``
at the repository root.  That is the performance-trajectory record described
in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Any, Callable

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


def bench_main(
    name: str, fn: Callable[[], Any], argv: list[str] | None = None
) -> int:
    """Standalone entry point for one benchmark file.

    Parses ``--engine/--warmup/--repeat/--out``, times *fn* accordingly,
    and archives the median/p95 record as ``BENCH_<name>.json`` (see
    :mod:`repro.eval.bench`).  ``--engine`` is exported as
    ``$REPRO_ENGINE`` so every machine built inside the sweep — including
    in worker processes — resolves the requested core.
    """
    import os

    from repro.engines import available_engines
    from repro.eval import bench

    parser = argparse.ArgumentParser(description=f"benchmark {name}")
    parser.add_argument(
        "--engine", choices=available_engines(), default=None,
        help="simulator core to measure (default: $REPRO_ENGINE or ref)",
    )
    parser.add_argument(
        "--warmup", type=int, default=0,
        help="untimed runs before measurement (default: 0)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="timed runs; median and p95 are archived (default: 1)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: BENCH_<name>.json at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine
    _, seconds = bench.measure(fn, warmup=args.warmup, repeat=args.repeat)
    payload = bench.record(name, seconds, warmup=args.warmup)
    path = bench.write_bench_json(payload, args.out)
    print(
        f"{name}: engine={payload['engine']} rev={payload['git_rev']} "
        f"median={payload['median_s']:.3f}s p95={payload['p95_s']:.3f}s "
        f"({payload['repeat']} run(s)) -> {path}"
    )
    return 0
