"""Sweep-engine throughput: serial vs parallel vs persistent-cache rerun.

Runs the same 4-app × 4-config intra-block matrix three ways — in-process
serial (``jobs=1``), fanned out over worker processes (``jobs=4`` capped at
the CPU count), and a second fully-cached pass against a fresh on-disk
result cache — and archives the wall-clock times and speedups.  Every mode
must produce bit-identical statistics per cell (same ``exec_time``, same
stall breakdown); the ≥2× parallel-speedup assertion only applies on
machines with ≥4 CPUs, and the cached rerun must beat serial by ≥5×
(typically ≥100×: a hit is one JSON read instead of a simulation).
"""

import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import run_once, save_result

from repro.common.params import intra_block_machine
from repro.core.config import INTRA_BASE, INTRA_BM, INTRA_BMI, INTRA_HCC
from repro.eval.cache import ResultCache
from repro.eval.parallel import SweepExecutor, sweep_matrix

APPS = ["fft", "lu_cont", "raytrace", "volrend"]
CONFIGS = [INTRA_HCC, INTRA_BASE, INTRA_BM, INTRA_BMI]
KW = dict(num_threads=4, scale=0.5, machine_params=intra_block_machine(4))
PARALLEL_JOBS = min(4, os.cpu_count() or 1)


def _cells(results):
    """Flatten a sweep dict to {(app, config): (exec_time, breakdown)}."""
    return {
        (app, cfg): (r.exec_time, r.breakdown(), r.stats.summary())
        for app, per_cfg in results.items()
        for cfg, r in per_cfg.items()
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _sweep(executor):
    return sweep_matrix("intra", APPS, CONFIGS, executor, **KW)


def sweep():
    """Serial vs parallel vs cached sweep timing; returns the report text."""
    serial, t_serial = _timed(lambda: _sweep(SweepExecutor(jobs=1)))
    parallel, t_parallel = _timed(
        lambda: _sweep(SweepExecutor(jobs=PARALLEL_JOBS))
    )
    with tempfile.TemporaryDirectory() as tmp:
        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp))
        _sweep(warm)
        hot = SweepExecutor(jobs=1, cache=ResultCache(tmp))
        cached, t_cached = _timed(lambda: _sweep(hot))
        assert warm.stats.cache_misses == len(APPS) * len(CONFIGS)
        assert hot.stats.cache_hits == len(APPS) * len(CONFIGS)

    # Correctness before speed: all three modes must agree bit-for-bit.
    assert _cells(serial) == _cells(parallel), "parallel diverged from serial"
    assert _cells(serial) == _cells(cached), "cache rehydration diverged"

    par_speedup = t_serial / max(t_parallel, 1e-9)
    cache_speedup = t_serial / max(t_cached, 1e-9)
    if PARALLEL_JOBS >= 4:
        assert par_speedup >= 2.0, (
            f"expected >=2x at jobs={PARALLEL_JOBS}, got {par_speedup:.2f}x"
        )
    assert cache_speedup >= 5.0, (
        f"expected >=5x on a fully-cached rerun, got {cache_speedup:.2f}x"
    )

    rows = [
        f"{'mode':10s} {'wall s':>10s} {'speedup':>9s}",
        f"{'serial':10s} {t_serial:10.3f} {1.0:9.2f}",
        f"{'parallel':10s} {t_parallel:10.3f} {par_speedup:9.2f}"
        f"   (jobs={PARALLEL_JOBS}, cpus={os.cpu_count()})",
        f"{'cached':10s} {t_cached:10.3f} {cache_speedup:9.2f}",
        "",
        f"matrix: {len(APPS)} apps x {len(CONFIGS)} configs "
        f"= {len(APPS) * len(CONFIGS)} cells "
        f"(4 threads, scale {KW['scale']}); all modes bit-identical",
    ]
    return "\n".join(rows)


def test_sweep_throughput(benchmark):
    save_result("sweep_throughput", run_once(benchmark, sweep))
