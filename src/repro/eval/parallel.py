"""Parallel sweep execution over the (application × configuration) matrix.

The paper's evaluation is an embarrassingly parallel matrix — Figures 9–12
alone cover ~40 independent simulations — and every cell is deterministic,
so cells can be fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and/or served from the persistent :class:`~repro.eval.cache.ResultCache`
without changing a single statistic.  :class:`SweepExecutor` runs the
cells of every compiled job (:func:`repro.serve.jobs.run_job`) and of
:func:`sweep_matrix`, so every caller (CLI, job server, benchmarks)
inherits parallelism and caching.

Execution strategy per batch of cells:

1. cells with a cache hit are rehydrated and never simulated;
2. the remaining cells run on a process pool of ``jobs`` workers, with a
   per-cell ``timeout`` and up to ``retries`` resubmissions on timeout;
3. with ``jobs=1``, a single pending cell, or an unavailable pool (no
   ``fork``/semaphores, broken workers, sandboxed environments), cells fall
   back to plain in-process serial execution — same results, no pool.

Results are returned in cell order regardless of completion order, and
fresh results are written back to the cache.
"""

from __future__ import annotations

import os
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.errors import ConfigError, SweepError
from repro.core.config import ExperimentConfig
from repro.eval.cache import ResultCache
from repro.eval.runner import RunResult, run_inter, run_intra, run_litmus


@dataclass(frozen=True)
class SweepCell:
    """One (application, configuration) point of a sweep matrix.

    ``kwargs`` is a sorted tuple of the runner keyword arguments so the cell
    is hashable, picklable, and has a canonical form for cache keying.
    """

    kind: str  # "intra" | "inter" | "litmus" | "gen"
    app: str
    config: ExperimentConfig
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, kind: str, app: str, config: ExperimentConfig, **kwargs
    ) -> "SweepCell":
        """Build a cell with kwargs canonicalized into sorted tuple form."""
        return cls(kind, app, config, tuple(sorted(kwargs.items())))


def _run_cell(cell: SweepCell) -> RunResult:
    """Execute one cell (module-level so the process pool can pickle it)."""
    kwargs = dict(cell.kwargs)
    if cell.kind == "intra":
        return run_intra(cell.app, cell.config, **kwargs)
    if cell.kind == "inter":
        return run_inter(cell.app, cell.config, **kwargs)
    if cell.kind == "litmus":
        return run_litmus(cell.app, cell.config, **kwargs)
    if cell.kind == "gen":
        from repro.workloads.gen import run_gen

        return run_gen(kwargs.pop("spec"), cell.config, **kwargs)
    raise ConfigError(f"unknown sweep kind {cell.kind!r}")


@dataclass
class SweepStats:
    """Counters accumulated across every batch an executor runs."""

    jobs: int = 1
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    retries: int = 0
    pool_fallbacks: int = 0
    wall_seconds: float = 0.0
    #: Simulated cells per CPU loop taken (``RunResult.cpu_loop``).
    cpu_loops: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable digest of the accumulated counters."""
        parts = [
            f"{self.cells} cell(s) in {self.wall_seconds:.2f}s",
            f"jobs={self.jobs}",
            f"cache {self.cache_hits} hit(s) / {self.cache_misses} miss(es)",
        ]
        if self.retries:
            parts.append(f"{self.retries} retry(ies)")
        if self.pool_fallbacks:
            parts.append(f"{self.pool_fallbacks} serial fallback(s)")
        return "sweep: " + ", ".join(parts)


class SweepExecutor:
    """Fans sweep cells out over worker processes, backed by a result cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``.  ``jobs=1``
        always runs in-process (no pool, no pickling).
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely and
        fresh results are written back.
    timeout:
        Per-cell wall-clock budget in seconds (pool mode only — a serial
        in-process run cannot be interrupted).
    retries:
        How many times a timed-out cell is resubmitted before
        :class:`~repro.common.errors.SweepError` is raised.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1 (got {jobs})")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0 (got {retries})")
        self.jobs = int(jobs)
        self.cache = cache
        self.timeout = timeout
        self.retries = int(retries)
        self.stats = SweepStats(jobs=self.jobs)

    # -- public API ---------------------------------------------------------

    def run_cells(self, cells: Sequence[SweepCell]) -> list[RunResult]:
        """Run every cell; results come back in input order."""
        t0 = time.perf_counter()
        results: list[RunResult | None] = [None] * len(cells)
        pending: list[int] = []
        for i, cell in enumerate(cells):
            self.stats.cells += 1
            if self.cache is not None:
                hit = self.cache.get(cell)
                if hit is not None:
                    self.stats.cache_hits += 1
                    results[i] = hit
                    continue
                self.stats.cache_misses += 1
            pending.append(i)

        if pending:
            todo = [cells[i] for i in pending]
            if self.jobs > 1 and len(todo) > 1:
                computed = self._run_pool(todo)
            else:
                computed = [_run_cell(c) for c in todo]
            self.stats.simulated += len(todo)
            loops = self.stats.cpu_loops
            for i, result in zip(pending, computed):
                results[i] = result
                if result.cpu_loop is not None:
                    loops[result.cpu_loop] = loops.get(result.cpu_loop, 0) + 1
                if self.cache is not None:
                    self.cache.put(cells[i], result)

        self.stats.wall_seconds += time.perf_counter() - t0
        return results  # type: ignore[return-value]

    # -- pool plumbing ------------------------------------------------------

    def _run_pool(self, cells: list[SweepCell]) -> list[RunResult]:
        try:
            pool = futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(cells))
            )
        except (OSError, ValueError, NotImplementedError, PermissionError):
            # No fork / no POSIX semaphores (sandboxes, exotic platforms):
            # degrade to serial in-process execution, bit-identical results.
            self.stats.pool_fallbacks += 1
            return [_run_cell(c) for c in cells]
        try:
            out = self._drain(pool, cells)
        except futures.process.BrokenProcessPool:
            # A worker died (OOM-killed, signalled).  Rerun the whole batch
            # serially: the simulator is deterministic, so this only costs
            # time, never accuracy.
            self.stats.pool_fallbacks += 1
            pool.shutdown(wait=False, cancel_futures=True)
            return [_run_cell(c) for c in cells]
        except BaseException:
            # SweepError (hung worker) or a simulation failure: don't block
            # on shutdown waiting for workers we can no longer trust.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return out

    def _drain(
        self, pool: futures.ProcessPoolExecutor, cells: list[SweepCell]
    ) -> list[RunResult]:
        outstanding = {i: pool.submit(_run_cell, c) for i, c in enumerate(cells)}
        out: list[RunResult | None] = [None] * len(cells)
        for i, cell in enumerate(cells):
            attempts = 0
            while True:
                try:
                    out[i] = outstanding[i].result(timeout=self.timeout)
                    break
                except futures.TimeoutError:
                    attempts += 1
                    if attempts > self.retries:
                        raise SweepError(
                            f"sweep cell ({cell.app}, {cell.config.name}) "
                            f"exceeded {self.timeout}s {attempts} time(s)"
                        ) from None
                    self.stats.retries += 1
                    outstanding[i].cancel()
                    outstanding[i] = pool.submit(_run_cell, cell)
        return out  # type: ignore[return-value]


def sweep_matrix(
    kind: str,
    apps: Sequence[str],
    configs: Sequence[ExperimentConfig],
    executor: SweepExecutor | None = None,
    **kwargs,
) -> dict[str, dict[str, RunResult]]:
    """Run the full (app × config) matrix; returns {app: {config: result}}."""
    executor = executor or SweepExecutor()
    cells = [
        SweepCell.make(kind, app, cfg, **kwargs) for app in apps for cfg in configs
    ]
    flat = iter(executor.run_cells(cells))
    return {app: {cfg.name: next(flat) for cfg in configs} for app in apps}
