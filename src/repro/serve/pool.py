"""Bounded async worker pool executing job units over the sweep engine.

The pool is the server's execution backend: ``workers`` asyncio worker
tasks pull :class:`WorkItem` entries off one FIFO queue and run each
unit on a shared thread pool.  Cell units go through a fresh single-cell
:class:`~repro.eval.parallel.SweepExecutor` (``jobs=1``, so the executor
is confined to its thread) that fronts the server-wide shared
:class:`~repro.eval.cache.ResultCache` — identical cells from any number
of clients simulate once and rehydrate everywhere else, and per-unit
hit/miss counters flow back to the job so every response can say how much
work the cache absorbed.

Resilience: a unit that raises (or exceeds ``timeout`` seconds) is
retried up to ``retries`` times before its failure is reported; the
simulator is deterministic, so a retry can only cost time, never change
a result.  A seeded :class:`WorkerFaultPlan` can inject worker crashes or
stalls in front of real units — the serve-layer analogue of :mod:`repro.faults` —
which is how the tests prove that retry keeps served results bit-identical
under a flaky worker pool.

Thread-interruption caveat: Python threads cannot be killed, so a timed-out
unit's thread keeps running to completion in the background; the pool
simply stops waiting for it, charges the retry, and re-submits.  This
bounds *observed* latency, not worst-case CPU.
"""

from __future__ import annotations

import asyncio
import time
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.eval.cache import ResultCache
from repro.eval.parallel import SweepExecutor
from repro.serve.jobs import Unit

#: Queue sentinel that tells one worker task to exit.
_STOP = object()


class WorkerCrash(RuntimeError):
    """Injected worker failure (see :class:`WorkerFaultPlan`)."""


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Seeded serve-layer fault injection: crash or stall worker attempts.

    ``rate`` is the per-attempt firing probability drawn from one
    deterministic stream (:func:`repro.common.rng.make_rng` keyed by
    ``seed``), so a given (plan, submission order) reproduces exactly.
    ``kind`` selects the failure mode: ``crash`` raises
    :class:`WorkerCrash` before the unit runs; ``stall`` sleeps
    ``stall_s`` seconds first (long enough to trip a configured unit
    timeout in tests).
    """

    rate: float = 0.0
    seed: int = DEFAULT_SEED
    kind: str = "crash"
    stall_s: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1] (got {self.rate})")
        if self.kind not in ("crash", "stall"):
            raise ConfigError(f"fault kind must be crash|stall (got {self.kind})")


@dataclass
class UnitOutcome:
    """Everything the pool learned from running (or skipping) one unit."""

    result: Any = None
    error: str | None = None
    skipped: bool = False
    reason: str | None = None
    attempts: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0

    @property
    def ok(self) -> bool:
        """True when the unit produced a result."""
        return not self.skipped and self.error is None


@dataclass(frozen=True)
class WorkItem:
    """One queued unit plus the callbacks that wire it back to its job.

    ``should_run`` is consulted at dequeue time — a cancelled or failing
    job's pending units are skipped in O(1), immediately freeing the
    worker slot for other jobs.  ``on_start`` fires when a worker begins
    the unit and ``on_done`` with the final :class:`UnitOutcome`; both run
    on the event-loop thread, so they may touch job state without locks.
    """

    unit: Unit
    should_run: Callable[[], bool]
    on_start: Callable[[], None]
    on_done: Callable[[UnitOutcome], None]


class WorkerPool:
    """``workers`` asyncio pullers over one shared thread pool + cache."""

    def __init__(
        self,
        *,
        workers: int = 4,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        retries: int = 1,
        faults: WorkerFaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1 (got {workers})")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0 (got {retries})")
        self.workers = int(workers)
        self.cache = cache
        self.timeout = timeout
        self.retries = int(retries)
        self.faults = faults
        self._rng = (
            make_rng("serve-worker-faults", faults.seed)
            if faults is not None and faults.rate > 0
            else None
        )
        self._queue: asyncio.Queue = asyncio.Queue()
        self._threads = futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._tasks: list[asyncio.Task] = []
        self.in_flight = 0
        self.units_run = 0
        self.units_failed = 0
        self.retries_used = 0

    # -- queue interface -----------------------------------------------------

    def depth(self) -> int:
        """Units queued but not yet picked up by a worker."""
        return self._queue.qsize()

    def load(self) -> int:
        """Queued plus in-flight units (the backpressure measure)."""
        return self.depth() + self.in_flight

    def put(self, item: WorkItem) -> None:
        """Enqueue one unit (admission control happens before this)."""
        self._queue.put_nowait(item)

    def run_in_thread(self, fn: Callable, *args):
        """Run *fn* on the pool's thread executor; returns an awaitable."""
        return asyncio.get_running_loop().run_in_executor(
            self._threads, fn, *args
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if not self._tasks:
            self._tasks = [
                asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
                for i in range(self.workers)
            ]

    async def stop(self) -> int:
        """Graceful shutdown: skip queued units, drain in-flight ones.

        Queued-but-unstarted units are reported to their jobs as skipped
        (reason ``shutdown``); units already on a worker run to completion
        first (their results are delivered normally).  Returns the number
        of units dropped.
        """
        dropped = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _STOP:
                continue
            dropped += 1
            item.on_done(UnitOutcome(skipped=True, reason="shutdown"))
        for _ in self._tasks:
            self._queue.put_nowait(_STOP)
        if self._tasks:
            await asyncio.gather(*self._tasks)
            self._tasks = []
        self._threads.shutdown(wait=True)
        return dropped

    # -- execution -----------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                return
            if not item.should_run():
                item.on_done(UnitOutcome(skipped=True, reason="cancelled"))
                continue
            self.in_flight += 1
            try:
                item.on_start()
                outcome = await self._run_unit(item.unit)
            finally:
                self.in_flight -= 1
            self.units_run += 1
            if outcome.error is not None:
                self.units_failed += 1
            item.on_done(outcome)

    def _draw_fault(self) -> str | None:
        """Decide (on the loop thread, deterministically) to inject a fault."""
        if self._rng is None or self.faults is None:
            return None
        return self.faults.kind if self._rng.random() < self.faults.rate else None

    async def _run_unit(self, unit: Unit) -> UnitOutcome:
        t0 = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            fault = self._draw_fault()
            try:
                result, hits, misses, simulated = await asyncio.wait_for(
                    self.run_in_thread(self._execute, unit, fault),
                    self.timeout,
                )
                return UnitOutcome(
                    result=result,
                    attempts=attempts,
                    seconds=time.perf_counter() - t0,
                    cache_hits=hits,
                    cache_misses=misses,
                    simulated=simulated,
                )
            except (Exception, asyncio.TimeoutError) as exc:
                if attempts > self.retries:
                    return UnitOutcome(
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempts,
                        seconds=time.perf_counter() - t0,
                    )
                self.retries_used += 1

    def _execute(self, unit: Unit, fault: str | None):
        """One attempt, on a worker thread.  Returns (result, hit, miss, sim)."""
        if fault == "crash":
            raise WorkerCrash("injected worker crash")
        if fault == "stall" and self.faults is not None:
            time.sleep(self.faults.stall_s)
        if unit.cell is not None:
            # A fresh jobs=1 executor per unit: in-process (no pickling),
            # confined to this thread (its counters race with nobody), and
            # fronted by the shared on-disk cache (atomic writes make
            # concurrent puts of the same cell safe — last writer wins
            # with identical bytes).
            ex = SweepExecutor(jobs=1, cache=self.cache)
            result = ex.run_cells([unit.cell])[0]
            return (
                result,
                ex.stats.cache_hits,
                ex.stats.cache_misses,
                ex.stats.simulated,
            )
        assert unit.fn is not None
        return unit.fn(), 0, 0, 1
