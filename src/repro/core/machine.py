"""Machine assembly: parameters + configuration → runnable simulation.

A :class:`Machine` wires together the event engine, the physical hierarchy,
the selected protocol (a registered memory model from :mod:`repro.models`;
hardware-coherent Table II configurations always select directory MESI),
the synchronization controller, the shared address space,
and one CPU per spawned thread.  ``run()`` drives the event loop to
completion, records the execution time, then flushes caches (untimed, with
traffic accounting frozen) so callers can verify results in main memory.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.coherence.hierarchy import Hierarchy
from repro.coherence.threadmap import ThreadMapTable
from repro.common.errors import ConfigError
from repro.common.params import MachineParams
from repro.core.annotate import Annotator
from repro.core.config import ExperimentConfig
from repro.core.context import OpStream, ThreadCtx
from repro.core.cpu import CPU
from repro.mem.addrspace import AddressSpace, SharedArray
from repro.noc.placement import Placement, identity_placement
from repro.sim.engine import Engine
from repro.sim.stats import MachineStats
from repro.sync.controller import SyncController

#: A thread program: callable taking (ctx) and returning an op generator.
Program = Callable[[ThreadCtx], OpStream]


class Machine:
    """One simulated chip executing one multithreaded program."""

    def __init__(
        self,
        params: MachineParams,
        config: ExperimentConfig,
        *,
        num_threads: int | None = None,
        placement: Placement | None = None,
        detect_staleness: bool = False,
        tracer=None,
        metrics=None,
        faults=None,
        engine: str | None = None,
        model: str | None = None,
    ) -> None:
        from repro.engines import resolve_engine
        from repro.models import resolve_model

        self.params = params
        self.config = config
        #: Selected simulator core (:mod:`repro.engines`): ``engine`` names
        #: a registered :class:`~repro.engines.EngineSpec` (``None`` falls
        #: back to ``$REPRO_ENGINE``, then ``ref``).  Engines are
        #: bit-identical by contract; only wall-clock speed differs.
        self.engine_spec = resolve_engine(engine)
        #: Observability sinks (:mod:`repro.obs`): a per-operation event
        #: Tracer and/or a Metrics registry.  ``None`` (the default) means
        #: disabled; attaching them never changes simulated results — the
        #: neutrality test asserts bit-identical statistics either way.
        self.tracer = tracer
        self.metrics = metrics
        #: Optional :class:`repro.faults.injector.FaultInjector`.  ``None``
        #: (the default) means no fault plan is armed: every hook point is
        #: a single pointer comparison and results are bit-identical to a
        #: build without the fault subsystem (tests/faults/test_neutrality).
        self.faults = faults
        if placement is None:
            placement = identity_placement(
                params, num_threads if num_threads is not None else params.num_cores
            )
        if num_threads is not None and placement.num_threads != num_threads:
            raise ConfigError("placement size disagrees with num_threads")
        self.placement = placement
        self.num_threads = placement.num_threads

        self.engine = Engine()
        self.stats = MachineStats.for_cores(params.num_cores)
        self.hier = Hierarchy(
            params, self.stats, cache_class=self.engine_spec.cache_class
        )
        self.space = AddressSpace(line_bytes=params.line_bytes)
        self.annotator = Annotator(config)

        #: Selected memory model (:mod:`repro.models`): ``model`` names a
        #: registered :class:`~repro.models.ModelSpec` (``None`` is
        #: ``base``).  Hardware-coherent Table II
        #: configurations always resolve to ``hcc`` — MESI *is* the model
        #: those configurations name, so sweeps can pass one model id to
        #: every cell, HCC reference cells included.
        if config.hardware_coherent:
            self.model_spec = resolve_model("hcc")
        else:
            self.model_spec = resolve_model(model)
        threadmap = (
            ThreadMapTable(placement) if params.num_blocks > 1 else None
        )
        self.protocol = self.model_spec.factory(
            self.hier,
            config,
            threadmap=threadmap,
            detect_staleness=detect_staleness,
        )
        self.protocol.tracer = tracer
        self.protocol.metrics = metrics
        self.sync = SyncController(
            self.hier.mesh, self.engine, self.stats,
            tracer=tracer, metrics=metrics,
        )
        if faults is not None:
            faults.arm(self)
        self._cpus: list[CPU] = []
        self._ran = False
        #: Which CPU loop ran: ``"fused"`` or ``"reference: <reason>"``
        #: (``"reference"`` on the ref engine), recorded when ``run()``
        #: starts the cores; ``None`` before that.  Kept out of
        #: :class:`MachineStats` so the engines stay stats-identical.
        self.cpu_loop: str | None = None

    # -- allocation -------------------------------------------------------------

    def array(
        self, name: str, shape: int | tuple[int, int], *, pad_rows: bool = False
    ) -> SharedArray:
        """Allocate a named shared array (see :class:`SharedArray`)."""
        return SharedArray(self.space, name, shape, pad_rows=pad_rows)

    # -- thread management ---------------------------------------------------------

    def spawn(self, program: Program) -> int:
        """Spawn the next thread (IDs assigned in spawn order); returns its tid."""
        tid = len(self._cpus)
        if tid >= self.num_threads:
            raise ConfigError(
                f"placement holds {self.num_threads} threads; cannot spawn more"
            )
        core = self.placement.core_of(tid)
        ctx = ThreadCtx(self, tid)
        cpu = self.engine_spec.cpu_class(self, core, tid, program(ctx))
        self._cpus.append(cpu)
        return tid

    def spawn_all(self, program: Program) -> None:
        """Spawn ``num_threads`` instances of the same SPMD program."""
        for _ in range(self.num_threads):
            self.spawn(program)

    # -- execution ---------------------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> MachineStats:
        """Execute to completion; flush caches; return statistics.

        However the run ends, the cores let go of the machine when it does
        (see docs/ARCHITECTURE.md, "Machine lifetime").
        """
        if self._ran:
            raise ConfigError("a Machine instance runs exactly once")
        if not self._cpus:
            raise ConfigError("no threads spawned")
        self._ran = True
        try:
            for cpu in self._cpus:
                cpu.start(self)
            self.stats.exec_time = self.engine.run(max_cycles=max_cycles)
        finally:
            # A core reaches its machine only during the run.  With the
            # links, pending events and unfinished programs gone, nothing
            # the machine owns points back at it, so reference counting
            # frees it (and everything it built) once the caller lets go.
            self.engine.clear()
            for cpu in self._cpus:
                cpu.release()
        self.stats.frozen = True  # verification flush must not count traffic
        if self.faults is not None:
            # The timed run is over: verification-time flushes must neither
            # fire faults nor advance any fault RNG stream.
            self.faults.freeze()
        buffers = self.buffer_stats()
        self.stats.meb_overflow_events = buffers["meb_overflows"]
        self.stats.ieb_evictions = buffers["ieb_evictions"]
        self.stats.ieb_redundant_invalidations = buffers[
            "ieb_redundant_invalidations"
        ]
        if self.metrics is not None:
            # End-of-run gauges: the engine hook point plus headline totals,
            # recorded here so the event loop itself stays uninstrumented.
            self.metrics.set("engine.events", self.engine.events_scheduled)
            self.metrics.set("machine.exec_time", self.stats.exec_time)
            self.metrics.set("machine.total_flits", self.stats.total_flits)
        self.protocol.finalize()
        return self.stats

    # -- verification helpers ---------------------------------------------------------------

    def read_word(self, byte_addr: int) -> Any:
        """Read a word from main memory (valid after ``run()``)."""
        return self.hier.memory.read_word(self.hier.word_addr(byte_addr))

    def read_array(self, arr: SharedArray) -> list[Any]:
        """All elements of *arr* from main memory, row-major."""
        return [self.read_word(a) for a in arr.element_addrs()]

    def buffer_stats(self) -> dict[str, int]:
        """Aggregate MEB/IEB counters (zeros under HCC).

        ``meb_overflows`` counts epochs whose MEB spilled (WB ALL fell back
        to a full tag walk); ``ieb_evictions`` counts FIFO evictions (later
        re-reads pay a redundant invalidation).  Both are the quantities the
        Section IV-B sizing argument is about.
        """
        mebs = getattr(self.protocol, "mebs", [])
        iebs = getattr(self.protocol, "iebs", [])
        return {
            "meb_insertions": sum(m.insertions for m in mebs),
            "meb_overflows": sum(m.overflow_events for m in mebs),
            "ieb_evictions": sum(i.evictions for i in iebs),
            "ieb_redundant_invalidations": sum(
                i.redundant_invalidations for i in iebs
            ),
        }

    @property
    def stale_reads(self):
        """Stale reads logged by the detector (``detect_staleness=True``).

        Empty under HCC (hardware coherence cannot go stale), and empty for
        any race-free program whose WB/INV annotations are sufficient — the
        porting aid a developer targeting this machine would reach for.
        """
        return getattr(self.protocol, "stale_reads", [])
