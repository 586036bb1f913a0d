"""In-order core model: consumes a thread's operation stream.

The core advances its program generator, charges each operation's latency
from the protocol, and attributes cycles to Figure 9's stall categories:

* ``Read``/``Write``/``Compute`` → *rest*
* WB-family instructions → *WB stall*
* INV-family instructions → *INV stall*
* lock acquire/release → *lock stall* (queue wait included)
* barrier and flag operations → *barrier stall*

Non-blocking operations are executed back-to-back in a single engine step
(operation batching): latencies only interact across cores at
synchronization points, so a core may privately accumulate time between
them.  This is what makes an operation-level Python simulation fast enough
(DESIGN.md §2) while keeping per-core timing exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.common.errors import SimulationError
from repro.isa import ops as isa
from repro.sim.stats import CoreStats, StallCat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import Machine


class CPU:
    """One core executing one thread (one-to-one mapping, no migration)."""

    __slots__ = (
        "machine", "core_id", "tid", "program", "stats",
        "_send_value", "_sync_issue_time", "_sync_cat", "_sync_mnem",
        "_sync_arg", "_sync_n", "_done",
    )

    def __init__(self, machine: "Machine", core_id: int, tid: int, program) -> None:
        #: The owning machine, reachable only while ``Machine.run`` executes
        #: (set by :meth:`start`, dropped by :meth:`release`), so a finished
        #: machine holds no cycle through its cores.
        self.machine: "Machine | None" = None
        self.core_id = core_id
        self.tid = tid
        self.program = program
        self.stats: CoreStats = machine.stats.per_core[core_id]
        self._send_value: Any = None
        self._sync_issue_time: int = 0
        self._sync_cat: StallCat = StallCat.REST
        self._sync_mnem: str = ""
        self._sync_arg: int = 0
        self._sync_n: int | None = None
        self._done = False

    # -- lifecycle -------------------------------------------------------------

    def start(self, machine: "Machine") -> None:
        self.machine = machine
        machine.cpu_loop = self._select_loop()
        machine.engine.register_entity()
        machine.engine.schedule(0, self._step)

    def release(self) -> None:
        """End of run: drop the machine link and close the program.

        Closing is a no-op for a program that ran to completion; an
        unfinished one (deadlock, ``max_cycles``) drops its frame, and
        with it the ``ThreadCtx`` that points back at the machine.
        """
        self.machine = None
        self.program.close()

    def _select_loop(self) -> str:
        """Prepare the execution loop; return its name for ``cpu_loop``."""
        return "reference"

    def _finish(self) -> None:
        self._done = True
        self.stats.finish_time = self.machine.engine.now
        self.machine.engine.entity_finished()

    # -- execution -------------------------------------------------------------

    def _step(self) -> None:
        """Run non-blocking ops back-to-back; yield to the engine at syncs."""
        engine = self.machine.engine
        proto = self.machine.protocol
        stats = self.stats
        # Innermost simulator loop: bind the stall dict, the REST key, and
        # the program's send method locally, and update the REST bucket
        # in-place instead of through add_stall (protocol latencies are
        # already ints; Compute cycles are coerced explicitly).
        stalls = stats.stalls
        rest = StallCat.REST
        program_send = advance = self.program.send
        core_id = self.core_id
        accumulated = 0
        send = self._send_value
        self._send_value = None
        # Observability sinks: None when disabled, leaving a single
        # ``observing`` branch per operation on the hot path.
        tracer = self.machine.tracer
        metrics = self.machine.metrics
        observing = tracer is not None or metrics is not None
        # Fault injector: None when no plan is armed (one comparison on the
        # WB/INV branch only; plain accesses are never wbuf-stalled).
        faults = self.machine.faults

        while True:
            try:
                op = advance(send)
            except StopIteration as stop:
                if advance is not program_send:  # a batch expansion ended
                    send = stop.value
                    advance = program_send
                    continue
                if accumulated:
                    engine.schedule(accumulated, self._finish)
                else:
                    self._finish()
                return
            send = None

            kind = type(op)
            if kind is isa.Read:
                if observing and tracer is not None:
                    tracer.cycle = engine.now + accumulated
                lat, send = proto.read(core_id, op.addr)
                stats.loads += 1
                stalls[rest] += lat
                accumulated += lat
                if observing:
                    self._obs_access("read", tracer, metrics, op.addr, lat)
            elif kind is isa.Write:
                if observing and tracer is not None:
                    tracer.cycle = engine.now + accumulated
                lat = proto.write(core_id, op.addr, op.value)
                stats.stores += 1
                stalls[rest] += lat
                accumulated += lat
                if observing:
                    self._obs_access(
                        "write", tracer, metrics, op.addr, lat, val=op.value
                    )
            elif kind is isa.Compute:
                cycles = int(op.cycles)
                if observing and tracer is not None:
                    tracer.emit(
                        "compute",
                        core_id,
                        lat=cycles,
                        cycle=engine.now + accumulated,
                    )
                stalls[rest] += cycles
                accumulated += cycles
            elif isinstance(op, isa.BATCH_OPS):
                # Run the op's defining scalar sequence through the arms
                # above; its return value goes to the program when it ends.
                advance = op.expand().send
            elif isinstance(op, isa.SYNC_OPS):
                self._issue_sync(op, accumulated)
                return
            else:
                if observing and tracer is not None:
                    tracer.cycle = engine.now + accumulated
                lat, cat = self._wbinv(proto, op)
                if faults is not None:
                    # WB/INV drain through the write buffer (Section III-C);
                    # an injected drain stall delays their retirement.
                    lat += faults.wbuf_stall(core_id)
                stats.add_stall(cat, lat)
                accumulated += lat
                if observing:
                    self._obs_wbinv(tracer, metrics, op, lat)

    # -- observability ---------------------------------------------------------
    #
    # These helpers only run when a tracer or metrics registry is attached
    # (the hot loop guards on a single ``observing`` flag otherwise).  The
    # tracer's current-op cycle is published before each dispatch so that
    # protocol-internal events (fills, evictions) share the op's timestamp.

    def _obs_access(
        self, kind: str, tracer, metrics, addr: int, lat: int, val=None
    ) -> None:
        """Report one load/store to the attached observability sinks.

        Write events carry their stored value when it is a JSON scalar
        (int/float) so the trace is program-reconstructible; object-valued
        stores trace without ``val`` (replay substitutes 0).
        """
        if tracer is not None:
            if val is not None and (type(val) is not int and type(val) is not float):
                val = None
            tracer.emit(
                kind,
                self.core_id,
                addr=addr,
                line=self.machine.hier.line_of(addr),
                lat=lat,
                val=val,
            )
        if metrics is not None:
            metrics.observe(f"lat.{kind}", lat)

    def _obs_wbinv(self, tracer, metrics, op: isa.Op, lat: int) -> None:
        """Report one WB/INV/epoch instruction to the observability sinks.

        Operand detail rides in ``n``/``arg`` (ranged length; peer thread
        id for the CONS/PROD flavors; ``via_meb`` for WB_ALL; the
        ``record_meb | ieb_mode << 1`` mask for epoch_begin) so that
        :mod:`repro.workloads.replay` can rebuild the exact instruction.
        """
        if isinstance(op, isa.WB_OPS):
            kind = "wb"
        elif isinstance(op, isa.INV_OPS):
            kind = "inv"
        else:
            kind = "epoch"
        addr = getattr(op, "addr", None)
        if tracer is not None:
            length = getattr(op, "length", None)
            arg = getattr(op, "cons_tid", None)
            if arg is None:
                arg = getattr(op, "prod_tid", None)
            if arg is None and type(op) is isa.WBAll and op.via_meb:
                arg = 1
            if type(op) is isa.EpochBegin:
                arg = int(op.record_meb) | int(op.ieb_mode) << 1
            tracer.emit(
                kind,
                self.core_id,
                addr=addr,
                line=self.machine.hier.line_of(addr) if addr is not None else None,
                lat=lat,
                op=op.mnemonic,
                arg=arg,
                n=length,
            )
        if metrics is not None:
            metrics.inc(f"cpu.{kind}.{op.mnemonic}")
            if kind != "epoch":
                metrics.observe(f"lat.{kind}", lat)

    def _wbinv(self, proto, op: isa.Op) -> tuple[int, StallCat]:
        """Dispatch a WB/INV/epoch op; return (latency, stall category)."""
        core = self.core_id
        stats = self.stats
        kind = type(op)
        if kind is isa.WB:
            stats.wb_ops += 1
            return proto.wb_range(core, op.addr, op.length), StallCat.WB
        if kind is isa.WBAll:
            stats.wb_ops += 1
            return proto.wb_all(core, via_meb=op.via_meb), StallCat.WB
        if kind is isa.WBCons:
            stats.wb_ops += 1
            return proto.wb_cons(core, op.addr, op.length, op.cons_tid), StallCat.WB
        if kind is isa.WBConsAll:
            stats.wb_ops += 1
            return proto.wb_cons_all(core, op.cons_tid), StallCat.WB
        if kind is isa.WBL3:
            stats.wb_ops += 1
            return proto.wb_l3(core, op.addr, op.length), StallCat.WB
        if kind is isa.WBAllL3:
            stats.wb_ops += 1
            return proto.wb_all_l3(core), StallCat.WB
        if kind is isa.INV:
            stats.inv_ops += 1
            return proto.inv_range(core, op.addr, op.length), StallCat.INV
        if kind is isa.INVAll:
            stats.inv_ops += 1
            return proto.inv_all(core), StallCat.INV
        if kind is isa.InvProd:
            stats.inv_ops += 1
            return proto.inv_prod(core, op.addr, op.length, op.prod_tid), StallCat.INV
        if kind is isa.InvProdAll:
            stats.inv_ops += 1
            return proto.inv_prod_all(core, op.prod_tid), StallCat.INV
        if kind is isa.INVL2:
            stats.inv_ops += 1
            return proto.inv_l2(core, op.addr, op.length), StallCat.INV
        if kind is isa.INVAllL2:
            stats.inv_ops += 1
            return proto.inv_all_l2(core), StallCat.INV
        if kind is isa.EpochBegin:
            return proto.epoch_begin(core, op.record_meb, op.ieb_mode), StallCat.REST
        if kind is isa.EpochEnd:
            return proto.epoch_end(core), StallCat.REST
        raise SimulationError(f"unknown operation {op!r}")

    # -- synchronization -----------------------------------------------------------

    def _issue_sync(self, op: isa.Op, accumulated: int) -> None:
        """Charge accumulated time, then hand the op to the sync controller."""
        engine = self.machine.engine
        self._sync_mnem = op.mnemonic

        def issue() -> None:
            self._sync_issue_time = engine.now
            ctl = self.machine.sync
            core = self.core_id
            kind = type(op)
            if kind is isa.Barrier:
                self._sync_cat = StallCat.BARRIER
                self._sync_arg, self._sync_n = op.bid, op.count
                ctl.barrier_arrive(core, op.bid, op.count, self._sync_resume)
            elif kind is isa.LockAcquire:
                self._sync_cat = StallCat.LOCK
                self._sync_arg, self._sync_n = op.lid, None
                ctl.lock_acquire(core, op.lid, self._sync_resume)
            elif kind is isa.LockRelease:
                self._sync_cat = StallCat.LOCK
                self._sync_arg, self._sync_n = op.lid, None
                ctl.lock_release(core, op.lid, self._sync_resume)
            elif kind is isa.FlagSet:
                self._sync_cat = StallCat.BARRIER
                self._sync_arg, self._sync_n = op.fid, op.value
                ctl.flag_set(core, op.fid, op.value, self._sync_resume)
            elif kind is isa.FlagWait:
                self._sync_cat = StallCat.BARRIER
                self._sync_arg, self._sync_n = op.fid, op.value
                ctl.flag_wait(core, op.fid, op.value, self._sync_resume)
            else:  # pragma: no cover - SYNC_OPS is exhaustive
                raise SimulationError(f"unknown sync op {op!r}")

        engine.schedule(accumulated, issue)

    def _sync_resume(self) -> None:
        waited = self.machine.engine.now - self._sync_issue_time
        self.stats.add_stall(self._sync_cat, waited)
        tracer = self.machine.tracer
        if tracer is not None:
            # One event per sync op, stamped at issue and spanning the wait.
            # arg = sync variable id, n = barrier count / flag value.
            tracer.emit(
                "sync",
                self.core_id,
                op=self._sync_mnem,
                lat=waited,
                cycle=self._sync_issue_time,
                arg=self._sync_arg,
                n=self._sync_n,
            )
        metrics = self.machine.metrics
        if metrics is not None:
            metrics.observe(f"sync.wait.{self._sync_mnem}", waited)
        self._send_value = None
        self._step()
