"""Operation-stream extraction: the analyzer's front end.

A Model-1 kernel is a Python generator over :mod:`repro.isa.ops`; the
"program text" the static pass analyzes is the linear operation stream each
thread produces.  This module obtains that stream *without running the cache
simulator*: the spawned thread generators are driven by a sequentially
consistent reference scheduler (flat word store, no caches, no timing)
that grants barriers, locks and flags through the simulator's own
:mod:`repro.sync.primitives` state machines, so a sync misuse raises the
same :class:`~repro.common.errors.SyncError` a simulated run does.  Because
the store is sequentially consistent, loaded values — and therefore all
value-dependent control flow — match what a correctly annotated program
observes, so the recorded streams are a faithful unrolling of each thread's
control-flow graph.

Interprocedural context comes for free from the generator machinery: at
every yield the live ``yield from`` chain (workload program → ``ThreadCtx``
helper → annotator fragment) is walked and recorded as the op's call path.
This is the analyzer's interprocedural call summary — diagnostics can say
*which* helper emitted (or should have emitted) an annotation.

Blocking operations are recorded at their *completion* point, so the global
event order is a legal sequentially-consistent linearization: a lock acquire
appears after the release that granted it, a barrier round appears as one
consecutive group, and a flag wait appears after the set that satisfied it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import AnalysisError
from repro.isa import ops as isa
from repro.sync.primitives import SyncTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import Machine

#: Ops a thread may execute before the scheduler rotates to the next thread.
DEFAULT_QUANTUM = 4096

#: Hard cap on total extracted operations (runaway-kernel backstop).
DEFAULT_MAX_OPS = 8_000_000


@dataclass(frozen=True)
class OpEvent:
    """One operation executed by one thread, in extraction order.

    ``idx`` is the op's position in its thread's stream (the insertion index
    used by :mod:`repro.analysis.fix` patches); ``seq`` is the global
    sequentially-consistent position.  ``call_path`` is the interprocedural
    context, outermost frame first.  ``group`` ties the participants of one
    barrier round together.  ``locks_held`` are the lock IDs the thread held
    when the op completed.
    """

    tid: int
    idx: int
    seq: int
    op: isa.Op
    call_path: tuple[str, ...]
    group: int | None = None
    locks_held: frozenset[int] = frozenset()


@dataclass
class KernelTrace:
    """Everything the downstream analysis stages consume.

    The originating :class:`~repro.core.machine.Machine` is retained (never
    run) for its address space, placement, and configuration — the analyzer
    needs array names for diagnostics and block geometry for level checks.
    """

    machine: "Machine"
    events: list[OpEvent]
    per_thread: list[list[OpEvent]]

    @property
    def num_threads(self) -> int:
        """Number of extracted thread streams."""
        return len(self.per_thread)

    def array_of(self, byte_addr: int) -> str:
        """Name of the shared array owning *byte_addr* (or a hex fallback)."""
        alloc = self.machine.space.owner_of(byte_addr)
        return alloc.name if alloc is not None else f"0x{byte_addr:x}"


# ---------------------------------------------------------------------------
# reference scheduler internals
# ---------------------------------------------------------------------------


def _call_path(gen) -> tuple[str, ...]:
    """Walk the live ``yield from`` chain and return the qualname path."""
    path: list[str] = []
    g = gen
    while g is not None:
        code = getattr(g, "gi_code", None)
        if code is None:
            break
        path.append(getattr(code, "co_qualname", code.co_name))
        g = getattr(g, "gi_yieldfrom", None)
    return tuple(path)


@dataclass
class _Thread:
    """Scheduler bookkeeping for one extracted thread."""

    tid: int
    gen: Any
    send: Any = None
    started: bool = False
    done: bool = False
    blocked: str | None = None
    locks_held: frozenset[int] = frozenset()
    events: list[OpEvent] = field(default_factory=list)
    #: (op, call_path) of a blocking op issued but not yet completed.
    pending: tuple[isa.Op, tuple[str, ...]] | None = None
    #: A batch op in progress, possibly across quantum boundaries:
    #: (op, its running ``expand()`` generator, call_path).
    batch: tuple[isa.Op, Any, tuple[str, ...]] | None = None


class _Extractor:
    """Sequentially consistent reference execution of all spawned threads."""

    def __init__(self, machine: "Machine", quantum: int, max_ops: int) -> None:
        cpus = getattr(machine, "_cpus")
        if not cpus:
            raise AnalysisError("no threads spawned; call prepare() first")
        self.machine = machine
        self.quantum = quantum
        self.max_ops = max_ops
        self.threads = [_Thread(cpu.tid, cpu.program) for cpu in cpus]
        self.mem: dict[int, Any] = {}
        self.runnable: deque[int] = deque(t.tid for t in self.threads)
        self.seq = 0
        self.total_ops = 0
        # The simulator's own sync state machines, stepped in SC order.
        self.sync = SyncTable()
        self.barrier_round = 0

    # -- memory -------------------------------------------------------------

    def _read(self, byte_addr: int) -> Any:
        word = byte_addr // 4
        if word in self.mem:
            return self.mem[word]
        return self.machine.read_word(byte_addr)

    def _write(self, byte_addr: int, value: Any) -> None:
        self.mem[byte_addr // 4] = value

    # -- event recording ----------------------------------------------------

    def _record(
        self,
        thread: _Thread,
        op: isa.Op,
        call_path: tuple[str, ...],
        group: int | None = None,
    ) -> None:
        thread.events.append(
            OpEvent(
                tid=thread.tid,
                idx=len(thread.events),
                seq=self.seq,
                op=op,
                call_path=call_path,
                group=group,
                locks_held=thread.locks_held,
            )
        )
        self.seq += 1

    def _complete(self, tid: int, group: int | None = None) -> None:
        """Record *tid*'s pending sync op; wake the thread if it blocked."""
        thread = self.threads[tid]
        op, path = thread.pending  # type: ignore[misc]
        if type(op) is isa.LockAcquire:
            thread.locks_held = thread.locks_held | {op.lid}
        self._record(thread, op, path, group=group)
        thread.pending = None
        if thread.blocked is not None:
            thread.blocked = None
            self.runnable.append(tid)

    # -- the scheduler ------------------------------------------------------

    def run(self) -> None:
        """Drive every thread to completion (or diagnose a deadlock)."""
        while self.runnable:
            tid = self.runnable.popleft()
            thread = self.threads[tid]
            if thread.done or thread.blocked is not None:
                continue
            self._run_quantum(thread)
            if not (thread.done or thread.blocked is not None):
                self.runnable.append(tid)
        blocked = [t for t in self.threads if not t.done]
        if blocked:
            detail = ", ".join(
                f"tid {t.tid} on {t.blocked}" for t in blocked
            )
            raise AnalysisError(
                f"extraction deadlocked with {len(blocked)} thread(s) "
                f"blocked: {detail}"
            )

    def _run_quantum(self, thread: _Thread) -> None:
        gen = thread.gen
        budget = self.quantum
        while budget > 0:
            if thread.batch is not None:
                budget = self._resume_batch(thread, budget)
                continue
            try:
                op = gen.send(thread.send) if thread.started else next(gen)
            except StopIteration:
                thread.done = True
                return
            thread.started = True
            thread.send = None
            path = _call_path(gen)
            if isinstance(op, isa.BATCH_OPS):
                thread.batch = (op, op.expand(), path)
                continue
            budget -= 1
            self._charge()
            if not self._execute(thread, op, path):
                return  # blocked

    def _charge(self) -> None:
        self.total_ops += 1
        if self.total_ops > self.max_ops:
            raise AnalysisError(
                f"extraction exceeded {self.max_ops} operations; "
                "raise max_ops or shrink the kernel scale"
            )

    def _resume_batch(self, thread: _Thread, budget: int) -> int:
        """Execute ops of the thread's in-progress batch expansion.

        Each scalar op the batch's ``expand()`` yields is one quantum unit,
        so the quantum boundary may fall inside a batch (between the
        ``Read`` and ``Write`` of a read-modify-write element too), exactly
        as it could inside the scalar form.  The program receives the
        expansion's return value once the whole batch has executed.
        """
        op, expansion, path = thread.batch  # type: ignore[misc]
        while budget > 0:
            try:
                micro = expansion.send(thread.send)
            except StopIteration as stop:
                thread.batch = None
                thread.send = stop.value
                return budget
            except ValueError as exc:
                raise AnalysisError(f"{op.mnemonic}: {exc}") from exc
            thread.send = None
            budget -= 1
            self._charge()
            self._execute(thread, micro, path)
        return budget

    def _execute(
        self, thread: _Thread, op: isa.Op, path: tuple[str, ...]
    ) -> bool:
        """Apply one op; record it; return False when the thread blocked."""
        kind = type(op)
        if kind is isa.Read:
            thread.send = self._read(op.addr)
            self._record(thread, op, path)
            return True
        if kind is isa.Write:
            self._write(op.addr, op.value)
            self._record(thread, op, path)
            return True
        if kind is isa.Barrier:
            return self._exec_barrier(thread, op, path)
        if kind is isa.LockAcquire:
            return self._exec_acquire(thread, op, path)
        if kind is isa.LockRelease:
            return self._exec_release(thread, op, path)
        if kind is isa.FlagSet:
            return self._exec_flag_set(thread, op, path)
        if kind is isa.FlagWait:
            return self._exec_flag_wait(thread, op, path)
        # Compute, every WB/INV flavor, and epoch markers have no
        # sequential-semantics effect — they are recorded for the checker.
        self._record(thread, op, path)
        return True

    def _exec_barrier(
        self, thread: _Thread, op: isa.Barrier, path: tuple[str, ...]
    ) -> bool:
        thread.pending = (op, path)
        released = self.sync.barrier(op.bid, op.count).arrive(thread.tid, None)
        if released is None:
            thread.blocked = f"barrier {op.bid}"
            return False
        group = self.barrier_round
        self.barrier_round += 1
        for tid in sorted(tid for tid, _ in released):
            self._complete(tid, group)
        return True

    def _exec_acquire(
        self, thread: _Thread, op: isa.LockAcquire, path: tuple[str, ...]
    ) -> bool:
        thread.pending = (op, path)
        if not self.sync.lock(op.lid).acquire(thread.tid, None):
            thread.blocked = f"lock {op.lid}"
            return False
        self._complete(thread.tid)
        return True

    def _exec_release(
        self, thread: _Thread, op: isa.LockRelease, path: tuple[str, ...]
    ) -> bool:
        nxt = self.sync.lock(op.lid).release(thread.tid)
        thread.locks_held = thread.locks_held - {op.lid}
        self._record(thread, op, path)
        if nxt is not None:
            self._complete(nxt[0])
        return True

    def _exec_flag_set(
        self, thread: _Thread, op: isa.FlagSet, path: tuple[str, ...]
    ) -> bool:
        ready = self.sync.flag(op.fid).set(op.value)
        self._record(thread, op, path)
        for tid in sorted(tid for tid, _ in ready):
            self._complete(tid)
        return True

    def _exec_flag_wait(
        self, thread: _Thread, op: isa.FlagWait, path: tuple[str, ...]
    ) -> bool:
        thread.pending = (op, path)
        if not self.sync.flag(op.fid).wait(thread.tid, op.value, None):
            thread.blocked = f"flag {op.fid}"
            return False
        self._complete(thread.tid)
        return True


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def extract(
    machine: "Machine",
    *,
    quantum: int = DEFAULT_QUANTUM,
    max_ops: int = DEFAULT_MAX_OPS,
) -> KernelTrace:
    """Extract every spawned thread's operation stream from *machine*.

    The machine must be fully prepared (arrays allocated, inputs preloaded,
    threads spawned) but **not** run — extraction replaces ``run()`` with a
    sequentially consistent reference execution.  The machine is left
    un-run; callers that also want simulator results must build a second
    machine.
    """
    ex = _Extractor(machine, quantum, max_ops)
    try:
        ex.run()
    finally:
        # Extraction consumes the programs.  Closing any it left suspended
        # (deadlock, ``max_ops``) drops their frames and the ThreadCtx
        # that points back at the machine.
        for thread in ex.threads:
            thread.gen.close()
    events = sorted(
        (ev for t in ex.threads for ev in t.events), key=lambda e: e.seq
    )
    return KernelTrace(
        machine=machine,
        events=events,
        per_thread=[t.events for t in ex.threads],
    )
