"""Thread programming API.

A workload thread is a Python generator over :mod:`repro.isa.ops` operations.
:class:`ThreadCtx` provides composable helpers (themselves generators, used
with ``yield from``) that bundle each synchronization operation with the
Model-1 annotations of Section IV-A.  Hot loops may also yield raw ops
directly — ``value = yield Read(addr)`` — which is what the inner kernels of
the SPLASH workloads do.

Programmer hints mirror the paper: every sync helper accepts optional
``(addr, length)`` range lists that replace WB ALL / INV ALL, and critical
sections accept ``occ=False`` when the program declares there is no
outside-critical-section communication.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, TYPE_CHECKING

from repro.core.annotate import Annotator, Ranges
from repro.isa import ops as isa

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import Machine

#: The generator type produced by thread programs.
OpStream = Generator[isa.Op, Any, Any]

#: Reserved flag-ID base for internal pairwise channels (MPI layer).
_GLOBAL_BARRIER_ID = 0


class ThreadCtx:
    """Per-thread handle passed to every workload program."""

    def __init__(self, machine: "Machine", tid: int) -> None:
        self.machine = machine
        self.tid = tid
        self.annot: Annotator = machine.annotator

    @property
    def nthreads(self) -> int:
        return self.machine.num_threads

    # -- plain accesses ------------------------------------------------------

    def load(self, addr: int) -> OpStream:
        value = yield isa.Read(addr)
        return value

    def store(self, addr: int, value: Any) -> OpStream:
        yield isa.Write(addr, value)

    def compute(self, cycles: int) -> OpStream:
        if cycles > 0:
            yield isa.Compute(cycles)

    # -- barriers ---------------------------------------------------------------

    def barrier(
        self,
        bid: int = _GLOBAL_BARRIER_ID,
        *,
        count: int | None = None,
        wb: Ranges = None,
        inv: Ranges = None,
    ) -> OpStream:
        """Global barrier with Figure-4a annotations.

        ``wb``/``inv`` are programmer hints narrowing the default WB ALL /
        INV ALL; pass ``()`` to declare "nothing to write back/invalidate"
        (thread-private reuse of shared space).
        """
        for op in self.annot.before_barrier(wb):
            yield op
        yield isa.Barrier(bid, count if count is not None else self.nthreads)
        for op in self.annot.after_barrier(inv):
            yield op

    # -- critical sections --------------------------------------------------------

    def lock_acquire(
        self,
        lid: int,
        *,
        occ: bool = True,
        cs_inv: Ranges = None,
        occ_wb: Ranges = None,
    ) -> OpStream:
        for op in self.annot.before_acquire(occ=occ, cs_inv=cs_inv, occ_wb=occ_wb):
            yield op
        yield isa.LockAcquire(lid)
        for op in self.annot.after_acquire():
            yield op

    def lock_release(
        self,
        lid: int,
        *,
        occ: bool = True,
        cs_wb: Ranges = None,
        occ_inv: Ranges = None,
    ) -> OpStream:
        for op in self.annot.before_release(cs_wb):
            yield op
        yield isa.LockRelease(lid)
        for op in self.annot.after_release(occ=occ, occ_inv=occ_inv):
            yield op

    # -- condition flags --------------------------------------------------------------

    def flag_set(self, fid: int, value: int = 1, *, wb: Ranges = None) -> OpStream:
        for op in self.annot.before_flag_set(wb):
            yield op
        yield isa.FlagSet(fid, value)

    def flag_wait(self, fid: int, value: int = 1, *, inv: Ranges = None) -> OpStream:
        yield isa.FlagWait(fid, value)
        for op in self.annot.after_flag_wait(inv):
            yield op

    # -- data races (Figure 6b) -----------------------------------------------------------

    def racy_store(self, addr: int, value: Any) -> OpStream:
        yield isa.Write(addr, value)
        for op in self.annot.after_racy_store(addr):
            yield op

    def racy_load(self, addr: int) -> OpStream:
        for op in self.annot.before_racy_load(addr):
            yield op
        value = yield isa.Read(addr)
        return value

    # -- bulk helpers -----------------------------------------------------------------------

    def load_many(self, addrs: Iterable[int]) -> OpStream:
        values = yield isa.ReadBatch(tuple(addrs))
        return values

    def store_many(self, pairs: Iterable[tuple[int, Any]]) -> OpStream:
        pairs = tuple(pairs)
        yield isa.WriteBatch(
            tuple(a for a, _ in pairs), tuple(v for _, v in pairs)
        )
