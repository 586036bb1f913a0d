"""Operation stream vocabulary — the simulated ISA.

Thread programs are Python generators that *yield* these operations; the core
model executes each against the memory hierarchy and sends the result (for a
``Read``) back into the generator.  The vocabulary covers:

* plain memory accesses and compute delay, and their batched macro-ops
  (runs of loads or stores, and whole loop chunks),
* every WB/INV flavor of Sections III-B and V (address range, ALL,
  level-adaptive ``WB_CONS``/``INV_PROD``, and explicit-level ``WB_L3`` /
  ``INV_L2``),
* the three synchronization primitives served by the shared-cache controller
  (barriers, locks, condition flags — Section III-D), and
* epoch boundary markers that arm/disarm the MEB and IEB (Section IV-B).

Operations are plain ``__slots__`` classes (not dataclasses) because the
simulator allocates millions of them.
"""

from __future__ import annotations

from typing import Any


class Op:
    """Base class for every simulated operation."""

    __slots__ = ()
    mnemonic = "op"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
        )
        return f"{type(self).__name__}({fields})"


# -- memory accesses ---------------------------------------------------------


class Read(Op):
    """Load one word; the core sends the value back into the program."""

    __slots__ = ("addr",)
    mnemonic = "ld"

    def __init__(self, addr: int) -> None:
        self.addr = addr


class Write(Op):
    """Store one word."""

    __slots__ = ("addr", "value")
    mnemonic = "st"

    def __init__(self, addr: int, value: Any) -> None:
        self.addr = addr
        self.value = value


class Compute(Op):
    """Pure computation consuming *cycles* core cycles."""

    __slots__ = ("cycles",)
    mnemonic = "compute"

    def __init__(self, cycles: int) -> None:
        self.cycles = cycles


# -- batched memory accesses ---------------------------------------------------
#
# Batch operations are *macro-ops*.  Each one's meaning is its ``expand()``
# generator: it yields the op's defining scalar ``Read``/``Write``
# sequence in order, receives each read's value, and returns what the
# program gets back (the value list for ``ReadBatch``, ``None`` otherwise).
# The reference core and the analyzer run that expansion as is; the fast
# engine's fused loop runs each batch kind inline, each word through the
# same read or write rule as a scalar op.  Every engine therefore charges
# latency, updates cache state, and counts statistics word by word
# exactly as the scalar sequence would.  Batches exist so a hot loop can hand the core a
# whole run of accesses in one generator round-trip instead of one
# ``yield`` per word: ``ReadBatch``/``WriteBatch`` a run of loads or
# stores, ``MapBatch`` a whole chunk of loop iterations (reads, computed
# store and compute delay per iteration).  The scalar and batched forms
# of a program are bit-identical in stats and final memory.  Paired
# sequences of unequal length raise ``ValueError`` when the shorter one
# runs out.


class ReadBatch(Op):
    """Load the words at *addrs* in order; the core sends back the values.

    Equivalent to ``[ (yield Read(a)) for a in addrs ]``.
    """

    __slots__ = ("addrs",)
    mnemonic = "ld_batch"

    def __init__(self, addrs) -> None:
        self.addrs = addrs

    def expand(self):
        values = []
        for addr in self.addrs:
            values.append((yield Read(addr)))
        return values


class WriteBatch(Op):
    """Store ``values[k]`` to ``addrs[k]`` in order.

    Equivalent to ``Write(a, v)`` per pair; lengths must match.
    """

    __slots__ = ("addrs", "values")
    mnemonic = "st_batch"

    def __init__(self, addrs, values) -> None:
        self.addrs = addrs
        self.values = values

    def expand(self):
        for addr, value in zip(self.addrs, self.values, strict=True):
            yield Write(addr, value)


class Gather:
    """A dependent read in a :class:`MapBatch` body.

    Per iteration it loads the index word at the next of *index_addrs*,
    then the word at ``addr_of(int(index))`` (typically
    ``SharedArray.addr``, so an out-of-range index raises there).
    """

    __slots__ = ("index_addrs", "addr_of")

    def __init__(self, index_addrs, addr_of) -> None:
        self.index_addrs = index_addrs
        self.addr_of = addr_of


class MapBatch(Op):
    """Run iterations ``[lo, hi)`` of a loop body of assignments.

    ``body`` holds one ``(fn, reads, writes)`` entry per assignment:
    *reads* is a tuple of read address sequences (or :class:`Gather`
    reads) and *writes* the write address sequence, each with one address
    per iteration.  Iteration *i* runs, for each assignment in order, its
    reads in order (a gather is its index read, then its data read), then
    ``Write(addr, fn(i, *values))``; then ``Compute(compute)`` when
    *compute* is nonzero.  Each ``fn`` runs once per iteration, in body
    order, so a later assignment's ``fn`` may use a value that an earlier
    assignment's ``fn`` computed in the same iteration.  ``hi`` must not
    be below ``lo``, and every sequence must have ``hi - lo`` addresses.
    """

    __slots__ = ("lo", "hi", "body", "compute")
    mnemonic = "map_batch"

    def __init__(self, lo: int, hi: int, body, compute: int = 0) -> None:
        self.lo = lo
        self.hi = hi
        self.body = body
        self.compute = compute

    def plan(self):
        """``(rows, steps)``: the batch's addresses and loads, unrolled once.

        ``rows`` yields ``(i, address, ...)`` per iteration: each
        assignment's read addresses (a gather's index address) then its
        write address, in body order; a sequence of the wrong length
        raises ``ValueError`` from the strict ``zip``.  ``steps`` holds
        ``(fn, loads)`` per assignment, one ``loads`` entry per read
        word: ``None`` takes the next address of the row, a gather's
        ``addr_of`` maps the value just loaded to the data address.
        ``hi < lo`` raises ``ValueError`` naming both.
        """
        if self.hi < self.lo:
            raise ValueError(f"hi {self.hi} is below lo {self.lo}")
        cols = [range(self.lo, self.hi)]
        steps = []
        for fn, reads, writes in self.body:
            loads = []
            for read in reads:
                if type(read) is Gather:
                    cols.append(read.index_addrs)
                    loads += (None, read.addr_of)
                else:
                    cols.append(read)
                    loads.append(None)
            cols.append(writes)
            steps.append((fn, tuple(loads)))
        return zip(*cols, strict=True), steps

    def expand(self):
        rows, steps = self.plan()
        compute = self.compute
        for row in rows:
            k = 1
            for fn, loads in steps:
                values = []
                for addr_of in loads:
                    if addr_of is None:
                        addr = row[k]
                        k += 1
                    else:
                        addr = addr_of(int(values.pop()))
                    values.append((yield Read(addr)))
                yield Write(row[k], fn(row[0], *values))
                k += 1
            if compute:
                yield Compute(compute)


# -- writeback flavors (Section III-B, V) ------------------------------------


class WB(Op):
    """Write back the dirty words of lines overlapping [addr, addr+length)."""

    __slots__ = ("addr", "length")
    mnemonic = "WB"

    def __init__(self, addr: int, length: int = 4) -> None:
        self.addr = addr
        self.length = length


class WBAll(Op):
    """WB ALL — write back the whole cache (optionally via the MEB)."""

    __slots__ = ("via_meb",)
    mnemonic = "WB_ALL"

    def __init__(self, via_meb: bool = False) -> None:
        self.via_meb = via_meb


class WBCons(Op):
    """Level-adaptive WB_CONS(addr, ConsID): reach L2 or L3 per ThreadMap."""

    __slots__ = ("addr", "length", "cons_tid")
    mnemonic = "WB_CONS"

    def __init__(self, addr: int, length: int, cons_tid: int) -> None:
        self.addr = addr
        self.length = length
        self.cons_tid = cons_tid


class WBConsAll(Op):
    """WB_CONS ALL(ConsID) — whole L1 (and L2 when consumer is remote)."""

    __slots__ = ("cons_tid",)
    mnemonic = "WB_CONS_ALL"

    def __init__(self, cons_tid: int) -> None:
        self.cons_tid = cons_tid


class WBL3(Op):
    """Explicit-level WB_L3(addr): write back to L3 (through L2)."""

    __slots__ = ("addr", "length")
    mnemonic = "WB_L3"

    def __init__(self, addr: int, length: int = 4) -> None:
        self.addr = addr
        self.length = length


class WBAllL3(Op):
    """WB ALL pushed to the L3 (inter-block Base configuration)."""

    __slots__ = ()
    mnemonic = "WB_ALL_L3"


# -- self-invalidation flavors ------------------------------------------------


class INV(Op):
    """Self-invalidate lines overlapping [addr, addr+length) from the L1."""

    __slots__ = ("addr", "length")
    mnemonic = "INV"

    def __init__(self, addr: int, length: int = 4) -> None:
        self.addr = addr
        self.length = length


class INVAll(Op):
    """INV ALL — invalidate the whole L1."""

    __slots__ = ()
    mnemonic = "INV_ALL"


class InvProd(Op):
    """Level-adaptive INV_PROD(addr, ProdID): L1-only or L1+L2 per ThreadMap."""

    __slots__ = ("addr", "length", "prod_tid")
    mnemonic = "INV_PROD"

    def __init__(self, addr: int, length: int, prod_tid: int) -> None:
        self.addr = addr
        self.length = length
        self.prod_tid = prod_tid


class InvProdAll(Op):
    """INV_PROD ALL(ProdID) — whole L1 (and L2 when producer is remote)."""

    __slots__ = ("prod_tid",)
    mnemonic = "INV_PROD_ALL"

    def __init__(self, prod_tid: int) -> None:
        self.prod_tid = prod_tid


class INVL2(Op):
    """Explicit-level INV_L2(addr): invalidate from L2 (and L1)."""

    __slots__ = ("addr", "length")
    mnemonic = "INV_L2"

    def __init__(self, addr: int, length: int = 4) -> None:
        self.addr = addr
        self.length = length


class INVAllL2(Op):
    """INV ALL applied to both L1 and local L2 (inter-block Base config)."""

    __slots__ = ()
    mnemonic = "INV_ALL_L2"


# -- synchronization (Section III-D) ------------------------------------------


class Barrier(Op):
    """Global barrier over *count* participants (queued at the controller)."""

    __slots__ = ("bid", "count")
    mnemonic = "barrier"

    def __init__(self, bid: int, count: int) -> None:
        self.bid = bid
        self.count = count


class LockAcquire(Op):
    __slots__ = ("lid",)
    mnemonic = "lock_acquire"

    def __init__(self, lid: int) -> None:
        self.lid = lid


class LockRelease(Op):
    __slots__ = ("lid",)
    mnemonic = "lock_release"

    def __init__(self, lid: int) -> None:
        self.lid = lid


class FlagSet(Op):
    """Set a condition flag to *value* (default: increment-style set to 1)."""

    __slots__ = ("fid", "value")
    mnemonic = "flag_set"

    def __init__(self, fid: int, value: int = 1) -> None:
        self.fid = fid
        self.value = value


class FlagWait(Op):
    """Block until the condition flag reaches at least *value*."""

    __slots__ = ("fid", "value")
    mnemonic = "flag_wait"

    def __init__(self, fid: int, value: int = 1) -> None:
        self.fid = fid
        self.value = value


# -- epoch markers (arm/disarm MEB and IEB, Section IV-B) ---------------------


class EpochBegin(Op):
    """Start of an epoch: optionally arm MEB recording and IEB read-checking.

    ``kind`` is a free-form label ("critical", "barrier", …) used only by
    statistics and tests.
    """

    __slots__ = ("record_meb", "ieb_mode", "kind")
    mnemonic = "epoch_begin"

    def __init__(
        self, record_meb: bool = False, ieb_mode: bool = False, kind: str = ""
    ) -> None:
        self.record_meb = record_meb
        self.ieb_mode = ieb_mode
        self.kind = kind


class EpochEnd(Op):
    """End of an epoch: disarm MEB/IEB."""

    __slots__ = ()
    mnemonic = "epoch_end"


#: Operation classes that read or write a single explicit word address.
ADDRESSED_OPS = (Read, Write)

#: Batched macro-ops; each one's ``expand()`` is its definition, the
#: per-word Read/Write sequence every engine and the analyzer execute.
BATCH_OPS = (ReadBatch, WriteBatch, MapBatch)

#: WB-family operations, used by accounting and by the write buffer model.
WB_OPS = (WB, WBAll, WBCons, WBConsAll, WBL3, WBAllL3)

#: INV-family operations.
INV_OPS = (INV, INVAll, InvProd, InvProdAll, INVL2, INVAllL2)

#: Synchronization operations served by the shared-cache sync controller.
SYNC_OPS = (Barrier, LockAcquire, LockRelease, FlagSet, FlagWait)

# -- static-analysis classification (used by repro.analysis) ------------------

#: WB/INV flavors carrying an explicit [addr, addr+length) byte range.
RANGED_WB_OPS = (WB, WBCons, WBL3)
RANGED_INV_OPS = (INV, InvProd, INVL2)

#: WB/INV flavors that sweep a whole cache (no address information).
ALL_WB_OPS = (WBAll, WBConsAll, WBAllL3)
ALL_INV_OPS = (INVAll, InvProdAll, INVAllL2)

#: Release-side synchronization: annotations posting data go *before* these.
RELEASE_SIDE_OPS = (Barrier, LockRelease, FlagSet)

#: Acquire-side synchronization: annotations exposing data go *after* these.
ACQUIRE_SIDE_OPS = (Barrier, LockAcquire, FlagWait)

#: WB flavors that reach the chip-shared last-level cache unconditionally.
GLOBAL_WB_OPS = (WBL3, WBAllL3)

#: INV flavors that invalidate from the block's L2 (not just the L1).
GLOBAL_INV_OPS = (INVL2, INVAllL2)


def byte_range(op: Op) -> tuple[int, int] | None:
    """Byte interval ``[lo, hi)`` covered by a ranged WB/INV op.

    Returns ``None`` for ALL-flavored ops (whole-cache sweeps) and for
    operations that carry no write-back/invalidation range at all.
    """
    if isinstance(op, RANGED_WB_OPS + RANGED_INV_OPS):
        return (op.addr, op.addr + op.length)
    return None
