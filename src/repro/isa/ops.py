"""Operation stream vocabulary — the simulated ISA.

Thread programs are Python generators that *yield* these operations; the core
model executes each against the memory hierarchy and sends the result (for a
``Read``) back into the generator.  The vocabulary covers:

* plain memory accesses and compute delay,
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
# The reference core and the analyzer run that expansion as is, and the
# fast engine's fused loop runs it through its scalar arms, keeping inline
# copies only for ``ReadBatch``/``WriteBatch``.  Every engine therefore
# charges latency, updates cache state, and counts statistics word by word
# exactly as the scalar sequence would.  Batches exist so a hot loop can
# hand the core a whole run of accesses in one generator round-trip instead
# of one ``yield`` per word; the scalar and batched forms of a program are
# bit-identical in stats and final memory.  Paired sequences of unequal
# length raise ``ValueError`` when the shorter one runs out.


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


class CopyBatch(Op):
    """Interleaved copy: ``v = Read(src[k]); Write(dst[k], v)`` per k.

    The value flows inside the core (the program never observes it), which
    is what makes a scatter/gather permutation batchable at all: the
    per-word read→write interleaving of the scalar loop is preserved.
    """

    __slots__ = ("src_addrs", "dst_addrs")
    mnemonic = "copy_batch"

    def __init__(self, src_addrs, dst_addrs) -> None:
        self.src_addrs = src_addrs
        self.dst_addrs = dst_addrs

    def expand(self):
        for src, dst in zip(self.src_addrs, self.dst_addrs, strict=True):
            yield Write(dst, (yield Read(src)))


class AddBatch(Op):
    """Accumulate: ``v = Read(a[k]); Write(a[k], v + deltas[k])`` per k.

    The read-modify-write interleaving of a scalar accumulation loop is
    preserved; the deltas are computed by the program before issue.
    """

    __slots__ = ("addrs", "deltas")
    mnemonic = "add_batch"

    def __init__(self, addrs, deltas) -> None:
        self.addrs = addrs
        self.deltas = deltas

    def expand(self):
        for addr, delta in zip(self.addrs, self.deltas, strict=True):
            yield Write(addr, (yield Read(addr)) + delta)


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
BATCH_OPS = (ReadBatch, WriteBatch, CopyBatch, AddBatch)

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
