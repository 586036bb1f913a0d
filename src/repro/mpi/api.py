"""On-chip message passing over shared buffers (Section IV, first model).

The paper's first programming model uses MPI across blocks: "a message
sender and a message receiver communicate by writing to and reading from an
on-chip uncacheable shared buffer.  Of course, sender and receiver need to
synchronize ... the library needs to handle buffer overflows.  In
communication with multiple recipients such as a broadcast, there is no need
to make multiple copies; the sender only needs to perform a single write."

Implementation notes:

* Each ordered (src → dst) pair gets a ring of ``capacity`` fixed-size slots
  in shared memory.  "Uncacheable" is realized at library level: the sender
  writes a slot and posts it *before* raising the flag (WB_L3 on multi-block
  machines, since the receiver may sit in another block), and the receiver
  self-invalidates the slot (INV_L2) *after* the flag wait — the Figure 4c
  discipline at the right hierarchy level, and free under HCC where WB/INV
  are no-ops.
* Flow control: message *k* may only be written once the receiver has
  consumed message ``k - capacity`` (monotonic counting flags both ways).
* Broadcast writes once to a per-root ring; every receiver reads the same
  slot (single write, many readers).
* ``isend``/``irecv`` return handles; the data transfer is performed
  eagerly (the paper implements true asynchrony with a helper thread per
  core, citing Friedley et al.; a library-level eager protocol preserves
  the same completion semantics for matched traffic).
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import MPIError
from repro.common.params import WORD_BYTES
from repro.core.context import ThreadCtx
from repro.core.machine import Machine
from repro.isa import ops as isa

#: Flag-ID space reserved for the MPI library.
_FLAG_BASE = 1 << 20


class _Handle:
    """Completion handle for isend/irecv."""

    __slots__ = ("done", "values", "_pending")

    def __init__(self) -> None:
        self.done = False
        self.values: list[Any] | None = None
        self._pending: tuple[int, ...] = ()


class MPIComm:
    """A communicator over the machine's threads (one rank per thread)."""

    def __init__(
        self,
        machine: Machine,
        *,
        capacity: int = 4,
        max_words: int = 16,
    ) -> None:
        if capacity < 1 or max_words < 1:
            raise MPIError("capacity and max_words must be >= 1")
        self.machine = machine
        self.nranks = machine.num_threads
        self.capacity = capacity
        self.max_words = max_words
        n = self.nranks
        # Pairwise rings: buf[src][dst] is capacity × (1 + max_words) words
        # (slot word 0 is the message length).
        self._rings = machine.array(
            "mpi_rings", n * n * capacity * (1 + max_words)
        )
        # Broadcast rings: one per root.
        self._bcast = machine.array("mpi_bcast", n * capacity * (1 + max_words))
        self._sent: dict[tuple[int, int], int] = {}
        self._recvd: dict[tuple[int, int], int] = {}
        self._bsent: dict[int, int] = {}
        self._brecvd: dict[tuple[int, int], int] = {}

    # -- geometry -------------------------------------------------------------

    def _slot(self, src: int, dst: int, seq: int) -> tuple[int, int]:
        """(byte address, byte length) of the pairwise slot for message seq."""
        words = 1 + self.max_words
        idx = ((src * self.nranks + dst) * self.capacity + seq % self.capacity)
        base = self._rings.addr(idx * words)
        return base, words * WORD_BYTES

    def _bslot(self, root: int, seq: int) -> tuple[int, int]:
        words = 1 + self.max_words
        idx = root * self.capacity + seq % self.capacity
        base = self._bcast.addr(idx * words)
        return base, words * WORD_BYTES

    @staticmethod
    def _sent_flag(src: int, dst: int, n: int) -> int:
        return _FLAG_BASE + 2 * (src * n + dst)

    @staticmethod
    def _ack_flag(src: int, dst: int, n: int) -> int:
        return _FLAG_BASE + 2 * (src * n + dst) + 1

    def _bcast_flag(self, root: int) -> int:
        return _FLAG_BASE + 2 * self.nranks * self.nranks + 2 * root

    def _back_flag(self, root: int, rank: int) -> int:
        base = _FLAG_BASE + 2 * self.nranks * self.nranks + 2 * self.nranks
        return base + root * self.nranks + rank

    # -- level-aware posting ----------------------------------------------------
    #
    # On a multi-block machine the peer may live in another block, so slot
    # data must travel through the L3 (WB_L3 / INV_L2); on a single-block
    # machine the shared L2 suffices.  Under HCC all of these are no-ops.

    def _post(self, base: int, length: int):
        if self.machine.params.num_blocks > 1:
            yield isa.WBL3(base, length)
        else:
            yield isa.WB(base, length)

    def _refresh(self, base: int, length: int):
        if self.machine.params.num_blocks > 1:
            yield isa.INVL2(base, length)
        else:
            yield isa.INV(base, length)

    # -- blocking point-to-point -------------------------------------------------

    def send(self, ctx: ThreadCtx, dst: int, values: list[Any]):
        """Generator: send *values* (≤ max_words) from ctx's rank to *dst*."""
        src = ctx.tid
        if dst == src or not 0 <= dst < self.nranks:
            raise MPIError(f"bad destination {dst}")
        if len(values) > self.max_words:
            raise MPIError(
                f"message of {len(values)} words exceeds max_words="
                f"{self.max_words}"
            )
        seq = self._sent.get((src, dst), 0)
        n = self.nranks
        # Flow control: wait until the slot we are about to overwrite has
        # been consumed (receiver acks each message).
        if seq >= self.capacity:
            yield isa.FlagWait(self._ack_flag(src, dst, n), seq - self.capacity + 1)
        base, length = self._slot(src, dst, seq)
        yield isa.Write(base, len(values))
        for k, v in enumerate(values):
            yield isa.Write(base + (1 + k) * WORD_BYTES, v)
        # Post the payload before raising the flag (Figure 4c: WB then set),
        # through the L3 when the receiver may sit in another block.
        yield from self._post(base, length)
        yield from ctx.flag_set(self._sent_flag(src, dst, n), seq + 1, wb=())
        self._sent[(src, dst)] = seq + 1

    def recv(self, ctx: ThreadCtx, src: int):
        """Generator: receive the next message from *src*; returns values."""
        dst = ctx.tid
        if src == dst or not 0 <= src < self.nranks:
            raise MPIError(f"bad source {src}")
        seq = self._recvd.get((src, dst), 0)
        n = self.nranks
        base, length = self._slot(src, dst, seq)
        yield from ctx.flag_wait(self._sent_flag(src, dst, n), seq + 1, inv=())
        yield from self._refresh(base, length)
        count = yield isa.Read(base)
        values = []
        for k in range(int(count)):
            values.append((yield isa.Read(base + (1 + k) * WORD_BYTES)))
        yield from ctx.flag_set(self._ack_flag(src, dst, n), seq + 1, wb=())
        self._recvd[(src, dst)] = seq + 1
        return values

    # -- non-blocking -----------------------------------------------------------------

    def isend(self, ctx: ThreadCtx, dst: int, values: list[Any]):
        """Eager non-blocking send; returns a completed handle."""
        handle = _Handle()
        yield from self.send(ctx, dst, values)
        handle.done = True
        return handle

    def irecv(self, ctx: ThreadCtx, src: int) -> _Handle:
        """Non-blocking receive: returns a handle to pass to :meth:`wait`.

        Plain call (no ``yield from``): posting the receive costs nothing;
        the data transfer happens in :meth:`wait`.
        """
        handle = _Handle()
        handle._pending = (src,)  # type: ignore[attr-defined]
        return handle

    def wait(self, ctx: ThreadCtx, handle: _Handle):
        """Complete an irecv handle (performs the actual receive)."""
        if handle.done:
            return handle.values
        src = handle._pending[0]  # type: ignore[attr-defined]
        values = yield from self.recv(ctx, src)
        handle.values = values
        handle.done = True
        return values

    # -- broadcast ------------------------------------------------------------------------

    def bcast(self, ctx: ThreadCtx, root: int, values: list[Any] | None = None):
        """Generator: broadcast from *root*; all ranks return the values.

        The root performs a *single write*; every receiver reads the same
        slot (no per-recipient copies).  Receivers ack so the ring can be
        reused.
        """
        rank = ctx.tid
        if rank == root:
            if values is None:
                raise MPIError("root must supply values")
            if len(values) > self.max_words:
                raise MPIError("broadcast message too long")
            seq = self._bsent.get(root, 0)
            if seq >= self.capacity:
                # Wait for every receiver's ack of the message being evicted.
                for peer in range(self.nranks):
                    if peer != root:
                        yield isa.FlagWait(
                            self._back_flag(root, peer), seq - self.capacity + 1
                        )
            base, length = self._bslot(root, seq)
            yield isa.Write(base, len(values))
            for k, v in enumerate(values):
                yield isa.Write(base + (1 + k) * WORD_BYTES, v)
            yield from self._post(base, length)
            yield from ctx.flag_set(self._bcast_flag(root), seq + 1, wb=())
            self._bsent[root] = seq + 1
            return list(values)
        seq = self._brecvd.get((root, rank), 0)
        base, length = self._bslot(root, seq)
        yield from ctx.flag_wait(self._bcast_flag(root), seq + 1, inv=())
        yield from self._refresh(base, length)
        count = yield isa.Read(base)
        out = []
        for k in range(int(count)):
            out.append((yield isa.Read(base + (1 + k) * WORD_BYTES)))
        yield from ctx.flag_set(self._back_flag(root, rank), seq + 1, wb=())
        self._brecvd[(root, rank)] = seq + 1
        return out
