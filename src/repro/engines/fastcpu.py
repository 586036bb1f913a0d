"""Fast-engine core: fused L1-hit execution behind the CPU interface.

:class:`FastCPU` overrides :meth:`repro.core.cpu.CPU._step` with one fused
loop that executes L1 *hits* — by far the most common memory operation —
inline against the :class:`~repro.engines.fastcache.PackedCache` arrays,
without a protocol method call, a dict-reorder LRU touch, or per-access
float math.  Address arithmetic is shift/mask (line sizes are powers of
two), and the hit latency ``max(1, round(l1_rt * (1 - overlap)))`` is a
precomputed constant.

Two rules.  Every word the loop touches goes through one of two nested
functions, each stating its per-word rule once:

* ``load(addr) -> value``: ``admit``, then a hit — a resident line serves
  the read when the IEB is not armed, the line is in the IEB or the word
  is locally dirty, and ``fresh`` passes — then, for a plain miss (IEB
  permitting), the protocol's ``fill_from_l2``, else the whole read goes
  to the protocol's ``read``.
* ``store(addr, value)``: ``admit``, then a resident line in the store
  state or a ``fill_from_l2``; either takes the word, sets its dirty bit,
  records a clean→dirty line in the MEB and calls ``on_write``; else the
  whole store goes to the protocol's ``write``.

The inline fill *is* ``IncoherentProtocol.fill_from_l2``, the method the
protocol's own misses take when the home L2 bank holds the line: the
touching L2 probe, the L1 install (``_install_l1``, which a model
overrides to change a fill), and ``hier.l2_latency``, which applies
injected NoC faults.  On an L2 miss it returns ``None`` with no side
effect and the whole access goes to the protocol.

``Read`` and ``Write`` call a rule once, ``ReadBatch`` and ``WriteBatch``
once per word, and ``MapBatch`` (a whole loop chunk) once per read and
store of each iteration, with no list built for an assignment of up to
two plain reads or one gather (``_assignments``).  An affine chunk runs
in line blocks (below), a fast case that hands every iteration it cannot
serve back to the rules.

The same loop serves directory MESI, the incoherent hierarchy, and every
memory model built on it (:mod:`repro.models`).  Each protocol states its
rules once per core as :class:`~repro.coherence.base.FusedHooks`: the line
state a store needs to complete inline, its IEB and MEB (if any), whether
a miss may be offered to ``fill_from_l2``, and the model callbacks
(``admit``, ``fresh``, ``on_write``) the rules call around their inline
hits and fills.  Everything else — L2 misses, IEB-armed refreshes, MESI
misses and E/S-state stores, rc lazy refreshes, sisd ownership flips,
WB/INV instructions, synchronization — delegates to the *shared*
protocol/sync implementations, so the complex paths have exactly one
implementation and the fast engine inherits their semantics (and their
fault-injection hooks) verbatim.  When an observability sink or the
staleness detector is attached, each core takes the reference loop
instead: instrumented runs are reference runs.  The loop taken is recorded
as ``Machine.cpu_loop`` (``"fused"`` or ``"reference: <reason>"``).

Boundary charging.  Loads, stores, hits, misses and cycles accumulate in
locals and flush to :class:`~repro.sim.stats.CoreStats` at the step's
scheduling boundary: the program's end or a sync op.  A hit is only
counted where it happens; its latency is charged at the boundary, as
``hits * hit_lat``, to REST and to the step's total.  The latencies are
ints and the sums are read only at the boundary (``engine.schedule`` of
the finish, ``_issue_sync``), so the totals equal per-hit charging bit for
bit.

One loop per core.  The loop is a generator, made when the core selects it
and first advanced by the core's first step.  It binds its locals and the
two rules once, runs ops up to a sync op, issues it and parks (``yield``)
until the sync controller resumes the core through ``_step``; it returns
when the program ends.  While a core is parked, other cores evict or
invalidate its lines and the sync op may run protocol actions on its
caches; the rules look every line up afresh, so of what the loop holds
only three things can go stale, and each resume re-reads them: the LRU
counter ``l1._stamp``, the IEB's ``armed`` flag, and ``_send_value``.
Everything else it binds (the PackedCache arrays, the hooks and the
containers they close over, the L2 row) is never reassigned during a run.
:meth:`FastCPU.release` closes a parked loop, so an unfinished run
(deadlock, ``max_cycles``) drops the loop's frame and its links.

Bit-identity argument, per protocol (vs. the reference protocols); the
incoherent hit and fill are the two rules above:

* rc: ``fresh`` passes when the line was filled in the current acquire
  epoch or the word is locally dirty; a stale line goes to ``rc.read``,
  which runs the lazy refresh.  Every fill, inline or not, stamps its
  epoch in rc's ``_install_l1``, and every inline store adds its line to
  the region write set through ``on_write`` (a set insert, so
  ``rc.write`` repeating it on a delegated store changes nothing).
* sisd: ``admit`` records the first owner and returns True unless the
  access flips the line private→shared; a flip sends the whole access to
  ``sisd.read``/``sisd.write`` *before* any fused side effect, so the
  classifier and transition recovery run in reference order (re-admitting
  is a no-op for an already-recorded owner).
* MESI: a resident line is M, E or S (an invalidated copy leaves the L1)
  and serves reads; a store completes inline in M only.  An E store (E→M
  with the directory owner and L3 ``owner_block`` fix-ups), an S store
  (the S→M upgrade) and every miss go to the protocol.

Line blocks.  A ``MapBatch`` whose every read and write column is a
one-word-stride ``range`` (an affine loop chunk) runs a *line block* at a
time: the iterations up to the nearest line boundary of any column.  The
line-level hit rule: a column's line serves the whole block inline when,
on entry, ``admit`` passes, the line is resident, and — for a read in an
IEB-armed epoch — it is in the IEB, or — for a write — it is in the
store state.  Within a block nothing evicts, fills, refreshes or
delegates, so those facts hold for every word of the block, and the
block leaves the per-word path's state:

* LRU stamps: each resident slot gets the stamp of its last access in the
  block, ``base + position`` with every column counted in row order, and
  the counter advances by the block's word count — the values per-word
  stamping leaves, since the block's last iteration wins.
* hits: ``nb × words``, one per access, as per word.
* ``fresh`` (rc) stays a per-word check, made before the block runs: only
  a store makes a word fresh, so a word fresh then is fresh when read, and
  the first stale word ends the block there.
* MEB: each written line is recorded once per block, in the order its
  first clean word turns dirty (store order within an iteration breaks
  ties); ``record_write`` ignores a line it holds, so later per-word
  records change nothing, even on overflow or an injected fault.
* ``on_write`` (rc's region set insert) once per written line per block:
  idempotent.
* fallback: an iteration whose column misses, flips (sisd), needs an IEB
  refresh, is not in the store state or reads a stale word runs as one
  row through the two rules, and every column resolves again after it,
  so fills, delegation, faults and flips keep one implementation.
  Columns resolve in row order, so ``admit`` first sees each line in the
  per-word order.
"""

from __future__ import annotations

import functools

from repro.coherence.base import FusedHooks, Protocol
from repro.common.params import WORD_BYTES
from repro.core.cpu import CPU
from repro.isa import ops as isa
from repro.sim.stats import StallCat


def _defined_in(cls: type, name: str) -> type:
    """The class in *cls*'s MRO whose body defines attribute *name*."""
    return next(k for k in cls.__mro__ if name in vars(k))


@functools.lru_cache(maxsize=256)
def _line_entries(words_per_line: int, firsts: tuple[int, ...]):
    """``(enters, span)`` for one-word-stride columns whose iteration-0
    words are *firsts*.

    Column c is at word ``(firsts[c] + t) % words_per_line`` of its line
    in iteration t, so it enters a new line whenever that word is 0.
    Which columns enter at t therefore depends on t's residue r only
    (``enters[r]``), and so does the number of iterations until the next
    column enters one (``span[r]``).
    """
    wmask = words_per_line - 1
    enters = tuple(
        tuple(c for c, first in enumerate(firsts) if (first + r) & wmask == 0)
        for r in range(words_per_line)
    )
    span = []
    for r in range(words_per_line):
        k = 1
        while not enters[(r + k) & wmask]:
            k += 1
        span.append(k)
    return enters, tuple(span)


def _assignments(steps) -> list[tuple]:
    """``MapBatch.plan``'s steps as ``(fn, reads, shape)`` for the row loop.

    ``reads`` has one entry per read: ``None``, or a gather's ``addr_of``
    (the row holds its index word's address).  ``shape`` picks the case
    the loop spells out with direct calls, which cost less than a loop
    over ``reads``: 0, 1 or 2 plain reads, 3 for one gather, 4 otherwise.
    """
    out = []
    for fn, loads in steps:
        reads = []
        for addr_of in loads:
            if addr_of is None:
                reads.append(None)
            else:
                reads[-1] = addr_of
        if not any(reads) and len(reads) <= 2:
            shape = len(reads)
        else:
            shape = 3 if len(reads) == 1 else 4
        out.append((fn, tuple(reads), shape))
    return out


class _LineBlocks:
    """One affine ``MapBatch`` chunk, run a line block at a time.

    A block is a run of iterations in which no column leaves its L1 line.
    A column's line is resolved as the column enters it: admitted,
    resident, in the IEB (a read in an armed epoch) or in the store state
    (a write).  :meth:`run` stops at the first iteration a block cannot
    serve and hands it to the per-word path as :meth:`row`; every column
    resolves again when it resumes.  The module doc argues that a block
    leaves the per-word path's state.
    """

    __slots__ = (
        "lo", "n", "starts", "assigns", "is_write", "reads", "writes",
        "lone", "firsts", "enters", "span", "words_per_line",
    )

    @classmethod
    def of(cls, op: isa.MapBatch, words_per_line: int) -> _LineBlocks | None:
        """*op*'s blocks when every read and write column is a
        one-word-stride ``range`` of the chunk's length; ``None``
        otherwise (gathers, tuple columns, other strides)."""
        n = op.hi - op.lo
        starts = []
        # Per assignment: fn, its read columns, its write column, in
        # ``plan``'s row order.
        assigns = []
        is_write = []
        for fn, reads, writes in op.body:
            for col in (*reads, writes):
                if type(col) is not range or col.step != WORD_BYTES or len(col) != n:
                    return None
                starts.append(col.start)
            c = len(is_write)
            assigns.append((fn, range(c, c + len(reads)), c + len(reads)))
            is_write += [False] * len(reads) + [True]
        if not starts:
            return None
        blocks = cls()
        blocks.lo = op.lo
        blocks.n = n
        blocks.starts = starts
        blocks.assigns = assigns
        blocks.is_write = is_write
        blocks.reads = [c for c, w in enumerate(is_write) if not w]
        blocks.writes = [c for c, w in enumerate(is_write) if w]
        blocks.lone = len(assigns) == 1
        wmask = words_per_line - 1
        blocks.firsts = [(s >> 2) & wmask for s in starts]
        blocks.enters, blocks.span = _line_entries(words_per_line, tuple(blocks.firsts))
        blocks.words_per_line = words_per_line
        return blocks

    def row(self, t: int) -> tuple[int, ...]:
        """Iteration *t* as the per-word path's row (``plan``'s layout)."""
        return (self.lo + t, *[s + (t << 2) for s in self.starts])

    def run(self, t: int, armed: bool, hooks, l1) -> tuple[int, int]:
        """Run blocks from iteration *t* up to the first iteration a block
        cannot serve (or the end); return it and the L1 hits the blocks
        made.  Takes the LRU stamp counter from ``l1._stamp`` and leaves
        it there, as a delegated access does."""
        admit, fresh, on_write, wstate, ieb, meb, _ = hooks
        meb_record = None if meb is None else meb.record_write
        index_get = l1._index.get
        lines_arr = l1._lines
        stamps = l1._stamps
        stamp = l1._stamp
        n = self.n
        starts = self.starts
        is_write = self.is_write
        reads = self.reads
        writes = self.writes
        firsts = self.firsts
        enters = self.enters
        span = self.span
        wmask = self.words_per_line - 1
        line_shift = (self.words_per_line << 2).bit_length() - 1
        ncol = len(starts)
        las = [0] * ncol
        slots = [0] * ncol
        lines = [None] * ncol
        todo = range(ncol)  # the columns entering a line at t
        hits = 0
        while t < n:
            nb = 0
            for c in todo:
                la = (starts[c] + (t << 2)) >> line_shift
                if admit is not None and not admit(la):
                    break
                slot = index_get(la)
                if slot is None:
                    break
                line = lines_arr[slot]
                if is_write[c]:
                    if line.state is not wstate:
                        break
                elif armed and not ieb._mask >> la & 1:
                    break
                las[c] = la
                slots[c] = slot
                lines[c] = line
            else:
                nb = min(span[t & wmask], n - t)
                if fresh is not None:
                    # Checked before the block runs: only a store can make
                    # a word fresh, so a word fresh now is fresh when
                    # read, and a stale one ends the block there.
                    for c in reads:
                        w = (firsts[c] + t) & wmask
                        for j in range(nb):
                            if not fresh(las[c], lines[c], w + j):
                                nb = j
                                break
            if not nb:
                break
            todo = enters[(t + nb) & wmask]
            words = [(f + t) & wmask for f in firsts]
            i = self.lo + t
            if self.lone and las[-1] not in las[:-1]:
                # No column reads what the block stores: every value is
                # known up front, and the stores are one slice.
                w = words[-1]
                lines[-1].data[w:w + nb] = map(
                    self.assigns[0][0], range(i, i + nb),
                    *[lines[c].data[words[c]:words[c] + nb] for c in reads],
                )
            else:
                plan = [
                    (fn, [(lines[c].data, words[c]) for c in srcs],
                     lines[wc].data, words[wc])
                    for fn, srcs, wc in self.assigns
                ]
                for j in range(nb):
                    for fn, srcs, data, w in plan:
                        data[w + j] = fn(i + j, *[d[v + j] for d, v in srcs])
            bits = (1 << nb) - 1
            if meb_record is not None:
                # Record lines in the order their first clean word turns
                # dirty, as the per-word stores would.
                order = []
                for c in writes:
                    clean = bits << words[c] & ~lines[c].dirty_mask
                    if clean:
                        j = (clean & -clean).bit_length() - 1 - words[c]
                        order.append((j, c, las[c]))
                for _, _, la in sorted(order):
                    meb_record(la)
            for c in writes:
                lines[c].dirty_mask |= bits << words[c]
                if on_write is not None:
                    on_write(las[c])
            # Each slot's stamp is its last access's: column c of the
            # block's last iteration.
            top = stamp + (nb - 1) * ncol + 1
            for c in range(ncol):
                stamps[slots[c]] = top + c
            stamp += nb * ncol
            hits += nb * ncol
            t += nb
        l1._stamp = stamp
        return t, hits


class FastCPU(CPU):
    """One core executing one thread through the fused fast paths."""

    __slots__ = ("_loop",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._loop = None

    def _select_loop(self) -> str:
        """Make this core's fused loop, its rules bound once at start (or
        name the reason it takes the reference loop)."""
        machine = self.machine
        proto = machine.protocol
        # Instrumented runs take the reference loop wholesale so traces,
        # metrics, and the staleness shadow are bit-identical.
        if machine.tracer is not None:
            return "reference: tracer"
        if machine.metrics is not None:
            return "reference: metrics"
        if getattr(proto, "detect_staleness", False):
            return "reference: staleness detector"
        cls = type(proto)
        hooks_owner = _defined_in(cls, "fused_hooks")
        if not (
            issubclass(hooks_owner, _defined_in(cls, "read"))
            and issubclass(hooks_owner, _defined_in(cls, "write"))
        ):
            # A protocol that overrides plain accesses without restating
            # its fused rules: fused hits would run its parent's semantics.
            return f"reference: unsupported protocol {cls.__name__}"
        self._loop = self._fused_loop(proto, proto.fused_hooks(self.core_id))
        return "fused"

    def _step(self) -> None:
        """Run (or resume) the fused loop, or run the reference one."""
        if self._loop is None:
            return CPU._step(self)
        next(self._loop, None)

    def release(self) -> None:
        """Close the fused loop too: a parked one's frame holds the core."""
        if self._loop is not None:
            self._loop.close()
            self._loop = None
        super().release()

    # -- the fused loop -----------------------------------------------------

    def _fused_loop(self, proto: Protocol, hooks: FusedHooks):
        """This core's fused loop: one pass per scheduling step, parked at
        each sync op (see the module doc for the resume contract)."""
        engine = self.machine.engine
        stats = self.stats
        stalls = stats.stalls
        rest = StallCat.REST
        program_send = self.program.send
        core_id = self.core_id
        faults = self.machine.faults
        hier = proto.hier
        l1 = hier.l1s[core_id]
        # PackedCache internals (never reassigned; see fastcache module doc).
        index_get = l1._index.get
        lines_arr = l1._lines
        stamps = l1._stamps
        line_bytes = hier.line_bytes
        line_shift = line_bytes.bit_length() - 1
        off_mask = line_bytes - 1
        words_per_line = line_bytes >> 2
        hit_lat = proto._overlapped(hier.l1_latency())
        # The protocol's rules for this core (see FusedHooks); the model
        # callbacks are all None for the base protocol and MESI.
        admit, fresh, on_write, wstate, ieb, meb, fill = hooks
        meb_record = None if meb is None else meb.record_write
        proto_read = proto.read
        proto_write = proto.write
        if fill:
            fill_from_l2 = proto.fill_from_l2
        Read, Write, Compute = isa.Read, isa.Write, isa.Compute
        ReadBatch, WriteBatch, MapBatch = isa.ReadBatch, isa.WriteBatch, isa.MapBatch

        def load(addr):
            """The read rule: one word's value."""
            nonlocal stamp, hits, misses, cyc
            la = addr >> line_shift
            if admit is None or admit(la):
                slot = index_get(la)
                if slot is not None:
                    word = (addr & off_mask) >> 2
                    line = lines_arr[slot]
                    if (
                        not armed
                        or ieb._mask >> la & 1
                        or line.dirty_mask >> word & 1
                    ) and (fresh is None or fresh(la, line, word)):
                        stamp += 1
                        stamps[slot] = stamp
                        hits += 1
                        return line.data[word]
                elif fill and (not armed or ieb._mask >> la & 1):
                    l1._stamp = stamp
                    filled = fill_from_l2(core_id, la)
                    stamp = l1._stamp
                    if filled is not None:
                        misses += 1
                        lat, line = filled
                        cyc += lat
                        return line.data[(addr & off_mask) >> 2]
            l1._stamp = stamp
            lat, value = proto_read(core_id, addr)
            stamp = l1._stamp
            cyc += lat
            return value

        def store(addr, value):
            """The write rule: store one word."""
            nonlocal stamp, hits, misses, cyc
            la = addr >> line_shift
            if admit is None or admit(la):
                slot = index_get(la)
                if slot is None:
                    line = None
                    if fill:
                        l1._stamp = stamp
                        filled = fill_from_l2(core_id, la)
                        stamp = l1._stamp
                        if filled is not None:
                            misses += 1
                            lat, line = filled
                            cyc += proto._overlapped(lat)
                elif (line := lines_arr[slot]).state is wstate:
                    stamp += 1
                    stamps[slot] = stamp
                    hits += 1
                else:
                    line = None
                if line is not None:
                    word = (addr & off_mask) >> 2
                    line.data[word] = value
                    bit = 1 << word
                    dm = line.dirty_mask
                    if not dm & bit:
                        line.dirty_mask = dm | bit
                        if meb_record is not None:
                            meb_record(la)
                    if on_write is not None:
                        on_write(la)
                    return
            l1._stamp = stamp
            cyc += proto_write(core_id, addr, value)
            stamp = l1._stamp

        while True:
            # A step starts here: the first one, or a resume after a sync
            # op, during which other cores and the sync controller may
            # have moved the LRU counter or (dis)armed the IEB.  The rules
            # share the counter and the flag (reloaded after every
            # delegation, which may move them too) and the step's hit,
            # miss and REST-cycle counts.
            send = self._send_value
            self._send_value = None
            stamp = l1._stamp
            armed = ieb is not None and ieb.armed
            loads = stores = hits = misses = cyc = 0
            stall_cyc = 0  # WB/INV/epoch cycles, charged as they happen
            while True:
                try:
                    op = program_send(send)
                except StopIteration:
                    op = None
                    break
                send = None

                kind = type(op)
                if kind is Read:
                    send = load(op.addr)
                    loads += 1
                elif kind is Write:
                    store(op.addr, op.value)
                    stores += 1
                elif kind is Compute:
                    cyc += int(op.cycles)
                elif kind is ReadBatch:
                    send = list(map(load, op.addrs))
                    loads += len(send)
                elif kind is WriteBatch:
                    for addr, value in zip(op.addrs, op.values, strict=True):
                        store(addr, value)
                        stores += 1
                elif kind is MapBatch:
                    # The whole chunk inline.  An affine chunk runs in line
                    # blocks, and only the iterations a block hands back run
                    # as rows here, one at a time.
                    rows, steps = op.plan()
                    n = op.hi - op.lo
                    loads += n * sum(len(srcs) for _, srcs in steps)
                    stores += n * len(steps)
                    steps = _assignments(steps)
                    blocks = _LineBlocks.of(op, words_per_line)
                    t = 0
                    while True:
                        if blocks is not None:
                            l1._stamp = stamp
                            t, block_hits = blocks.run(t, armed, hooks, l1)
                            stamp = l1._stamp
                            hits += block_hits
                            if t == n:
                                break
                            rows = (blocks.row(t),)
                            t += 1
                        for row in rows:
                            k = 1
                            for fn, reads, shape in steps:
                                if shape == 0:
                                    value = fn(row[0])
                                elif shape == 1:
                                    value = fn(row[0], load(row[k]))
                                elif shape == 2:
                                    value = fn(row[0], load(row[k]), load(row[k + 1]))
                                elif shape == 3:
                                    index = int(load(row[k]))
                                    value = fn(row[0], load(reads[0](index)))
                                else:
                                    values = []
                                    for j, addr_of in enumerate(reads, k):
                                        value = load(row[j])
                                        if addr_of is not None:
                                            value = load(addr_of(int(value)))
                                        values.append(value)
                                    value = fn(row[0], *values)
                                k += len(reads)
                                store(row[k], value)
                                k += 1
                        if blocks is None:
                            break
                    cyc += n * int(op.compute)
                elif isinstance(op, isa.SYNC_OPS):
                    break
                else:
                    l1._stamp = stamp
                    lat, cat = self._wbinv(proto, op)
                    stamp = l1._stamp
                    if ieb is not None:
                        armed = ieb.armed
                    if faults is not None:
                        # WB/INV drain through the write buffer (Section
                        # III-C); an injected drain stall delays their
                        # retirement.
                        lat += faults.wbuf_stall(core_id)
                    stats.add_stall(cat, lat)
                    stall_cyc += lat

            # The scheduling boundary: flush the counts, charging every L1
            # hit its latency here.
            l1._stamp = stamp
            cyc += hits * hit_lat
            stats.loads += loads
            stats.stores += stores
            stats.l1_hits += hits
            stats.l1_misses += misses
            stalls[rest] += cyc
            if op is None:
                if cyc + stall_cyc:
                    engine.schedule(cyc + stall_cyc, self._finish)
                else:
                    self._finish()
                return
            self._issue_sync(op, cyc + stall_cyc)
            yield
