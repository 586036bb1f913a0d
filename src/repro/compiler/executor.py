"""Model-2 executor: lower an IR program onto the simulated machine.

:class:`ModelTwoRunner` compiles an :class:`~repro.compiler.ir.IRProgram`
(CFG + DEF-USE instrumentation plan), allocates its arrays in the machine's
shared address space, and spawns one SPMD thread program per core.  The
instrumentation is lowered per the Table II inter-block configuration:

* **HCC** — no instrumentation; the MESI hierarchy keeps caches coherent.
* **Base** — ``WB ALL`` to the L3 before every barrier and ``INV ALL`` from
  the L2 after it, with no address information.
* **Addr** — the plan's directives as explicit-level ``WB_L3`` / ``INV_L2``
  (addresses known, level always global).
* **Addr+L** — level-adaptive ``WB_CONS`` / ``INV_PROD``; directives with an
  unknown peer (reductions, irregular producers, multi-consumer broadcasts)
  fall back to the global ops.

Irregular consumers run the inspector once (first dynamic execution) and
reuse its conflict map in later outer iterations.

A :class:`~repro.compiler.ir.ParallelFor` body is planned once per
program: every affine or fixed ref becomes an *address plan*, a (base byte
address, byte stride) pair — stride 0 for ``Fixed``, and the index array's
position for an ``Indirect`` ref — that
:class:`~repro.compiler.ir.IRProgram` range-checked over the whole
iteration space, so no access is checked again.  Each execution of a
thread's chunk turns the plans into address sequences and issues the
whole chunk as one :class:`~repro.isa.ops.MapBatch`: per iteration, each
assignment's reads (an ``Indirect`` ref as a gather, whose data read is
checked against its array's size), its computed store, and the loop's
compute delay.  Serial-section ranges, a reduction's local input chunk
and its result/counter update are likewise one ``ReadBatch`` or
``WriteBatch`` each.  Batch ops are defined as their exact scalar
sequences (:mod:`repro.isa.ops`), so every access, its order, value and
cycle are those of one scalar op per word.
"""

from __future__ import annotations

from typing import Any

from repro.compiler import ir
from repro.compiler.cfg import CFG
from repro.compiler.defuse import InstrumentationPlan, analyze
from repro.compiler.inspector import run_inspector
from repro.compiler.schedule import chunk_bounds
from repro.common.errors import CompilerError
from repro.common.params import WORD_BYTES
from repro.core.config import InterMode
from repro.core.context import ThreadCtx
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.mem.addrspace import SharedArray

#: Lock IDs for reduction critical sections start here (barrier ids are low).
_REDUCE_LOCK_BASE = 1 << 16


class ModelTwoRunner:
    """Compile + allocate + spawn an IR program on a machine."""

    def __init__(self, machine: Machine, program: ir.IRProgram) -> None:
        self.machine = machine
        self.program = program
        self.mode: InterMode = machine.config.inter_mode
        self.n = machine.num_threads
        self.cfg = CFG(program)
        self._sid_of = {id(n.stmt): n.sid for n in self.cfg.nodes}
        self.plan: InstrumentationPlan | None = None
        if self.mode in (InterMode.ADDR, InterMode.ADDR_LEVEL):
            self.plan = analyze(program, self.n)

        self.arrays: dict[str, SharedArray] = {
            name: machine.array(name, size)
            for name, size in program.arrays.items()
        }
        self._validate_reductions()
        self._bodies = {
            id(stmt): [self._plan_assign(a) for a in stmt.body]
            for stmt in ir.iter_stmts(program.stmts)
            if isinstance(stmt, ir.ParallelFor)
        }

        # Conflict arrays for irregular consumers (one per data array read
        # indirectly), plus inspector result caches keyed by (irregular, tid).
        self._conflict_arrays: dict[tuple[int, str], SharedArray] = {}
        if self.plan is not None:
            for sid, irrs in self.plan.irregular.items():
                for irr in irrs:
                    key = (sid, irr.array)
                    if key not in self._conflict_arrays:
                        self._conflict_arrays[key] = machine.array(
                            f"__conflict_{sid}_{irr.array}",
                            self.program.arrays[irr.array],
                        )
        self._inspector_cache: dict[tuple[int, int, str], dict[int, int]] = {}

    # -- setup helpers -----------------------------------------------------------

    def _validate_reductions(self) -> None:
        for stmt in ir.iter_stmts(self.program.stmts):
            if isinstance(stmt, (ir.ReduceStmt, ir.HierReduceStmt)):
                declared = self.program.arrays[stmt.result]
                if declared != stmt.width + 1:
                    raise CompilerError(
                        f"reduction {stmt.name!r}: result array must have "
                        f"width+1 = {stmt.width + 1} elements, got {declared}"
                    )
            if isinstance(stmt, ir.HierReduceStmt):
                declared = self.program.arrays[stmt.blockpart]
                stride = self._block_slot_stride(stmt)
                want = self.machine.params.num_blocks * stride
                if declared != want:
                    raise CompilerError(
                        f"hierarchical reduction {stmt.name!r}: blockpart "
                        f"must have num_blocks*{stride} = {want} elements, "
                        f"got {declared}"
                    )

    def _block_slot_stride(self, stmt: ir.HierReduceStmt) -> int:
        """Block slots are padded to whole cache lines (no false sharing)."""
        wpl = self.machine.params.words_per_line
        return -(-(stmt.width + 1) // wpl) * wpl

    def preload(self, name: str, values: list[Any]) -> None:
        """Seed an array's initial contents directly in main memory (untimed).

        Models program input that is resident in memory before the parallel
        region starts (e.g. the sparse matrix read from a file).
        """
        arr = self.arrays[name]
        if len(values) != arr.size:
            raise CompilerError(
                f"preload of {name!r}: {len(values)} values for {arr.size} slots"
            )
        mem = self.machine.hier.memory
        for addr, value in zip(arr.element_addrs(), values):
            mem.write_word(addr // WORD_BYTES, value)

    def spawn_all(self) -> None:
        self.machine.spawn_all(self._thread)

    def result(self, name: str) -> list[Any]:
        """Final contents of an array from main memory (after run)."""
        return self.machine.read_array(self.arrays[name])

    # -- thread program ------------------------------------------------------------

    def _thread(self, ctx: ThreadCtx):
        # One delegation level per statement: the loop nest is walked by a
        # plain statement iterator, not by nested op generators.
        execute = {
            ir.ParallelFor: self._parallel_for,
            ir.SerialStmt: self._serial,
            ir.ReduceStmt: self._reduce,
            ir.HierReduceStmt: self._hier_reduce,
        }
        for stmt in ir.execution_order(self.program.stmts):
            yield from execute[type(stmt)](ctx, stmt)

    # -- instrumentation lowering ------------------------------------------------------

    def _range_args(self, array: str, lo: int, hi: int) -> tuple[int, int]:
        arr = self.arrays[array]
        return arr.addr(lo), (hi - lo) * WORD_BYTES

    def _emit_invs(self, ctx: ThreadCtx, sid: int):
        if self.plan is None:
            return
        for d in self.plan.invs(sid, ctx.tid):
            addr, length = self._range_args(d.array, d.lo, d.hi)
            if self.mode == InterMode.ADDR or d.prod is None:
                yield isa.INVL2(addr, length)
            else:
                yield isa.InvProd(addr, length, d.prod)

    def _emit_wbs(self, ctx: ThreadCtx, sid: int):
        if self.plan is None:
            return
        for d in self.plan.wbs(sid, ctx.tid):
            addr, length = self._range_args(d.array, d.lo, d.hi)
            if self.mode == InterMode.ADDR or d.cons is None:
                yield isa.WBL3(addr, length)
            elif len(d.cons) > 4:
                # Many consumers (a broadcast): a single WB to the
                # last-level cache serves them all.
                yield isa.WBL3(addr, length)
            else:
                # A few known consumers: one WB_CONS each.  After the first
                # writes the lines back, later ones find them clean — the
                # hardware dedupes the data movement, and a remote consumer
                # among them still pushes the words parked in the L2 up to
                # the L3 (Section V-B's L1+L2 tag check).
                for cons in sorted(d.cons):
                    yield isa.WBCons(addr, length, cons)

    def _epoch_close(self, ctx: ThreadCtx, sid: int):
        """Producer-side WBs, the barrier, and Base's post-barrier INV ALL."""
        if self.mode == InterMode.BASE:
            yield isa.WBAllL3()
        else:
            yield from self._emit_wbs(ctx, sid)
        yield isa.Barrier(0, self.n)
        if self.mode == InterMode.BASE:
            yield isa.INVAllL2()

    # -- irregular consumers --------------------------------------------------------------

    def _irregular_invs(self, ctx: ThreadCtx, stmt: ir.ParallelFor, sid: int):
        if self.plan is None:
            return
        for irr in self.plan.irregular.get(sid, []):
            cache_key = (sid, ctx.tid, irr.array)
            conflicts = self._inspector_cache.get(cache_key)
            if conflicts is None:
                conflicts = yield from run_inspector(
                    irr,
                    ctx.tid,
                    self.n,
                    stmt.length,
                    self.arrays,
                    self._conflict_arrays[(sid, irr.array)],
                )
                self._inspector_cache[cache_key] = conflicts
            data = self.arrays[irr.array]
            for elem in sorted(conflicts):
                writer = conflicts[elem]
                addr = data.addr(elem)
                if self.mode == InterMode.ADDR:
                    yield isa.INVL2(addr, WORD_BYTES)
                else:
                    yield isa.InvProd(addr, WORD_BYTES, writer)

    # -- statement execution -----------------------------------------------------------------

    def _plan_assign(self, assign: ir.Assign):
        """Address plans for one body assignment, built once per program.

        Returns ``(fn, read plans, write plan)``.  A plan is the (base
        byte address, byte stride) of the affine or fixed position a ref
        accesses at each iteration; a read plan adds ``addr_of``: None,
        or for an indirect ref (whose plan reads its index array) the
        data array's checked ``addr``.
        """
        reads = []
        for ref in assign.rhs:
            idx = ref.index
            if isinstance(idx, ir.Indirect):
                base, stride = self._addr_plan(idx.index_array, idx)
                reads.append((base, stride, self.arrays[ref.array].addr))
            else:
                reads.append((*self._addr_plan(ref.array, idx), None))
        return (assign.fn, reads,
                self._addr_plan(assign.lhs.array, assign.lhs.index))

    def _addr_plan(self, array: str, index: ir.Index) -> tuple[int, int]:
        """(base, stride) in bytes of the position *index* reads in *array*."""
        coeff, offset = index.linear()
        base = self.arrays[array].addr(0)
        return base + offset * WORD_BYTES, coeff * WORD_BYTES

    def _parallel_for(self, ctx: ThreadCtx, stmt: ir.ParallelFor):
        sid = self._sid_of[id(stmt)]
        yield from self._emit_invs(ctx, sid)
        yield from self._irregular_invs(ctx, stmt, sid)

        # The whole chunk is one MapBatch.  ``IRProgram`` range-checked
        # every plan over the whole iteration space, so no address is
        # checked again (a gather's data read is, by its ``addr_of``).
        lo, hi = chunk_bounds(stmt.length, self.n, ctx.tid)

        def span(base, stride, addr_of=None):
            if stride:
                seq = range(base + stride * lo, base + stride * hi, stride)
            else:
                seq = (base,) * (hi - lo)
            return seq if addr_of is None else isa.Gather(seq, addr_of)

        yield isa.MapBatch(lo, hi, tuple(
            (fn, tuple(span(*p) for p in reads), span(*write))
            for fn, reads, write in self._bodies[id(stmt)]
        ), stmt.compute_cycles)

        yield from self._epoch_close(ctx, sid)

    def _words(self, array: str, lo: int, hi: int) -> range:
        """Byte addresses of ``array[lo:hi]`` (``IRProgram`` checked the range)."""
        base = self.arrays[array].addr(0)
        return range(base + lo * WORD_BYTES, base + hi * WORD_BYTES, WORD_BYTES)

    def _local_partial(self, ctx: ThreadCtx, stmt):
        """A reduction's local phase: load this thread's chunk of every
        input (one op per input), charge the compute, return the partial."""
        env: dict[str, list[Any]] = {}
        for r in stmt.inputs:
            lo, hi = chunk_bounds(r.hi - r.lo, self.n, ctx.tid)
            env[r.array] = yield from _load(
                self._words(r.array, r.lo + lo, r.lo + hi)
            )
        if stmt.compute_cycles:
            yield isa.Compute(stmt.compute_cycles)
        return stmt.partial_fn(ctx.tid, self.n, env)

    def _fold(self, stmt, array: str, slot: int, participants: int, partial):
        """Critical-section body: fold *partial* into ``array[slot:]``.

        The arrival counter after the ``width`` values restarts the fold
        from the identity once every *participant* of a round has arrived.
        """
        words = self._words(array, slot, slot + stmt.width + 1)
        counter = yield isa.Read(words[-1])
        if int(counter) % participants == 0:
            current = stmt.identity_values()
        else:
            current = yield from _load(words[:-1])
        new = stmt.combine_fn(current, partial)
        values = [new[k] for k in range(stmt.width)]
        values.append(int(counter) + 1)
        yield from _store(words, values)

    def _serial(self, ctx: ThreadCtx, stmt: ir.SerialStmt):
        sid = self._sid_of[id(stmt)]
        if ctx.tid == 0:
            yield from self._emit_invs(ctx, sid)
            env: dict[str, list[Any]] = {}
            for r in stmt.reads:
                env[r.array] = yield from _load(self._words(r.array, r.lo, r.hi))
            if stmt.compute_cycles:
                yield isa.Compute(stmt.compute_cycles)
            out = stmt.fn(env)
            for w in stmt.writes:
                values = out[w.array]
                if len(values) != w.hi - w.lo:
                    raise CompilerError(
                        f"serial stmt {stmt.name!r} returned "
                        f"{len(values)} values for {w.array}[{w.lo}:{w.hi}]"
                    )
                yield from _store(self._words(w.array, w.lo, w.hi), values)
            yield from self._epoch_close(ctx, sid)
        else:
            if self.mode == InterMode.BASE:
                yield isa.WBAllL3()
            yield isa.Barrier(0, self.n)
            if self.mode == InterMode.BASE:
                yield isa.INVAllL2()

    def _reduce(self, ctx: ThreadCtx, stmt: ir.ReduceStmt):
        sid = self._sid_of[id(stmt)]
        yield from self._emit_invs(ctx, sid)

        partial = yield from self._local_partial(ctx, stmt)
        if len(partial) != stmt.width:
            raise CompilerError(
                f"reduction {stmt.name!r}: partial has {len(partial)} values, "
                f"expected {stmt.width}"
            )

        # Combine phase: unordered critical-section update of the result.
        res_addr, res_len = self._range_args(stmt.result, 0, stmt.width + 1)
        lid = _REDUCE_LOCK_BASE + sid
        yield isa.LockAcquire(lid)
        if self.mode == InterMode.BASE:
            yield isa.INVAllL2()
        elif self.mode in (InterMode.ADDR, InterMode.ADDR_LEVEL):
            yield isa.INVL2(res_addr, res_len)
        yield from self._fold(stmt, stmt.result, 0, self.n, partial)
        if self.mode == InterMode.BASE:
            yield isa.WBAllL3()
        elif self.mode in (InterMode.ADDR, InterMode.ADDR_LEVEL):
            yield isa.WBL3(res_addr, res_len)
        yield isa.LockRelease(lid)

        yield isa.Barrier(0, self.n)
        if self.mode == InterMode.BASE:
            yield isa.INVAllL2()

    def _hier_reduce(self, ctx: ThreadCtx, stmt: ir.HierReduceStmt):
        """Two-level reduction (Section VII-C's suggested rewrite).

        Level 1: fold the thread partial into the *block's* slot under a
        block-local lock; in Addr+L the slot's WB/INV stay at the L1↔L2
        level because every participant shares the block.  Level 2: one
        leader per block folds the block slots into the global result —
        a critical section with ``num_blocks`` participants instead of
        ``num_threads``.
        """
        sid = self._sid_of[id(stmt)]
        yield from self._emit_invs(ctx, sid)
        placement = self.machine.placement
        block = placement.block_of_thread(ctx.tid)
        block_threads = placement.threads_in_block(block)
        stride = self._block_slot_stride(stmt)

        # Local phase: thread partial over its input chunk.
        partial = yield from self._local_partial(ctx, stmt)

        # Level 1: block-local critical section on the block's slot.
        slot = block * stride
        slot_addr, slot_len = self._range_args(
            stmt.blockpart, slot, slot + stmt.width + 1
        )
        lid = (
            _REDUCE_LOCK_BASE
            + 2 * sid * self.machine.params.num_blocks
            + block
        )
        yield isa.LockAcquire(lid)
        if self.mode == InterMode.BASE:
            yield isa.INVAllL2()
        elif self.mode == InterMode.ADDR:
            yield isa.INVL2(slot_addr, slot_len)
        elif self.mode == InterMode.ADDR_LEVEL:
            yield isa.INV(slot_addr, slot_len)  # in-block: L1-level only
        yield from self._fold(
            stmt, stmt.blockpart, slot, len(block_threads), partial
        )
        if self.mode == InterMode.BASE:
            yield isa.WBAllL3()
        elif self.mode == InterMode.ADDR:
            yield isa.WBL3(slot_addr, slot_len)
        elif self.mode == InterMode.ADDR_LEVEL:
            yield isa.WB(slot_addr, slot_len)  # in-block: to the L2 only
        yield isa.LockRelease(lid)
        yield isa.Barrier(0, self.n)
        if self.mode == InterMode.BASE:
            yield isa.INVAllL2()

        # Level 2: block leaders combine the block slots globally.
        if ctx.tid == min(block_threads):
            res_addr, res_len = self._range_args(stmt.result, 0, stmt.width + 1)
            glid = (
                _REDUCE_LOCK_BASE
                + (2 * sid + 1) * self.machine.params.num_blocks
            )
            if self.mode in (InterMode.ADDR, InterMode.ADDR_LEVEL):
                yield isa.INV(slot_addr, slot_len)  # refresh own block slot
            block_vals = yield from _load(
                self._words(stmt.blockpart, slot, slot + stmt.width)
            )
            yield isa.LockAcquire(glid)
            if self.mode == InterMode.BASE:
                yield isa.INVAllL2()
            elif self.mode in (InterMode.ADDR, InterMode.ADDR_LEVEL):
                yield isa.INVL2(res_addr, res_len)
            yield from self._fold(
                stmt, stmt.result, 0, self.machine.params.num_blocks,
                block_vals,
            )
            if self.mode == InterMode.BASE:
                yield isa.WBAllL3()
            elif self.mode in (InterMode.ADDR, InterMode.ADDR_LEVEL):
                yield isa.WBL3(res_addr, res_len)
            yield isa.LockRelease(glid)
        yield isa.Barrier(0, self.n)
        if self.mode == InterMode.BASE:
            yield isa.INVAllL2()


def _load(addrs):
    """Read *addrs* in order as one op and return the values as a list.

    One address is a plain ``Read``, several a ``ReadBatch``; an empty
    run issues nothing.
    """
    if len(addrs) == 1:
        return [(yield isa.Read(addrs[0]))]
    if not addrs:
        return []
    return (yield isa.ReadBatch(addrs))


def _store(addrs, values):
    """Write ``values[k]`` to ``addrs[k]`` in order as one op."""
    if len(addrs) == 1:
        yield isa.Write(addrs[0], values[0])
    elif addrs:
        yield isa.WriteBatch(addrs, values)
