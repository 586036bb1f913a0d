"""Fast-engine core: fused L1-hit execution behind the CPU interface.

:class:`FastCPU` overrides :meth:`repro.core.cpu.CPU._step` with two
protocol-specialized loops that execute L1 *hits* — by far the most common
memory operation — inline against the :class:`~repro.engines.fastcache.
PackedCache` arrays, without a protocol method call, a dict-reorder LRU
touch, or per-access float math:

* address arithmetic is shift/mask (line sizes are powers of two),
* the hit latency ``max(1, round(l1_rt * (1 - overlap)))`` is a
  precomputed constant,
* loads/stores/hits/stall counters accumulate in locals and flush to
  :class:`~repro.sim.stats.CoreStats` at scheduling boundaries,
* batch macro-ops (``ReadBatch``/``WriteBatch``/``CopyBatch``/``AddBatch``)
  run their whole word sequence inside one dispatch.

One loop serves directory MESI; one serves the incoherent hierarchy and
every memory model built on it (:mod:`repro.models`).  A model describes
how its plain accesses differ from the base protocol as per-core
:class:`~repro.coherence.incoherent.FusedHooks` (``admit``, ``fresh``,
``on_fill``, ``on_write``), which the incoherent loop calls around its
inline hits and fills; the base protocol has none.

Everything that is not a plain L1 hit — misses, IEB-armed refreshes, MESI
S-state upgrades, rc lazy refreshes, sisd ownership flips, WB/INV
instructions, synchronization — delegates to the *shared* protocol/sync
implementations, so the complex paths have exactly one implementation and
the fast engine inherits their semantics (and their fault-injection hooks)
verbatim.  When an observability sink or the staleness detector is
attached, each core falls back to the reference loop: instrumented runs
are reference runs.  The loop taken is recorded as ``Machine.cpu_loop``
(``"fused"`` or ``"reference: <reason>"``).

Bit-identity argument, per fused path (vs. the reference protocols):

* incoherent read hit: requires a resident line and — in an IEB-armed
  epoch — the line being refreshed (IEB membership) or the target word
  locally dirty; charges ``l1_hits += 1`` and the overlapped L1 latency.
* incoherent write hit: resident line; writes the word, sets the per-word
  dirty bit, records a clean→dirty transition in the MEB; same charge.
* rc read hit: as incoherent, plus ``fresh`` — the line was filled in the
  current acquire epoch or the word is locally dirty; a stale line goes
  to ``rc.read``, which runs the lazy refresh.  The inline L2 fill stamps
  the fill epoch through ``on_fill`` exactly as ``rc._fetch_into_l1``
  does, and every inline store adds its line to the region write set
  through ``on_write`` (a set insert, so ``rc.write`` repeating it on a
  delegated store changes nothing).
* sisd access: ``admit`` records the first owner and returns True unless
  the access flips the line private→shared; a flip sends the whole access
  to ``sisd.read``/``sisd.write`` *before* any fused side effect, so the
  classifier and transition recovery run in reference order (re-admitting
  is a no-op for an already-recorded owner).  Admitted hits and fills are
  the incoherent ones.
* MESI read hit: resident line in M/E/S; same charge.
* MESI write hit: resident line in M or E; E→M promotes through the same
  directory fix-ups as the reference (owner, L3 owner_block); same charge.

All other cases take the exact reference code path.
"""

from __future__ import annotations

from repro.coherence.incoherent import IncoherentProtocol
from repro.coherence.mesi import MESIProtocol
from repro.core.cpu import CPU
from repro.isa import ops as isa
from repro.mem.line import CacheLine, MESIState
from repro.sim.stats import StallCat, TrafficCat


class FastCPU(CPU):
    """One core executing one thread through the fused fast paths."""

    __slots__ = ("_loop", "_hooks")

    def _select_loop(self) -> str:
        """Pick this core's loop (and its model's hooks) once, at start."""
        machine = self.machine
        proto = machine.protocol
        self._loop = self._hooks = None
        # Instrumented runs take the reference loop wholesale so traces,
        # metrics, and the staleness shadow are bit-identical.
        if machine.tracer is not None:
            return "reference: tracer"
        if machine.metrics is not None:
            return "reference: metrics"
        if getattr(proto, "detect_staleness", False):
            return "reference: staleness detector"
        cls = type(proto)
        if cls is MESIProtocol:
            self._loop = FastCPU._step_mesi
        elif isinstance(proto, IncoherentProtocol) and (
            cls.fused_hooks is not IncoherentProtocol.fused_hooks
            or (
                cls.read is IncoherentProtocol.read
                and cls.write is IncoherentProtocol.write
            )
        ):
            self._loop = FastCPU._step_incoherent
            self._hooks = proto.fused_hooks(self.core_id)
        else:
            # An unknown protocol, or one that overrides plain accesses
            # without describing them as hooks: fused hits would run the
            # base semantics.
            return f"reference: unsupported protocol {cls.__name__}"
        return "fused"

    def _step(self) -> None:
        """Run the loop chosen at start (or the reference one)."""
        loop = self._loop
        if loop is None:
            return CPU._step(self)
        return loop(self, self.machine.protocol)

    # -- incoherent fast loop ----------------------------------------------

    def _step_incoherent(self, proto: IncoherentProtocol) -> None:
        engine = self.machine.engine
        stats = self.stats
        stalls = stats.stalls
        rest = StallCat.REST
        advance = self.program.send
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
        hit_lat = max(
            1, round(hier.l1_latency() * (1.0 - proto.machine.core.overlap))
        )
        ieb = proto.iebs[core_id]
        use_meb = proto.use_meb
        meb_record = proto.mebs[core_id].record_write
        # The model's plain-access hooks (all None for the base protocol).
        admit, fresh, on_fill, on_write = self._hooks
        proto_read = proto.read
        proto_write = proto.write
        ov = proto._overlapped
        l2_row = hier.l2_banks[hier.block_of_core(core_id)]
        cpb = hier.machine.cores_per_block
        l2_lat_row = hier._l2_lat[core_id]
        count_line = hier.count_line_transfer
        linefill = TrafficCat.LINEFILL
        wb_l1 = proto._wb_l1_line
        l1_insert = l1.insert
        Read, Write, Compute = isa.Read, isa.Write, isa.Compute
        ReadBatch, WriteBatch = isa.ReadBatch, isa.WriteBatch
        CopyBatch, AddBatch = isa.CopyBatch, isa.AddBatch

        acc = 0          # this step's total simulated cycles
        rest_cyc = 0     # portion attributed to StallCat.REST
        loads = 0
        stores = 0
        hits = 0
        misses = 0
        send = self._send_value
        self._send_value = None
        # The LRU stamp counter and the IEB armed flag live in locals on the
        # fused paths.  Every delegated call (protocol read/write, WB/INV,
        # sync) may advance the counter or rearm the IEB, so the locals are
        # written back before and reloaded after each delegation.
        stamp = l1._stamp
        armed = ieb.armed

        def l2_fetch(la):
            """Inline ``_fetch_into_l1`` for a plain L1 miss that hits the
            home L2 bank: same touch, same victim handling (delegated), same
            LINEFILL accounting, same table-driven latency, same ``on_fill``
            hook.  Returns ``None`` on an L2 miss — the caller then delegates
            the whole operation to the shared protocol, which re-probes
            without side effects."""
            nonlocal stamp, misses
            if faults is not None:
                # Chaos runs route every miss through the shared protocol so
                # injected NoC/memory delays apply; the inline path assumes
                # the fault-free latency tables.
                return None
            bank = l2_row[la % cpb]
            bslot = bank._index.get(la)
            if bslot is None:
                return None
            bs = bank._stamp + 1
            bank._stamp = bs
            bank._stamps[bslot] = bs
            line = CacheLine(la, list(bank._lines[bslot].data))
            l1._stamp = stamp
            victim = l1_insert(line)
            if victim is not None and victim.dirty:
                wb_l1(core_id, victim, critical=False)
            stamp = l1._stamp
            count_line(linefill)
            misses += 1
            if on_fill is not None:
                on_fill(la)
            return line

        while True:
            try:
                op = advance(send)
            except StopIteration:
                l1._stamp = stamp
                stats.loads += loads
                stats.stores += stores
                stats.l1_hits += hits
                stats.l1_misses += misses
                stalls[rest] += rest_cyc
                if acc:
                    engine.schedule(acc, self._finish)
                else:
                    self._finish()
                return
            send = None

            kind = type(op)
            if kind is Read:
                addr = op.addr
                la = addr >> line_shift
                slot = index_get(la)
                if admit is not None and not admit(la):
                    pass
                elif slot is not None:
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
                        loads += 1
                        rest_cyc += hit_lat
                        acc += hit_lat
                        send = line.data[word]
                        continue
                elif not armed or ieb._mask >> la & 1:
                    line = l2_fetch(la)
                    if line is not None:
                        loads += 1
                        lat = l2_lat_row[la % cpb]
                        rest_cyc += lat
                        acc += lat
                        send = line.data[(addr & off_mask) >> 2]
                        continue
                l1._stamp = stamp
                lat, send = proto_read(core_id, addr)
                stamp = l1._stamp
                loads += 1
                rest_cyc += lat
                acc += lat
            elif kind is Write:
                addr = op.addr
                la = addr >> line_shift
                slot = index_get(la)
                if admit is not None and not admit(la):
                    line = None
                elif slot is not None:
                    line = lines_arr[slot]
                    stamp += 1
                    stamps[slot] = stamp
                    word = (addr & off_mask) >> 2
                    line.data[word] = op.value
                    bit = 1 << word
                    dm = line.dirty_mask
                    if not dm & bit:
                        line.dirty_mask = dm | bit
                        if use_meb:
                            meb_record(la)
                    if on_write is not None:
                        on_write(la)
                    hits += 1
                    stores += 1
                    rest_cyc += hit_lat
                    acc += hit_lat
                    continue
                else:
                    line = l2_fetch(la)
                if line is not None:
                    word = (addr & off_mask) >> 2
                    line.data[word] = op.value
                    line.dirty_mask = 1 << word  # fresh copy was clean
                    if use_meb:
                        meb_record(la)
                    if on_write is not None:
                        on_write(la)
                    lat = ov(l2_lat_row[la % cpb])
                else:
                    l1._stamp = stamp
                    lat = proto_write(core_id, addr, op.value)
                    stamp = l1._stamp
                stores += 1
                rest_cyc += lat
                acc += lat
            elif kind is Compute:
                cycles = int(op.cycles)
                rest_cyc += cycles
                acc += cycles
            elif kind is ReadBatch:
                values = []
                append = values.append
                for addr in op.addrs:
                    la = addr >> line_shift
                    slot = index_get(la)
                    if admit is not None and not admit(la):
                        pass
                    elif slot is not None:
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
                            rest_cyc += hit_lat
                            acc += hit_lat
                            append(line.data[word])
                            continue
                    elif not armed or ieb._mask >> la & 1:
                        line = l2_fetch(la)
                        if line is not None:
                            lat = l2_lat_row[la % cpb]
                            rest_cyc += lat
                            acc += lat
                            append(line.data[(addr & off_mask) >> 2])
                            continue
                    l1._stamp = stamp
                    lat, value = proto_read(core_id, addr)
                    stamp = l1._stamp
                    rest_cyc += lat
                    acc += lat
                    append(value)
                loads += len(values)
                send = values
            elif kind is WriteBatch:
                for addr, value in zip(op.addrs, op.values, strict=True):
                    stores += 1
                    la = addr >> line_shift
                    slot = index_get(la)
                    if admit is not None and not admit(la):
                        line = None
                    elif slot is not None:
                        line = lines_arr[slot]
                        stamp += 1
                        stamps[slot] = stamp
                        word = (addr & off_mask) >> 2
                        line.data[word] = value
                        bit = 1 << word
                        dm = line.dirty_mask
                        if not dm & bit:
                            line.dirty_mask = dm | bit
                            if use_meb:
                                meb_record(la)
                        if on_write is not None:
                            on_write(la)
                        hits += 1
                        rest_cyc += hit_lat
                        acc += hit_lat
                        continue
                    else:
                        line = l2_fetch(la)
                    if line is not None:
                        word = (addr & off_mask) >> 2
                        line.data[word] = value
                        line.dirty_mask = 1 << word
                        if use_meb:
                            meb_record(la)
                        if on_write is not None:
                            on_write(la)
                        lat = ov(l2_lat_row[la % cpb])
                    else:
                        l1._stamp = stamp
                        lat = proto_write(core_id, addr, value)
                        stamp = l1._stamp
                    rest_cyc += lat
                    acc += lat
            elif kind is CopyBatch or kind is AddBatch:
                if kind is CopyBatch:
                    pairs = zip(op.src_addrs, op.dst_addrs, strict=True)
                else:
                    pairs = zip(op.addrs, op.deltas, strict=True)
                for src, second in pairs:
                    loads += 1
                    stores += 1
                    la = src >> line_shift
                    slot = index_get(la)
                    if admit is not None and not admit(la):
                        line = None
                    elif slot is not None:
                        word = (src & off_mask) >> 2
                        line = lines_arr[slot]
                        if (
                            not armed
                            or ieb._mask >> la & 1
                            or line.dirty_mask >> word & 1
                        ) and (fresh is None or fresh(la, line, word)):
                            stamp += 1
                            stamps[slot] = stamp
                            hits += 1
                            rest_cyc += hit_lat
                            acc += hit_lat
                            value = line.data[word]
                        else:
                            line = None
                    elif not armed or ieb._mask >> la & 1:
                        line = l2_fetch(la)
                        if line is not None:
                            lat = l2_lat_row[la % cpb]
                            rest_cyc += lat
                            acc += lat
                            value = line.data[(src & off_mask) >> 2]
                    else:
                        line = None
                    if line is None:
                        l1._stamp = stamp
                        lat, value = proto_read(core_id, src)
                        stamp = l1._stamp
                        rest_cyc += lat
                        acc += lat
                    if kind is CopyBatch:
                        waddr = second
                    else:
                        waddr = src
                        value = value + second
                    la = waddr >> line_shift
                    slot = index_get(la)
                    if admit is not None and not admit(la):
                        wline = None
                    elif slot is not None:
                        wline = lines_arr[slot]
                        stamp += 1
                        stamps[slot] = stamp
                        word = (waddr & off_mask) >> 2
                        wline.data[word] = value
                        bit = 1 << word
                        dm = wline.dirty_mask
                        if not dm & bit:
                            wline.dirty_mask = dm | bit
                            if use_meb:
                                meb_record(la)
                        if on_write is not None:
                            on_write(la)
                        hits += 1
                        rest_cyc += hit_lat
                        acc += hit_lat
                        continue
                    else:
                        wline = l2_fetch(la)
                    if wline is not None:
                        word = (waddr & off_mask) >> 2
                        wline.data[word] = value
                        wline.dirty_mask = 1 << word
                        if use_meb:
                            meb_record(la)
                        if on_write is not None:
                            on_write(la)
                        lat = ov(l2_lat_row[la % cpb])
                    else:
                        l1._stamp = stamp
                        lat = proto_write(core_id, waddr, value)
                        stamp = l1._stamp
                    rest_cyc += lat
                    acc += lat
            elif isinstance(op, isa.SYNC_OPS):
                l1._stamp = stamp
                stats.loads += loads
                stats.stores += stores
                stats.l1_hits += hits
                stats.l1_misses += misses
                stalls[rest] += rest_cyc
                self._issue_sync(op, acc)
                return
            else:
                l1._stamp = stamp
                lat, cat = self._wbinv(proto, op)
                stamp = l1._stamp
                armed = ieb.armed
                if faults is not None:
                    # WB/INV drain through the write buffer (Section III-C);
                    # an injected drain stall delays their retirement.
                    lat += faults.wbuf_stall(core_id)
                stats.add_stall(cat, lat)
                acc += lat

    # -- MESI fast loop -----------------------------------------------------

    def _step_mesi(self, proto: MESIProtocol) -> None:
        engine = self.machine.engine
        stats = self.stats
        stalls = stats.stalls
        rest = StallCat.REST
        advance = self.program.send
        core_id = self.core_id
        faults = self.machine.faults
        hier = proto.hier
        l1 = hier.l1s[core_id]
        index_get = l1._index.get
        lines_arr = l1._lines
        stamps = l1._stamps
        line_bytes = hier.line_bytes
        line_shift = line_bytes.bit_length() - 1
        off_mask = line_bytes - 1
        hit_lat = max(
            1, round(hier.l1_latency() * (1.0 - proto.machine.core.overlap))
        )
        block = hier.block_of_core(core_id)
        dir2 = proto._dir2
        l3_get = proto._l3_dir.get
        M, E, I = MESIState.M, MESIState.E, MESIState.I
        proto_read = proto.read
        proto_write = proto.write
        Read, Write, Compute = isa.Read, isa.Write, isa.Compute
        ReadBatch, WriteBatch = isa.ReadBatch, isa.WriteBatch
        CopyBatch, AddBatch = isa.CopyBatch, isa.AddBatch

        acc = 0
        rest_cyc = 0
        loads = 0
        stores = 0
        hits = 0
        send = self._send_value
        self._send_value = None
        # Local LRU stamp counter; synced around every delegated call
        # (see the incoherent loop above for the discipline).
        stamp = l1._stamp

        def write_hit(line, la, waddr, value) -> None:
            """One M/E-state store: E→M directory fix-up plus the word write."""
            nonlocal hits, rest_cyc, acc
            if line.state is E:
                line.state = M
                dir2(block, la).owner = core_id
                d3 = l3_get(la)
                if d3 is not None:
                    d3.owner_block = block
            word = (waddr & off_mask) >> 2
            line.data[word] = value
            line.dirty_mask |= 1 << word
            hits += 1
            rest_cyc += hit_lat
            acc += hit_lat

        while True:
            try:
                op = advance(send)
            except StopIteration:
                l1._stamp = stamp
                stats.loads += loads
                stats.stores += stores
                stats.l1_hits += hits
                stalls[rest] += rest_cyc
                if acc:
                    engine.schedule(acc, self._finish)
                else:
                    self._finish()
                return
            send = None

            kind = type(op)
            if kind is Read:
                addr = op.addr
                slot = index_get(addr >> line_shift)
                if slot is not None:
                    line = lines_arr[slot]
                    if line.state is not I:
                        stamp += 1
                        stamps[slot] = stamp
                        hits += 1
                        loads += 1
                        rest_cyc += hit_lat
                        acc += hit_lat
                        send = line.data[(addr & off_mask) >> 2]
                        continue
                l1._stamp = stamp
                lat, send = proto_read(core_id, addr)
                stamp = l1._stamp
                loads += 1
                rest_cyc += lat
                acc += lat
            elif kind is Write:
                addr = op.addr
                la = addr >> line_shift
                slot = index_get(la)
                stores += 1
                if slot is not None:
                    line = lines_arr[slot]
                    st = line.state
                    if st is M or st is E:
                        stamp += 1
                        stamps[slot] = stamp
                        write_hit(line, la, addr, op.value)
                        continue
                l1._stamp = stamp
                lat = proto_write(core_id, addr, op.value)
                stamp = l1._stamp
                rest_cyc += lat
                acc += lat
            elif kind is Compute:
                cycles = int(op.cycles)
                rest_cyc += cycles
                acc += cycles
            elif kind is ReadBatch:
                values = []
                append = values.append
                for addr in op.addrs:
                    slot = index_get(addr >> line_shift)
                    if slot is not None:
                        line = lines_arr[slot]
                        if line.state is not I:
                            stamp += 1
                            stamps[slot] = stamp
                            hits += 1
                            rest_cyc += hit_lat
                            acc += hit_lat
                            append(line.data[(addr & off_mask) >> 2])
                            continue
                    l1._stamp = stamp
                    lat, value = proto_read(core_id, addr)
                    stamp = l1._stamp
                    rest_cyc += lat
                    acc += lat
                    append(value)
                loads += len(values)
                send = values
            elif kind is WriteBatch:
                for addr, value in zip(op.addrs, op.values, strict=True):
                    la = addr >> line_shift
                    slot = index_get(la)
                    stores += 1
                    if slot is not None:
                        line = lines_arr[slot]
                        st = line.state
                        if st is M or st is E:
                            stamp += 1
                            stamps[slot] = stamp
                            write_hit(line, la, addr, value)
                            continue
                    l1._stamp = stamp
                    lat = proto_write(core_id, addr, value)
                    stamp = l1._stamp
                    rest_cyc += lat
                    acc += lat
            elif kind is CopyBatch or kind is AddBatch:
                if kind is CopyBatch:
                    pairs = zip(op.src_addrs, op.dst_addrs, strict=True)
                else:
                    pairs = zip(op.addrs, op.deltas, strict=True)
                for src, second in pairs:
                    slot = index_get(src >> line_shift)
                    loads += 1
                    if slot is not None:
                        line = lines_arr[slot]
                        if line.state is not I:
                            stamp += 1
                            stamps[slot] = stamp
                            hits += 1
                            rest_cyc += hit_lat
                            acc += hit_lat
                            value = line.data[(src & off_mask) >> 2]
                        else:
                            l1._stamp = stamp
                            lat, value = proto_read(core_id, src)
                            stamp = l1._stamp
                            rest_cyc += lat
                            acc += lat
                    else:
                        l1._stamp = stamp
                        lat, value = proto_read(core_id, src)
                        stamp = l1._stamp
                        rest_cyc += lat
                        acc += lat
                    if kind is CopyBatch:
                        waddr = second
                    else:
                        waddr = src
                        value = value + second
                    la = waddr >> line_shift
                    slot = index_get(la)
                    stores += 1
                    if slot is not None:
                        line = lines_arr[slot]
                        st = line.state
                        if st is M or st is E:
                            stamp += 1
                            stamps[slot] = stamp
                            write_hit(line, la, waddr, value)
                            continue
                    l1._stamp = stamp
                    lat = proto_write(core_id, waddr, value)
                    stamp = l1._stamp
                    rest_cyc += lat
                    acc += lat
            elif isinstance(op, isa.SYNC_OPS):
                l1._stamp = stamp
                stats.loads += loads
                stats.stores += stores
                stats.l1_hits += hits
                stalls[rest] += rest_cyc
                self._issue_sync(op, acc)
                return
            else:
                l1._stamp = stamp
                lat, cat = self._wbinv(proto, op)
                stamp = l1._stamp
                if faults is not None:
                    lat += faults.wbuf_stall(core_id)
                stats.add_stall(cat, lat)
                acc += lat
