"""The hardware-incoherent cache hierarchy (Sections III-B, IV-B, V-B).

Semantics implemented here:

* Caches never snoop and there is no directory.  Loads hit on any valid
  resident line — including *stale* ones.  Functional data values flow with
  the lines, so a missing annotation genuinely yields stale reads.
* ``WB`` writes back only the dirty words of overlapping lines (per-word
  dirty bits); the line stays clean-valid.  Two cores that dirty different
  words of one line never clobber each other.
* ``INV`` writes dirty words back first, then drops whole lines (one valid
  bit per line).
* ``WB ALL`` / ``INV ALL`` walk the tag array (charged) unless the MEB
  supplies the written-line set (``via_meb``); the IEB replaces up-front
  INV ALL in armed epochs by per-read refresh checks.
* Level-adaptive ``WB_CONS`` / ``INV_PROD`` consult the block's ThreadMap:
  local peers keep traffic inside the block (L1↔L2); remote peers push
  through the L3 / invalidate down from the L2.

Timing model: the first line of a multi-line operation pays the full round
trip to its target level; subsequent lines pipeline behind it at flit-
injection cost.  Evictions are off the critical path (traffic only).

Subclasses (the memory models of :mod:`repro.models`) that change what a
plain access does describe the change as
:class:`~repro.coherence.base.FusedHooks`, so the fast engine's fused
L1-hit loop runs their hits inline too (see
:meth:`IncoherentProtocol.fused_hooks`).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.coherence.base import FusedHooks, Protocol
from repro.coherence.hierarchy import Hierarchy
from repro.coherence.ieb import IEB
from repro.coherence.meb import MEB
from repro.coherence.threadmap import ThreadMapTable
from repro.common.errors import ConfigError
from repro.common.params import WORD_BYTES
from repro.mem.cache import Cache
from repro.mem.line import CacheLine
from repro.sim.stats import TrafficCat


class StaleRead:
    """One detected stale read (debugging aid; see ``detect_staleness``)."""

    __slots__ = ("core", "byte_addr", "got", "latest")

    def __init__(self, core: int, byte_addr: int, got, latest) -> None:
        self.core = core
        self.byte_addr = byte_addr
        self.got = got
        self.latest = latest

    def __repr__(self) -> str:
        return (
            f"StaleRead(core={self.core}, addr={self.byte_addr:#x}, "
            f"got={self.got!r}, latest={self.latest!r})"
        )

    def __str__(self) -> str:
        return (
            f"core {self.core} read stale value {self.got!r} at address "
            f"{self.byte_addr:#x} (latest value is {self.latest!r})"
        )


class IncoherentProtocol(Protocol):
    """Software-managed hierarchy with WB/INV ISA, MEB/IEB, and ThreadMap."""

    name = "incoherent"

    def __init__(
        self,
        hierarchy: Hierarchy,
        *,
        use_meb: bool = False,
        use_ieb: bool = False,
        threadmap: ThreadMapTable | None = None,
        detect_staleness: bool = False,
    ) -> None:
        super().__init__(hierarchy)
        self.use_meb = use_meb
        self.use_ieb = use_ieb
        self.threadmap = threadmap
        buffers = self.machine.buffers
        self.mebs = [MEB(buffers.meb_entries) for _ in range(self.machine.num_cores)]
        self.iebs = [IEB(buffers.ieb_entries) for _ in range(self.machine.num_cores)]
        #: Staleness detector (a porting aid, not hardware): tracks the
        #: globally most-recent value written to each word; any read whose
        #: value differs is logged.  A program whose annotations are
        #: sufficient — and which is free of data races — logs nothing.
        self.detect_staleness = detect_staleness
        self._shadow: dict[int, Any] = {}
        self.stale_reads: list[StaleRead] = []

    def fused_hooks(self, core: int) -> FusedHooks:
        """The base rules: stores on any resident line, the core's IEB and
        (when recording) MEB, and inline fills from the home L2.

        A subclass that overrides :meth:`read` or :meth:`write` must
        override this as well, or the fast engine runs it on the
        reference loop.
        """
        return FusedHooks(
            ieb=self.iebs[core],
            meb=self.mebs[core] if self.use_meb else None,
            fill=True,
        )

    def _check_stale(self, core: int, byte_addr: int, value: Any) -> None:
        word_addr = self.hier.word_addr(byte_addr)
        if word_addr in self._shadow:
            latest = self._shadow[word_addr]
        else:
            latest = self.hier.memory.read_word(word_addr)
        if value != latest:
            self.stale_reads.append(StaleRead(core, byte_addr, value, latest))
            if self.metrics is not None:
                self.metrics.inc("proto.stale_reads")

    def _obs_line_event(self, kind: str, core: int, line_addr: int, level: str) -> None:
        """Report one fill/evict to the attached observability sinks.

        Call sites guard on ``tracer``/``metrics`` being attached, so the
        disabled path never reaches this method.
        """
        if self.tracer is not None:
            self.tracer.emit(kind, core, line=line_addr, level=level)
        if self.metrics is not None:
            self.metrics.inc(f"proto.{kind}.{level}")

    # ------------------------------------------------------------------
    # internal: fills and writebacks
    # ------------------------------------------------------------------

    def _fill_l3(self, core: int, line_addr: int) -> tuple[int, CacheLine]:
        """Ensure *line_addr* is resident in its L3 bank; return (lat, line)."""
        hier = self.hier
        bank = hier.l3_bank_of(line_addr)
        line = bank.lookup(line_addr)
        if line is not None:
            return hier.l3_latency(core, line_addr), line
        data = hier.mem_read_line(line_addr)
        line = CacheLine(line_addr, data)
        victim = bank.insert(line)
        if victim is not None and victim.dirty:
            hier.mem_write_back(victim)
            hier.count_partial_transfer(TrafficCat.MEMORY, victim.num_dirty_words())
            if self.tracer is not None or self.metrics is not None:
                self._obs_line_event("evict", core, victim.line_addr, "L3")
        hier.count_line_transfer(TrafficCat.MEMORY)
        if self.tracer is not None or self.metrics is not None:
            self._obs_line_event("fill", core, line_addr, "L3")
        return hier.mem_latency(core), line

    def _fill_l2(self, core: int, line_addr: int) -> tuple[int, CacheLine]:
        """Fill *line_addr*, which the requesting block's L2 misses, from
        the L3 (or memory) into its home L2 bank; return (lat, line)."""
        hier = self.hier
        bank = hier.l2_bank_of(hier.block_of_core(core), line_addr)
        if hier.has_l3:
            lat, l3_line = self._fill_l3(core, line_addr)
            data = list(l3_line.data)
            hier.count_line_transfer(TrafficCat.LINEFILL)
        else:
            lat = hier.mem_latency(core)
            data = hier.mem_read_line(line_addr)
            hier.count_line_transfer(TrafficCat.MEMORY)
        lat += hier.l2_latency(core, line_addr)
        line = CacheLine(line_addr, data)
        victim = bank.insert(line)
        if victim is not None and victim.dirty:
            self._spill_l2_victim(core, victim)
        if self.tracer is not None or self.metrics is not None:
            self._obs_line_event("fill", core, line_addr, "L2")
        return lat, line

    def _spill_l2_victim(self, core: int, victim: CacheLine) -> None:
        """Off-critical-path writeback of a dirty L2 victim to L3 or memory."""
        hier = self.hier
        nwords = victim.num_dirty_words()
        if self.tracer is not None or self.metrics is not None:
            self._obs_line_event("evict", core, victim.line_addr, "L2")
        if hier.has_l3:
            bank = hier.l3_bank_of(victim.line_addr)
            l3_line = bank.lookup(victim.line_addr)
            if l3_line is None:
                l3_line = CacheLine(victim.line_addr, list(victim.data))
                l3_line.dirty_mask = victim.dirty_mask
                l3_victim = bank.insert(l3_line)
                if l3_victim is not None and l3_victim.dirty:
                    hier.mem_write_back(l3_victim)
                    hier.count_partial_transfer(
                        TrafficCat.MEMORY, l3_victim.num_dirty_words()
                    )
            else:
                self._merge_words(l3_line, victim, victim.dirty_mask)
            hier.count_partial_transfer(TrafficCat.WRITEBACK, nwords)
        else:
            hier.mem_write_back(victim)
            hier.count_partial_transfer(TrafficCat.MEMORY, nwords)

    def _global_level_latency(self, core: int, line_addr: int) -> int:
        """Round trip to the global level: the L3, or memory without one."""
        hier = self.hier
        if hier.has_l3:
            return hier.l3_latency(core, line_addr)
        return hier.mem_latency(core)

    @staticmethod
    def _merge_words(dst: CacheLine, src: CacheLine, mask: int) -> None:
        """Copy the words of *src* selected by *mask* into *dst*, dirtying them."""
        i = 0
        m = mask
        while m:
            if m & 1:
                dst.data[i] = src.data[i]
            m >>= 1
            i += 1
        dst.dirty_mask |= mask

    def fill_from_l2(self, core: int, line_addr: int) -> tuple[int, CacheLine] | None:
        """Fill the core's L1 with *line_addr* from the block's home L2
        bank; return (lat, line), or ``None``, with no side effect, when
        that bank misses.

        The fast engine's fused loop fills a plain L1 miss through this
        method too, so it is the only statement of an L2-hit fill.
        """
        hier = self.hier
        l2_line = hier.l2_lookup(hier.block_of_core(core), line_addr)
        if l2_line is None:
            return None
        lat = hier.l2_latency(core, line_addr)
        return lat, self._install_l1(core, l2_line)

    def _fetch_into_l1(self, core: int, line_addr: int) -> tuple[int, CacheLine]:
        """Fetch a fresh copy of *line_addr* into the core's L1."""
        filled = self.fill_from_l2(core, line_addr)
        if filled is not None:
            return filled
        lat, l2_line = self._fill_l2(core, line_addr)
        return lat, self._install_l1(core, l2_line)

    def _install_l1(self, core: int, l2_line: CacheLine) -> CacheLine:
        """Install a copy of *l2_line* in the core's L1; return the copy.

        A dirty victim's words go down off the critical path.  A model
        that changes what a fill does overrides this method.
        """
        hier = self.hier
        line = CacheLine(l2_line.line_addr, list(l2_line.data))
        victim = hier.l1s[core].insert(line)
        if victim is not None and victim.dirty:
            self._wb_l1_line(core, victim, critical=False)
            if self.tracer is not None or self.metrics is not None:
                self._obs_line_event("evict", core, victim.line_addr, "L1")
        hier.count_line_transfer(TrafficCat.LINEFILL)
        if self.tracer is not None or self.metrics is not None:
            self._obs_line_event("fill", core, line.line_addr, "L1")
        return line

    def _wb_l1_line(
        self, core: int, line: CacheLine, *, critical: bool, to_l3: bool = False
    ) -> int:
        """Write a dirty L1 line's words into the block's L2 (and L3 if asked).

        Returns the flit-injection cost used for pipelined multi-line WBs
        when *critical*; always accounts traffic and merges state.
        """
        if not line.dirty:
            return 0
        hier = self.hier
        mask = line.dirty_mask
        nwords = line.num_dirty_words()
        block = hier.block_of_core(core)
        bank = hier.l2_bank_of(block, line.line_addr)
        l2_line = bank.lookup(line.line_addr)
        if l2_line is None:
            # Allocate in L2: pull the rest of the line from below, merge.
            if hier.has_l3:
                _, l3_line = self._fill_l3(core, line.line_addr)
                base = list(l3_line.data)
                hier.count_line_transfer(TrafficCat.LINEFILL)
            else:
                base = hier.mem_read_line(line.line_addr)
                hier.count_line_transfer(TrafficCat.MEMORY)
            l2_line = CacheLine(line.line_addr, base)
            victim = bank.insert(l2_line)
            if victim is not None and victim.dirty:
                self._spill_l2_victim(core, victim)
        self._merge_words(l2_line, line, mask)
        hier.count_partial_transfer(TrafficCat.WRITEBACK, nwords)
        line.clean()
        if to_l3:
            self._push_l2_words_to_l3(core, l2_line, mask)
        return hier.mesh.data_flits(nwords * WORD_BYTES) if critical else 0

    def _push_l2_words_to_l3(self, core: int, l2_line: CacheLine, mask: int) -> int:
        """Propagate the words of *mask* from an L2 line toward the L3.

        On a machine without an L3 the words go to memory instead — the
        next level down — so an explicit-level op never loses dirty data.
        """
        hier = self.hier
        if not mask:
            return 0
        if not hier.has_l3:
            saved = l2_line.dirty_mask
            l2_line.dirty_mask = mask
            hier.mem_write_back(l2_line)
            l2_line.dirty_mask = saved & ~mask
            nwords = mask.bit_count()
            hier.count_partial_transfer(TrafficCat.MEMORY, nwords)
            return hier.mesh.data_flits(nwords * WORD_BYTES)
        _, l3_line = self._fill_l3(core, l2_line.line_addr)
        self._merge_words(l3_line, l2_line, mask)
        l2_line.dirty_mask &= ~mask
        nwords = mask.bit_count()
        hier.count_partial_transfer(TrafficCat.WRITEBACK, nwords)
        return hier.mesh.data_flits(nwords * WORD_BYTES)

    # ------------------------------------------------------------------
    # plain accesses
    # ------------------------------------------------------------------

    def read(self, core: int, byte_addr: int) -> tuple[int, Any]:
        hier = self.hier
        line_addr = hier.line_of(byte_addr)
        word = hier.word_of(byte_addr)
        line = hier.l1s[core].lookup(line_addr)
        ieb = self.iebs[core]

        if (
            ieb.armed
            and not ieb.contains(line_addr)  # refreshed earlier this epoch
            # A word this core wrote this epoch cannot be stale.
            and not (line is not None and line.is_word_dirty(word))
        ):
            # First read of this line in the epoch: refresh it.
            ieb.insert(line_addr)
            return self._refetch(core, byte_addr, line)

        if line is None:
            return self._refetch(core, byte_addr, None)
        self.stats.per_core[core].l1_hits += 1
        if self.detect_staleness:
            self._check_stale(core, byte_addr, line.data[word])
        return self._overlapped(hier.l1_latency()), line.data[word]

    def _refetch(
        self, core: int, byte_addr: int, line: CacheLine | None
    ) -> tuple[int, Any]:
        """Read *byte_addr* from a fresh copy of its line; return (lat,
        value).

        *line* is the core's resident copy, or ``None`` on a plain miss.
        A resident copy is dropped first, its dirty words written back,
        so they return merged into the fresh one.
        """
        hier = self.hier
        line_addr = hier.line_of(byte_addr)
        stats = self.stats.per_core[core]
        if line is not None:
            if line.dirty:
                self._wb_l1_line(core, line, critical=True)
            hier.l1s[core].remove(line_addr)
            stats.lines_invalidated += 1
        lat, line = self._fetch_into_l1(core, line_addr)
        stats.l1_misses += 1
        value = line.data[hier.word_of(byte_addr)]
        if self.detect_staleness:
            self._check_stale(core, byte_addr, value)
        return lat, value

    def write(self, core: int, byte_addr: int, value: Any) -> int:
        hier = self.hier
        line_addr = hier.line_of(byte_addr)
        word = hier.word_of(byte_addr)
        l1 = hier.l1s[core]
        line = l1.lookup(line_addr)
        if line is None:
            lat, line = self._fetch_into_l1(core, line_addr)
            self.stats.per_core[core].l1_misses += 1
        else:
            lat = hier.l1_latency()
            self.stats.per_core[core].l1_hits += 1
        was_clean = not line.is_word_dirty(word)
        line.data[word] = value
        line.mark_dirty(word)
        if was_clean and self.use_meb:
            self.mebs[core].record_write(line_addr)
        if self.detect_staleness:
            self._shadow[hier.word_addr(byte_addr)] = value
        return self._overlapped(lat)

    # ------------------------------------------------------------------
    # WB flavors
    # ------------------------------------------------------------------

    def _wb_lines(
        self, core: int, lines: Iterable[CacheLine], *, to_l3: bool = False
    ) -> int:
        """Write back a batch of L1 lines; return the critical-path latency."""
        hier = self.hier
        stats = self.stats.per_core[core]
        total_flits = 0
        count = 0
        sample_line = None
        for line in lines:
            if not line.dirty:
                continue
            total_flits += self._wb_l1_line(core, line, critical=True, to_l3=to_l3)
            count += 1
            sample_line = line.line_addr
        if count == 0:
            return 0
        stats.lines_written_back += count
        if self.metrics is not None:
            self.metrics.inc("proto.lines_written_back", count)
        base = (
            self._global_level_latency(core, sample_line)
            if to_l3
            else hier.l2_latency(core, sample_line)
        )
        return base + max(0, total_flits - 1)

    def _resident_lines_in_range(
        self, cache: Cache, byte_addr: int, length: int
    ) -> list[CacheLine]:
        out = []
        for la in self.hier.lines_overlapping(byte_addr, length):
            line = cache.lookup(la, touch=False)
            if line is not None:
                out.append(line)
        return out

    def wb_range(self, core: int, byte_addr: int, length: int) -> int:
        lines = self._resident_lines_in_range(self.hier.l1s[core], byte_addr, length)
        lat = self._wb_lines(core, lines)
        # Tag lookups for the addressed lines are charged even when clean.
        return max(lat, self.hier.l1_latency())

    def wb_all(self, core: int, via_meb: bool = False) -> int:
        hier = self.hier
        l1 = hier.l1s[core]
        meb = self.mebs[core]
        if via_meb and self.use_meb:
            if meb.usable:
                lines = [
                    line
                    for la in meb.line_ids()
                    if (line := l1.lookup(la, touch=False)) is not None
                ]
                return max(self._wb_lines(core, lines), hier.l1_latency())
            # MEB overflowed (or was never armed): the conservative
            # fallback — a full tag walk — is taken and counted.
            self.stats.meb_wb_fallbacks += 1
            if self.metrics is not None:
                self.metrics.inc("proto.meb_wb_fallbacks")
        lat = hier.tag_walk_latency(l1)
        return lat + self._wb_lines(core, list(l1.dirty_lines()))

    def wb_cons(self, core: int, byte_addr: int, length: int, cons_tid: int) -> int:
        self._require_threadmap()
        nlines = len(self.hier.lines_overlapping(byte_addr, length))
        if self.threadmap.peer_is_local(core, cons_tid):
            self.stats.local_wb_lines += nlines
            return self.wb_range(core, byte_addr, length)
        self.stats.global_wb_lines += nlines
        return self._wb_range_global(core, byte_addr, length)

    def _wb_range_global(self, core: int, byte_addr: int, length: int) -> int:
        """WB a range all the way to the L3 (dirty words from L1 and L2)."""
        hier = self.hier
        l1_lines = self._resident_lines_in_range(
            hier.l1s[core], byte_addr, length
        )
        return self._wb_lines_global(
            core, l1_lines, hier.lines_overlapping(byte_addr, length)
        )

    def _wb_lines_global(
        self, core: int, l1_lines: list[CacheLine], line_addrs
    ) -> int:
        """WB *l1_lines* to the L3, then push through the dirty words the
        block L2 holds for *line_addrs* (the lines the WB names)."""
        hier = self.hier
        lat = self._wb_lines(core, l1_lines, to_l3=True)
        # The line may carry earlier dirty words parked in the L2
        # (Section V-B: "may require checking both the L1 and L2 tags").
        block = hier.block_of_core(core)
        extra_flits = 0
        for la in line_addrs:
            l2_line = hier.l2_lookup(block, la, touch=False)
            if l2_line is not None and l2_line.dirty:
                extra_flits += self._push_l2_words_to_l3(
                    core, l2_line, l2_line.dirty_mask
                )
        if extra_flits and lat == 0:
            lat = self._global_level_latency(core, line_addrs[0])
        return max(lat + max(0, extra_flits - 1), hier.l1_latency())

    def wb_cons_all(self, core: int, cons_tid: int) -> int:
        self._require_threadmap()
        if self.threadmap.peer_is_local(core, cons_tid):
            return self.wb_all(core)
        return self.wb_all_l3(core)

    def wb_l3(self, core: int, byte_addr: int, length: int) -> int:
        nlines = len(self.hier.lines_overlapping(byte_addr, length))
        self.stats.global_wb_lines += nlines
        return self._wb_range_global(core, byte_addr, length)

    def wb_all_l3(self, core: int) -> int:
        """WB ALL through to the L3: local L1, then the whole block L2."""
        return self._wb_all_global(core, list(self.hier.l1s[core].dirty_lines()))

    def _wb_all_global(
        self,
        core: int,
        l1_lines: list[CacheLine],
        keep: set[int] | None = None,
    ) -> int:
        """Walk the L1's tags and WB *l1_lines* to the L3, then push down
        every dirty line of the block L2 (only those in *keep*, if given)."""
        hier = self.hier
        lat = hier.tag_walk_latency(hier.l1s[core])
        lat += self._wb_lines(core, l1_lines, to_l3=True)
        block = hier.block_of_core(core)
        flits = 0
        dirty_l2 = [
            line
            for line in hier.l2_lines_of_block(block)
            if line.dirty and (keep is None or line.line_addr in keep)
        ]
        for line in dirty_l2:
            flits += self._push_l2_words_to_l3(core, line, line.dirty_mask)
        self.stats.global_wb_lines += len(dirty_l2)
        if flits:
            lat += self._global_level_latency(
                core, dirty_l2[0].line_addr
            ) + max(0, flits - 1)
        return lat

    # ------------------------------------------------------------------
    # INV flavors
    # ------------------------------------------------------------------

    def _inv_l1_lines(self, core: int, line_addrs: Iterable[int]) -> int:
        """Invalidate L1 lines (writing dirty words back first)."""
        hier = self.hier
        l1 = hier.l1s[core]
        stats = self.stats.per_core[core]
        flits = 0
        count = 0
        for la in line_addrs:
            line = l1.lookup(la, touch=False)
            if line is None:
                continue
            if line.dirty:
                flits += self._wb_l1_line(core, line, critical=True)
            l1.remove(la)
            count += 1
        stats.lines_invalidated += count
        if self.metrics is not None and count:
            self.metrics.inc("proto.lines_invalidated", count)
        lat = max(1, count)  # one tag access per invalidated line
        if flits:
            lat += hier.l2_latency(core, next(iter(line_addrs), 0)) + flits - 1
        return lat

    def inv_range(self, core: int, byte_addr: int, length: int) -> int:
        las = list(self.hier.lines_overlapping(byte_addr, length))
        return max(self._inv_l1_lines(core, las), self.hier.l1_latency())

    def inv_all(self, core: int) -> int:
        hier = self.hier
        l1 = hier.l1s[core]
        las = l1.resident_line_addrs()
        lat = hier.tag_walk_latency(l1)
        return lat + self._inv_l1_lines(core, las)

    def inv_prod(self, core: int, byte_addr: int, length: int, prod_tid: int) -> int:
        self._require_threadmap()
        nlines = len(self.hier.lines_overlapping(byte_addr, length))
        if self.threadmap.peer_is_local(core, prod_tid):
            self.stats.local_inv_lines += nlines
            return self.inv_range(core, byte_addr, length)
        self.stats.global_inv_lines += nlines
        return self._inv_range_global(core, byte_addr, length)

    def _inv_range_global(self, core: int, byte_addr: int, length: int) -> int:
        """Invalidate a range from both L1 and the block's L2."""
        hier = self.hier
        las = list(hier.lines_overlapping(byte_addr, length))
        lat = self._inv_l1_lines(core, las)
        block = hier.block_of_core(core)
        flits = 0
        removed = 0
        for la in las:
            bank = hier.l2_bank_of(block, la)
            line = bank.lookup(la, touch=False)
            if line is None:
                continue
            if line.dirty:
                flits += self._push_l2_words_to_l3(core, line, line.dirty_mask)
            bank.remove(la)
            removed += 1
        if removed:
            lat += hier.l2_latency(core, las[0]) + max(0, flits - 1)
        return max(lat, hier.l1_latency())

    def inv_prod_all(self, core: int, prod_tid: int) -> int:
        self._require_threadmap()
        if self.threadmap.peer_is_local(core, prod_tid):
            return self.inv_all(core)
        return self.inv_all_l2(core)

    def inv_l2(self, core: int, byte_addr: int, length: int) -> int:
        nlines = len(self.hier.lines_overlapping(byte_addr, length))
        self.stats.global_inv_lines += nlines
        return self._inv_range_global(core, byte_addr, length)

    def inv_all_l2(self, core: int) -> int:
        """INV ALL from both the L1 and the whole local block L2."""
        lat = self.inv_all(core)
        return lat + self._inv_block_l2(core)

    def _inv_block_l2(self, core: int, keep: set[int] | None = None) -> int:
        """Drop every line of the block L2 (only those in *keep*, if
        given), pushing dirty words down first; return the walk's cost."""
        hier = self.hier
        banks = hier.l2_banks[hier.block_of_core(core)]
        flits = 0
        removed = 0
        for bank in banks:
            for line in list(bank.lines()):
                if keep is not None and line.line_addr not in keep:
                    continue
                if line.dirty:
                    flits += self._push_l2_words_to_l3(core, line, line.dirty_mask)
                bank.remove(line.line_addr)
                removed += 1
        self.stats.global_inv_lines += removed
        if not removed:
            return 0
        return hier.tag_walk_latency(banks[0]) + max(0, flits - 1)

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------

    def epoch_begin(self, core: int, record_meb: bool, ieb_mode: bool) -> int:
        if record_meb and self.use_meb:
            self.mebs[core].begin_epoch()
        if ieb_mode and self.use_ieb:
            self.iebs[core].begin_epoch()
        return 1

    def epoch_end(self, core: int) -> int:
        self.mebs[core].end_epoch()
        self.iebs[core].end_epoch()
        return 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _require_threadmap(self) -> None:
        if self.threadmap is None:
            raise ConfigError(
                "level-adaptive WB_CONS/INV_PROD need a ThreadMapTable "
                "(inter-block machine with a placement)"
            )

    def finalize(self) -> None:
        hier = self.hier
        for core, l1 in enumerate(hier.l1s):
            for line in l1.dirty_lines():
                self._wb_l1_line(core, line, critical=False)
        for block in range(self.machine.num_blocks):
            core0 = block * self.machine.cores_per_block
            for bank in hier.l2_banks[block]:
                for line in bank.dirty_lines():
                    if hier.has_l3:
                        self._push_l2_words_to_l3(core0, line, line.dirty_mask)
                    else:
                        hier.mem_write_back(line)
                        line.clean()
        for bank in hier.l3_banks:
            for line in bank.dirty_lines():
                hier.mem_write_back(line)
                line.clean()
