"""Hardware cache coherence baseline (HCC): full-map directory MESI.

Intra-block machines use a single-level full-map directory at the home L2
bank (presence bits over the block's cores, Table: "full-mapped directory-
based MESI protocol").  Inter-block machines use the paper's *hierarchical*
full-map directory: the L3 directory tracks which *blocks* hold a line (4
presence bits) and which block owns it dirty; each block's L2 directory
tracks its cores (8 presence bits).

The model is operation-level: directory state is exact, invalidations and
data forwards are charged latency and counted as traffic (control flits in
the *invalidation* category, data in *linefill*/*writeback*), and inclusion
is enforced (an L2/L3 eviction recalls the copies above it).  WB/INV
instructions are accepted as free no-ops — the HCC configurations insert
none, and a counter lets tests assert that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.coherence.base import FusedHooks, Protocol
from repro.coherence.hierarchy import Hierarchy
from repro.mem.line import CacheLine, MESIState
from repro.sim.stats import TrafficCat


def _iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions of *mask*, ascending — the directory's presence
    vector decoded into core/block IDs.  Iterates a snapshot (ints are
    immutable), so callers may clear bits of the live entry mid-loop."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class L2DirEntry:
    """Block-level directory state: which cores hold the line, who owns it.

    ``sharers`` is a presence bitmask over the block's cores — the literal
    full-map directory vector (8 bits per entry in the paper's Table) rather
    than a Python set of core IDs.
    """

    sharers: int = 0
    owner: int | None = None  # core with the line in M


@dataclass
class L3DirEntry:
    """Chip-level directory state: which blocks hold the line.

    ``blocks`` is a presence bitmask over blocks (4 bits in the paper).
    """

    blocks: int = 0
    owner_block: int | None = None  # block holding the line dirty


#: MESI's fused-loop rules: a store completes inline only on an M line
#: (E→M and S→M go through :meth:`MESIProtocol.write`'s directory
#: fix-ups); no IEB or MEB; every miss goes to the directory.  Reads need
#: no rule of their own: an invalidated copy leaves the L1, so a resident
#: line is never ``I``.
_FUSED_HOOKS = FusedHooks(store_state=MESIState.M)


class MESIProtocol(Protocol):
    """Directory MESI over the same physical hierarchy as the incoherent design."""

    name = "hcc"

    def __init__(self, hierarchy: Hierarchy) -> None:
        super().__init__(hierarchy)
        self._l2_dir: list[dict[int, L2DirEntry]] = [
            {} for _ in range(self.machine.num_blocks)
        ]
        self._l3_dir: dict[int, L3DirEntry] = {}
        #: WB/INV instructions swallowed (should stay 0 in proper HCC runs).
        self.ignored_wbinv_ops = 0

    def fused_hooks(self, core: int) -> FusedHooks:
        return _FUSED_HOOKS

    # ------------------------------------------------------------------
    # directory helpers
    # ------------------------------------------------------------------

    def _dir2(self, block: int, line_addr: int) -> L2DirEntry:
        d = self._l2_dir[block]
        entry = d.get(line_addr)
        if entry is None:
            entry = d[line_addr] = L2DirEntry()
        return entry

    def _dir3(self, line_addr: int) -> L3DirEntry:
        entry = self._l3_dir.get(line_addr)
        if entry is None:
            entry = self._l3_dir[line_addr] = L3DirEntry()
        return entry

    # ------------------------------------------------------------------
    # intra-block downgrade / invalidation
    # ------------------------------------------------------------------

    def _downgrade_owner(self, block: int, line_addr: int) -> int:
        """Owner core M→S; dirty data written into the block's L2.

        Returns the extra latency of the three-hop forward (0 if no owner).
        """
        entry = self._dir2(block, line_addr)
        owner = entry.owner
        if owner is None:
            return 0
        hier = self.hier
        l1_line = hier.l1s[owner].lookup(line_addr, touch=False)
        l2_line = self._l2_line(block, line_addr)
        if l1_line is not None:
            l2_line.data = list(l1_line.data)
            l2_line.dirty_mask |= l1_line.dirty_mask
            l1_line.state = MESIState.S
            l1_line.clean()
        hier.count_control(TrafficCat.INVALIDATION)  # fetch request to owner
        hier.count_line_transfer(TrafficCat.WRITEBACK)  # data back to L2
        self.stats.dir_forwards += 1
        if self.metrics is not None:
            self.metrics.inc("mesi.dir_forwards")
        if self.tracer is not None:
            self.tracer.emit("wb", owner, line=line_addr, level="L1", op="DIR_FWD")
        entry.owner = None
        # Cache-to-cache forward: request to the owner, data straight to the
        # requester (one-way legs, not a full round trip per leg).
        bank_tile = hier.mesh.l2_bank_tile(
            hier.l2_bank_global_id(block, line_addr)
        )
        owner_tile = hier.mesh.core_tile(owner)
        return hier.mesh.latency(bank_tile, owner_tile)

    def _invalidate_core(self, core: int, line_addr: int, block: int) -> None:
        """Drop one core's L1 copy, pulling dirty data into the L2 first."""
        hier = self.hier
        line = hier.l1s[core].remove(line_addr)
        entry = self._dir2(block, line_addr)
        if line is not None and line.dirty:
            l2_line = self._l2_line(block, line_addr)
            l2_line.data = list(line.data)
            l2_line.dirty_mask |= line.dirty_mask
            hier.count_line_transfer(TrafficCat.WRITEBACK)
        hier.count_control(TrafficCat.INVALIDATION, 2)  # inv + ack
        entry.sharers &= ~(1 << core)
        if entry.owner == core:
            entry.owner = None
        self.stats.dir_invalidations += 1
        if self.metrics is not None:
            self.metrics.inc("mesi.dir_invalidations")
        if self.tracer is not None:
            self.tracer.emit("inv", core, line=line_addr, level="L1", op="DIR_INV")

    def _invalidate_block_sharers(
        self, block: int, line_addr: int, *, keep: int | None
    ) -> int:
        """Invalidate every L1 copy in *block* except core *keep*.

        Returns the latency of the farthest invalidation round trip.
        """
        entry = self._dir2(block, line_addr)
        targets = entry.sharers
        if entry.owner is not None:
            targets |= 1 << entry.owner
        if keep is not None:
            targets &= ~(1 << keep)
        if not targets:
            return 0
        hier = self.hier
        bank_tile = hier.mesh.l2_bank_tile(hier.l2_bank_global_id(block, line_addr))
        worst = 0
        for core in _iter_bits(targets):
            self._invalidate_core(core, line_addr, block)
            worst = max(
                worst,
                2 * hier.mesh.latency(bank_tile, hier.mesh.core_tile(core)),
            )
        return worst

    # ------------------------------------------------------------------
    # L2 / L3 fills with inclusion
    # ------------------------------------------------------------------

    def _l2_line(self, block: int, line_addr: int) -> CacheLine:
        """The block's L2 copy, filling from L3/memory if absent."""
        hier = self.hier
        bank = hier.l2_bank_of(block, line_addr)
        line = bank.lookup(line_addr)
        if line is not None:
            return line
        if hier.has_l3:
            l3_line = self._l3_line(line_addr)
            data = list(l3_line.data)
            hier.count_line_transfer(TrafficCat.LINEFILL)
        else:
            data = hier.mem_read_line(line_addr)
            hier.count_line_transfer(TrafficCat.MEMORY)
        line = CacheLine(line_addr, data)
        victim = bank.insert(line)
        if victim is not None:
            self._evict_l2_victim(block, victim)
        self._dir3(line_addr).blocks |= 1 << block
        return line

    def _l3_line(self, line_addr: int) -> CacheLine:
        hier = self.hier
        bank = hier.l3_bank_of(line_addr)
        line = bank.lookup(line_addr)
        if line is not None:
            return line
        data = hier.mem_read_line(line_addr)
        line = CacheLine(line_addr, data)
        victim = bank.insert(line)
        if victim is not None:
            self._evict_l3_victim(victim)
        hier.count_line_transfer(TrafficCat.MEMORY)
        return line

    def _evict_l2_victim(self, block: int, victim: CacheLine) -> None:
        """Inclusion recall: L2 eviction drops every L1 copy in the block."""
        hier = self.hier
        la = victim.line_addr
        entry = self._l2_dir[block].pop(la, None)
        if entry is not None:
            recall = entry.sharers
            if entry.owner is not None:
                recall |= 1 << entry.owner
            for core in _iter_bits(recall):
                line = hier.l1s[core].remove(la)
                if line is not None and line.dirty:
                    victim.data = list(line.data)
                    victim.dirty_mask |= line.dirty_mask
                    hier.count_line_transfer(TrafficCat.WRITEBACK)
                hier.count_control(TrafficCat.INVALIDATION, 2)
        if victim.dirty:
            if hier.has_l3:
                l3_line = self._l3_line(la)
                l3_line.data = list(victim.data)
                l3_line.dirty_mask |= victim.dirty_mask
                hier.count_line_transfer(TrafficCat.WRITEBACK)
            else:
                hier.mem_write_back(victim)
                hier.count_line_transfer(TrafficCat.MEMORY)
        d3 = self._l3_dir.get(la)
        if d3 is not None:
            d3.blocks &= ~(1 << block)
            if d3.owner_block == block:
                d3.owner_block = None

    def _evict_l3_victim(self, victim: CacheLine) -> None:
        """Inclusion recall at chip level: drop the line from every block."""
        la = victim.line_addr
        entry = self._l3_dir.pop(la, None)
        if entry is not None:
            for block in _iter_bits(entry.blocks):
                bank = self.hier.l2_bank_of(block, la)
                l2_victim = bank.remove(la)
                if l2_victim is not None:
                    self._evict_l2_victim(block, l2_victim)
                    if l2_victim.dirty:
                        victim.data = list(l2_victim.data)
                        victim.dirty_mask |= l2_victim.dirty_mask
        if victim.dirty:
            self.hier.mem_write_back(victim)
            self.hier.count_line_transfer(TrafficCat.MEMORY)

    # ------------------------------------------------------------------
    # chip-level (inter-block) coherence
    # ------------------------------------------------------------------

    def _acquire_block_copy(
        self, core: int, block: int, line_addr: int, *, exclusive: bool
    ) -> tuple[int, CacheLine]:
        """Give *block* a coherent L2 copy; handle remote-block state.

        Returns (latency beyond the local L2 round trip, the L2 line).
        """
        hier = self.hier
        lat = 0
        if hier.has_l3:
            d3 = self._dir3(line_addr)
            remote_owner = (
                d3.owner_block
                if d3.owner_block is not None and d3.owner_block != block
                else None
            )
            if remote_owner is not None:
                # Remote block holds the line dirty: downgrade it through L3.
                lat += hier.l3_latency(core, line_addr)
                lat += self._downgrade_owner(remote_owner, line_addr)
                remote_l2 = hier.l2_lookup(remote_owner, line_addr, touch=False)
                if remote_l2 is not None and remote_l2.dirty:
                    l3_line = self._l3_line(line_addr)
                    l3_line.data = list(remote_l2.data)
                    l3_line.dirty_mask |= remote_l2.dirty_mask
                    remote_l2.clean()
                    hier.count_line_transfer(TrafficCat.WRITEBACK)
                d3.owner_block = None
            if exclusive:
                others = self._dir3(line_addr).blocks & ~(1 << block)
                for other in _iter_bits(others):
                    inv_lat = self._invalidate_block_sharers(
                        other, line_addr, keep=None
                    )
                    bank = hier.l2_bank_of(other, line_addr)
                    l2_victim = bank.remove(line_addr)
                    if l2_victim is not None and l2_victim.dirty:
                        l3_line = self._l3_line(line_addr)
                        l3_line.data = list(l2_victim.data)
                        l3_line.dirty_mask |= l2_victim.dirty_mask
                        hier.count_line_transfer(TrafficCat.WRITEBACK)
                    self._l2_dir[other].pop(line_addr, None)
                    self._dir3(line_addr).blocks &= ~(1 << other)
                    hier.count_control(TrafficCat.INVALIDATION, 2)
                    lat = max(lat, hier.l3_latency(core, line_addr) + inv_lat)
                d3 = self._dir3(line_addr)
                d3.owner_block = block
        block_bank = hier.l2_bank_of(block, line_addr)
        resident = block_bank.lookup(line_addr) is not None
        l2_line = self._l2_line(block, line_addr)
        if not resident:
            # The fill above came from L3 (charged) or memory.
            if hier.has_l3:
                lat += hier.l3_latency(core, line_addr)
            else:
                lat += hier.mem_latency(core)
        return lat, l2_line

    # ------------------------------------------------------------------
    # plain accesses
    # ------------------------------------------------------------------

    def read(self, core: int, byte_addr: int) -> tuple[int, Any]:
        hier = self.hier
        line_addr = hier.line_of(byte_addr)
        word = hier.word_of(byte_addr)
        l1 = hier.l1s[core]
        line = l1.lookup(line_addr)
        stats = self.stats.per_core[core]
        if line is not None and line.state != MESIState.I:
            stats.l1_hits += 1
            return self._overlapped(hier.l1_latency()), line.data[word]

        stats.l1_misses += 1
        block = hier.block_of_core(core)
        lat = hier.l2_latency(core, line_addr)
        extra, l2_line = self._acquire_block_copy(
            core, block, line_addr, exclusive=False
        )
        lat += extra
        # Intra-block: a dirty peer forwards its copy.
        lat += self._downgrade_owner(block, line_addr)
        self._demote_exclusive_peers(core, block, line_addr)
        l2_line = self._l2_line(block, line_addr)
        entry = self._dir2(block, line_addr)
        state = (
            MESIState.E
            if not entry.sharers and not self._other_block_has(block, line_addr)
            else MESIState.S
        )
        entry.sharers |= 1 << core
        new_line = CacheLine(line_addr, list(l2_line.data), state=state)
        victim = l1.insert(new_line)
        if victim is not None:
            self._l1_victim(core, block, victim)
        hier.count_line_transfer(TrafficCat.LINEFILL)
        if self.tracer is not None or self.metrics is not None:
            self._obs_fill(core, line_addr)
        return lat, new_line.data[word]

    def write(self, core: int, byte_addr: int, value: Any) -> int:
        hier = self.hier
        line_addr = hier.line_of(byte_addr)
        word = hier.word_of(byte_addr)
        l1 = hier.l1s[core]
        line = l1.lookup(line_addr)
        stats = self.stats.per_core[core]
        block = hier.block_of_core(core)

        if line is not None and line.state in (MESIState.M, MESIState.E):
            if line.state == MESIState.E:
                line.state = MESIState.M
                self._dir2(block, line_addr).owner = core
                d3 = self._l3_dir.get(line_addr)
                if d3 is not None:
                    d3.owner_block = block
            line.data[word] = value
            line.mark_dirty(word)
            stats.l1_hits += 1
            return self._overlapped(hier.l1_latency())

        if line is not None and line.state == MESIState.S:  # noqa: SIM114
            # Upgrade: invalidate other sharers through the directory.
            stats.l1_hits += 1
            lat = hier.l2_latency(core, line_addr)
            lat += self._claim_exclusive(core, block, line_addr)
            line.state = MESIState.M
            line.data[word] = value
            line.mark_dirty(word)
            entry = self._dir2(block, line_addr)
            entry.sharers = 1 << core
            entry.owner = core
            return self._overlapped(lat)

        # Write miss: read-for-ownership.
        stats.l1_misses += 1
        lat = hier.l2_latency(core, line_addr)
        extra, _ = self._acquire_block_copy(core, block, line_addr, exclusive=True)
        lat += extra
        lat += self._downgrade_owner(block, line_addr)
        lat += self._invalidate_block_sharers(block, line_addr, keep=core)
        l2_line = self._l2_line(block, line_addr)
        new_line = CacheLine(line_addr, list(l2_line.data), state=MESIState.M)
        new_line.data[word] = value
        new_line.mark_dirty(word)
        victim = l1.insert(new_line)
        if victim is not None:
            self._l1_victim(core, block, victim)
        entry = self._dir2(block, line_addr)
        entry.sharers = 1 << core
        entry.owner = core
        if hier.has_l3:
            self._dir3(line_addr).owner_block = block
        hier.count_line_transfer(TrafficCat.LINEFILL)
        if self.tracer is not None or self.metrics is not None:
            self._obs_fill(core, line_addr)
        return self._overlapped(lat)

    def _demote_exclusive_peers(self, core: int, block: int, line_addr: int) -> None:
        """A new reader demotes every other E copy chip-wide to S.

        Without this, an E holder would silently upgrade to M while the new
        reader keeps a stale S copy.  The directory knows exactly who holds
        each line (full map), so the demotion is a state fix-up with no
        extra messages beyond the fill already charged.
        """
        blocks = (
            _iter_bits(self._dir3(line_addr).blocks)
            if self.hier.has_l3
            else range(self.machine.num_blocks)
        )
        for b in blocks:
            entry = self._l2_dir[b].get(line_addr)
            if entry is None:
                continue
            for sharer in _iter_bits(entry.sharers & ~(1 << core)):
                line = self.hier.l1s[sharer].lookup(line_addr, touch=False)
                if line is not None and line.state == MESIState.E:
                    line.state = MESIState.S

    def _other_block_has(self, block: int, line_addr: int) -> bool:
        """Does any other block hold a copy (L2 or L1)?  Gates E grants."""
        if not self.hier.has_l3:
            return False
        d3 = self._l3_dir.get(line_addr)
        if d3 is None:
            return False
        return bool(d3.blocks & ~(1 << block))

    def _claim_exclusive(self, core: int, block: int, line_addr: int) -> int:
        """Invalidate every other copy chip-wide; return the added latency."""
        lat = 0
        if self.hier.has_l3:
            extra, _ = self._acquire_block_copy(
                core, block, line_addr, exclusive=True
            )
            lat += extra
        lat += self._invalidate_block_sharers(block, line_addr, keep=core)
        return lat

    def _l1_victim(self, core: int, block: int, victim: CacheLine) -> None:
        """Handle an L1 replacement: M data goes to L2, presence updated."""
        hier = self.hier
        entry = self._dir2(block, victim.line_addr)
        entry.sharers &= ~(1 << core)
        if entry.owner == core:
            entry.owner = None
        if victim.dirty:
            l2_line = self._l2_line(block, victim.line_addr)
            l2_line.data = list(victim.data)
            l2_line.dirty_mask |= victim.dirty_mask
            hier.count_line_transfer(TrafficCat.WRITEBACK)
        else:
            hier.count_control(TrafficCat.INVALIDATION)  # replacement hint

    def _obs_fill(self, core: int, line_addr: int) -> None:
        """Report one L1 fill to the attached observability sinks."""
        if self.tracer is not None:
            self.tracer.emit("fill", core, line=line_addr, level="L1")
        if self.metrics is not None:
            self.metrics.inc("proto.fill.L1")

    # ------------------------------------------------------------------
    # WB/INV flavors: free no-ops under hardware coherence
    # ------------------------------------------------------------------

    def _ignore(self) -> int:
        self.ignored_wbinv_ops += 1
        return 0

    def wb_range(self, core: int, byte_addr: int, length: int) -> int:
        return self._ignore()

    def wb_all(self, core: int, via_meb: bool = False) -> int:
        return self._ignore()

    def wb_cons(self, core: int, byte_addr: int, length: int, cons_tid: int) -> int:
        return self._ignore()

    def wb_cons_all(self, core: int, cons_tid: int) -> int:
        return self._ignore()

    def wb_l3(self, core: int, byte_addr: int, length: int) -> int:
        return self._ignore()

    def wb_all_l3(self, core: int) -> int:
        return self._ignore()

    def inv_range(self, core: int, byte_addr: int, length: int) -> int:
        return self._ignore()

    def inv_all(self, core: int) -> int:
        return self._ignore()

    def inv_prod(self, core: int, byte_addr: int, length: int, prod_tid: int) -> int:
        return self._ignore()

    def inv_prod_all(self, core: int, prod_tid: int) -> int:
        return self._ignore()

    def inv_l2(self, core: int, byte_addr: int, length: int) -> int:
        return self._ignore()

    def inv_all_l2(self, core: int) -> int:
        return self._ignore()

    def epoch_begin(self, core: int, record_meb: bool, ieb_mode: bool) -> int:
        return 0

    def epoch_end(self, core: int) -> int:
        return 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        hier = self.hier
        for core, l1 in enumerate(hier.l1s):
            block = hier.block_of_core(core)
            for line in list(l1.lines()):
                if line.dirty:
                    l2_line = self._l2_line(block, line.line_addr)
                    l2_line.data = list(line.data)
                    l2_line.dirty_mask |= line.dirty_mask
                    line.clean()
        for block in range(self.machine.num_blocks):
            for bank in hier.l2_banks[block]:
                for line in bank.dirty_lines():
                    if hier.has_l3:
                        l3_line = self._l3_line(line.line_addr)
                        l3_line.data = list(line.data)
                        l3_line.dirty_mask |= line.dirty_mask
                    else:
                        hier.mem_write_back(line)
                    line.clean()
        for bank in hier.l3_banks:
            for line in bank.dirty_lines():
                hier.mem_write_back(line)
                line.clean()
