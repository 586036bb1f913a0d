"""Regional Consistency (RC) — arXiv 1301.4490 over the incoherent hierarchy.

RC scopes coherence actions to acquire/release-delimited *regions*:

* **Release side** — instead of walking the whole L1 tag array, a ``WB
  ALL`` flushes only the lines written since the last region flush.  The
  per-core *region write set* is the precise, unbounded analogue of the
  paper's MEB: every store adds its line, every region flush drains and
  clears the set, so no tag walk (and no overflow fallback) is ever
  needed.
* **Acquire side** — instead of eagerly invalidating the L1, an ``INV
  ALL`` merely opens a new *acquire epoch* (one counter bump).  Each line
  carries the epoch it was last filled in; the first read of a line whose
  fill predates the current epoch triggers a *lazy refresh* — write back
  its dirty words, drop it, refetch — exactly the IEB discipline but with
  exact (unbounded) bookkeeping and zero up-front cost for lines the
  region never touches.

Only the ``ALL`` flavors change: explicitly ranged WB/INV and the
level-adaptive ``WB_CONS``/``INV_PROD`` stay precise and eager (they name
the lines that matter, which is already regional).  On multi-block
machines the block-L2 sweep of ``INV ALL_L2`` stays eager too — lazy L1
refreshes refetch *from* that L2, so a stale L2 copy cannot be left
behind.

Degradation counters: ``rc_region_wb_lines`` (lines flushed by region
write-backs) and ``rc_lazy_refreshes`` (reads that paid a refresh) in
:class:`~repro.sim.stats.MachineStats`.
"""

from __future__ import annotations

from typing import Any

from repro.coherence.base import FusedHooks
from repro.coherence.hierarchy import Hierarchy
from repro.coherence.incoherent import IncoherentProtocol
from repro.coherence.threadmap import ThreadMapTable
from repro.mem.line import CacheLine


class RegionalConsistencyProtocol(IncoherentProtocol):
    """Acquire/release-scoped coherence: regional WBs, lazy epoch INVs."""

    name = "rc"

    def __init__(
        self,
        hierarchy: Hierarchy,
        *,
        threadmap: ThreadMapTable | None = None,
        detect_staleness: bool = False,
    ) -> None:
        # The region write set subsumes the MEB and the acquire epoch
        # subsumes the IEB, so both hardware buffers stay disarmed.
        super().__init__(
            hierarchy,
            use_meb=False,
            use_ieb=False,
            threadmap=threadmap,
            detect_staleness=detect_staleness,
        )
        n = self.machine.num_cores
        #: Lines written since the core's last region flush.
        self._region_writes: list[set[int]] = [set() for _ in range(n)]
        #: Current acquire epoch per core (bumped by INV ALL flavors).
        self._acq_epoch: list[int] = [0] * n
        #: Epoch each resident line was last filled in.
        self._line_epoch: list[dict[int, int]] = [{} for _ in range(n)]
        #: Per-core plain-access rules, shared by :meth:`read`,
        #: :meth:`write` and the fast engine's fused loop (:meth:`fused_hooks`).
        self._hooks = [self._make_hooks(core) for core in range(n)]

    def _make_hooks(self, core: int) -> FusedHooks:
        acq_epoch = self._acq_epoch
        epoch_of = self._line_epoch[core].get

        def fresh(la: int, line: CacheLine, word: int) -> bool:
            """Filled in the current acquire epoch, or the word is ours."""
            return (
                epoch_of(la, -1) >= acq_epoch[core]
                or line.dirty_mask >> word & 1 == 1
            )

        # The containers above are mutated in place, never reassigned, so
        # the callbacks stay bound to live state.
        return super().fused_hooks(core)._replace(
            fresh=fresh, on_write=self._region_writes[core].add,
        )

    def fused_hooks(self, core: int) -> FusedHooks:
        """Lazy-refresh check and region-set insert; inline fills stamp
        their epoch through :meth:`_install_l1`."""
        return self._hooks[core]

    # -- region bookkeeping -------------------------------------------------

    def _region_dirty_lines(self, core: int) -> list[CacheLine]:
        """Resident-and-dirty L1 lines of the core's region write set.

        Every dirty L1 line is in the set (all dirtying goes through
        :meth:`write`; evictions clean lines on the way out), so this is
        the complete flush set — clean or evicted members just drop out.
        """
        l1 = self.hier.l1s[core]
        out = []
        for la in sorted(self._region_writes[core]):
            line = l1.lookup(la, touch=False)
            if line is not None and line.dirty:
                out.append(line)
        return out

    def _install_l1(self, core: int, l2_line: CacheLine) -> CacheLine:
        line = super()._install_l1(core, l2_line)
        # Stamp every fill with the current epoch so read-misses, write
        # allocations, and refreshes all count as fresh for this region.
        self._line_epoch[core][line.line_addr] = self._acq_epoch[core]
        return line

    # -- plain accesses -----------------------------------------------------

    def read(self, core: int, byte_addr: int) -> tuple[int, Any]:
        hier = self.hier
        line = hier.l1s[core].lookup(hier.line_of(byte_addr))
        if line is not None and not self._hooks[core].fresh(
            line.line_addr, line, hier.word_of(byte_addr)
        ):
            # First read of a pre-region line: lazy refresh (the acquire's
            # deferred invalidation).  Words this core dirtied survive —
            # they ride back down and return merged into the fresh copy.
            self.stats.rc_lazy_refreshes += 1
            return self._refetch(core, byte_addr, line)
        return super().read(core, byte_addr)

    def write(self, core: int, byte_addr: int, value: Any) -> int:
        self._hooks[core].on_write(self.hier.line_of(byte_addr))
        return super().write(core, byte_addr, value)

    # -- WB flavors: region-scoped ALLs ------------------------------------

    def wb_all(self, core: int, via_meb: bool = False) -> int:
        # The region set is exact, so via_meb is moot: no tag walk, no
        # overflow fallback, ever.
        lines = self._region_dirty_lines(core)
        lat = self._wb_lines(core, lines)
        self.stats.rc_region_wb_lines += len(lines)
        self._region_writes[core].clear()
        return max(lat, self.hier.l1_latency())

    def wb_all_l3(self, core: int) -> int:
        lines = self._region_dirty_lines(core)
        self.stats.rc_region_wb_lines += len(lines)
        self.stats.global_wb_lines += len(lines)
        # Region lines may carry earlier dirty words parked in the block
        # L2 (a dirty L1 eviction mid-region); push those through too.
        lat = self._wb_lines_global(
            core, lines, sorted(self._region_writes[core])
        )
        self._region_writes[core].clear()
        return lat

    # -- INV flavors: lazy acquire epochs ----------------------------------

    def inv_all(self, core: int) -> int:
        # The RC acquire: one epoch bump; every stale line pays its
        # refresh on first read instead of up front.  (INV ALL_L2 is
        # inherited — it calls this for the L1 side and keeps the eager
        # block-L2 sweep, since refreshes refetch from that L2.)
        self._acq_epoch[core] += 1
        return 1

    # -- epochs -------------------------------------------------------------

    def epoch_begin(self, core: int, record_meb: bool, ieb_mode: bool) -> int:
        # Under IEB configurations the annotator *replaces* the acquire's
        # INV ALL with EpochBegin(ieb_mode=True); RC must treat that as
        # the region boundary or acquire-side invalidation is lost.
        if ieb_mode:
            self._acq_epoch[core] += 1
        return 1
