"""Self-invalidation / self-downgrade (SISD) — "Mending Fences",
arXiv 1611.07372 — over the incoherent hierarchy.

SISD removes every remote invalidation: a core's cached lines are only
ever touched by the core itself, at its own synchronization points.

* A private/shared **classifier** tracks, per line, the first core to
  touch it (the owner).  The first access by any *other* core flips the
  line to shared — permanently — and runs **ownership-transition
  recovery**: the owner's dirty copy is pushed down (to the block L2;
  through the L3 when the accessor sits in another block) so the new
  sharer's fill cannot miss data the owner never had a reason to
  downgrade while the line was private.
* **Self-downgrade (SD)** — every WB flavor becomes "write back my
  *shared* dirty lines".  Private dirty lines stay put: nobody else can
  read them, and the transition recovery rescues them the moment that
  changes.
* **Self-invalidation (SI)** — every INV flavor becomes "drop my copies
  of *shared* lines" (dirty words are written back first, preserving the
  SD-before-SI order).  Private lines keep their locality: they cannot
  be stale because nobody else writes them.

Ranged and level-adaptive WB/INV collapse onto the same sync-triggered
discipline (the defining SISD trait — annotations say *when*, the
classifier says *what*): local flavors self-downgrade/-invalidate
against the block L2, global flavors against the L3.

Degradation counters in :class:`~repro.sim.stats.MachineStats`:
``sisd_transitions`` (private→shared flips), ``sisd_self_downgrades``
(shared dirty lines written back), ``sisd_self_invalidations`` (shared
lines dropped).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.coherence.hierarchy import Hierarchy
from repro.coherence.incoherent import FusedHooks, IncoherentProtocol
from repro.coherence.threadmap import ThreadMapTable


class SelfInvalidationProtocol(IncoherentProtocol):
    """Sync-triggered SI/SD over a private/shared line classifier."""

    name = "sisd"

    def __init__(
        self,
        hierarchy: Hierarchy,
        *,
        threadmap: ThreadMapTable | None = None,
        detect_staleness: bool = False,
    ) -> None:
        # SI/SD replace both the MEB (SD walks the tag array over the
        # shared set) and the IEB (SI is the up-front acquire action).
        super().__init__(
            hierarchy,
            use_meb=False,
            use_ieb=False,
            threadmap=threadmap,
            detect_staleness=detect_staleness,
        )
        #: First core to touch each line (the private owner).
        self._owner: dict[int, int] = {}
        #: Lines ever touched by a second core; membership is permanent.
        self._shared: set[int] = set()
        #: Per-core classifier fast path, shared by :meth:`_classify` and
        #: the fast engine's fused loop (:meth:`fused_hooks`).
        self._hooks = [
            FusedHooks(admit=self._make_admit(core))
            for core in range(self.machine.num_cores)
        ]

    # -- classifier ---------------------------------------------------------

    def _make_admit(self, core: int) -> Callable[[int], bool]:
        owners = self._owner
        owner_of = owners.get
        shared = self._shared

        def admit(la: int) -> bool:
            """Record *core*'s access to *la*; False when it flips the line."""
            owner = owner_of(la)
            if owner is None:
                owners[la] = core
                return True
            return owner == core or la in shared

        return admit

    def fused_hooks(self, core: int) -> FusedHooks:
        """The classifier: plain hits only while no private→shared flip."""
        return self._hooks[core]

    def _classify(self, core: int, byte_addr: int) -> int:
        """Record this access; on a private→shared flip, run recovery.

        Returns the recovery latency charged to the accessing core (0 on
        the fast path — owner hit or already-shared line).
        """
        la = self.hier.line_of(byte_addr)
        if self._hooks[core].admit(la):
            return 0
        self._shared.add(la)
        self.stats.sisd_transitions += 1
        return self._transition_recovery(core, la, self._owner[la])

    def _transition_recovery(self, core: int, la: int, owner: int) -> int:
        """Make the owner's private dirty data reachable by *every* sharer.

        While a line is private the owner never self-downgrades it, so the
        flip must push the owner's dirty words all the way down: to the
        owner's block L2, and through the L3 on multi-block machines.  The
        push depth must NOT depend on where the *triggering* accessor sits —
        the flip happens once, but later sharers in other blocks fill from
        the L3, and which core happens to touch first is timing (the chaos
        harness perturbs it).  Only the latency *charged* is
        accessor-relative.
        """
        hier = self.hier
        lat = 0
        line = hier.l1s[owner].lookup(la, touch=False)
        if line is not None and line.dirty:
            self._wb_l1_line(owner, line, critical=False)
            lat += hier.l2_latency(core, la)
        if hier.has_l3:
            owner_block = hier.block_of_core(owner)
            l2_line = hier.l2_lookup(owner_block, la, touch=False)
            if l2_line is not None and l2_line.dirty:
                self._push_l2_words_to_l3(owner, l2_line, l2_line.dirty_mask)
                if owner_block != hier.block_of_core(core):
                    lat += self._global_level_latency(core, la)
        return lat

    # -- plain accesses -----------------------------------------------------

    def read(self, core: int, byte_addr: int) -> tuple[int, Any]:
        extra = self._classify(core, byte_addr)
        lat, value = super().read(core, byte_addr)
        return lat + extra, value

    def write(self, core: int, byte_addr: int, value: Any) -> int:
        extra = self._classify(core, byte_addr)
        return super().write(core, byte_addr, value) + extra

    # -- self-downgrade (every WB flavor) -----------------------------------

    def _sd_local(self, core: int) -> int:
        hier = self.hier
        l1 = hier.l1s[core]
        lines = [
            line for line in l1.dirty_lines() if line.line_addr in self._shared
        ]
        self.stats.sisd_self_downgrades += len(lines)
        return hier.tag_walk_latency(l1) + self._wb_lines(core, lines)

    def _sd_global(self, core: int) -> int:
        hier = self.hier
        l1 = hier.l1s[core]
        lat = hier.tag_walk_latency(l1)
        lines = [
            line for line in l1.dirty_lines() if line.line_addr in self._shared
        ]
        self.stats.sisd_self_downgrades += len(lines)
        lat += self._wb_lines(core, lines, to_l3=True)
        block = hier.block_of_core(core)
        shared_l2 = [
            line
            for line in hier.l2_lines_of_block(block)
            if line.dirty and line.line_addr in self._shared
        ]
        flits = 0
        for line in shared_l2:
            flits += self._push_l2_words_to_l3(core, line, line.dirty_mask)
        self.stats.global_wb_lines += len(shared_l2)
        if flits:
            lat += self._global_level_latency(
                core, shared_l2[0].line_addr
            ) + max(0, flits - 1)
        return lat

    def wb_range(self, core: int, byte_addr: int, length: int) -> int:
        return self._sd_local(core)

    def wb_all(self, core: int, via_meb: bool = False) -> int:
        return self._sd_local(core)

    def wb_cons(
        self, core: int, byte_addr: int, length: int, cons_tid: int
    ) -> int:
        self._require_threadmap()
        if self.threadmap.peer_is_local(core, cons_tid):
            return self._sd_local(core)
        return self._sd_global(core)

    def wb_cons_all(self, core: int, cons_tid: int) -> int:
        self._require_threadmap()
        if self.threadmap.peer_is_local(core, cons_tid):
            return self._sd_local(core)
        return self._sd_global(core)

    def wb_l3(self, core: int, byte_addr: int, length: int) -> int:
        return self._sd_global(core)

    def wb_all_l3(self, core: int) -> int:
        return self._sd_global(core)

    # -- self-invalidation (every INV flavor) -------------------------------

    def _si_local(self, core: int) -> int:
        hier = self.hier
        l1 = hier.l1s[core]
        las = [la for la in l1.resident_line_addrs() if la in self._shared]
        self.stats.sisd_self_invalidations += len(las)
        return hier.tag_walk_latency(l1) + self._inv_l1_lines(core, las)

    def _si_global(self, core: int) -> int:
        hier = self.hier
        lat = self._si_local(core)
        block = hier.block_of_core(core)
        flits = 0
        removed = 0
        for bank in hier.l2_banks[block]:
            for line in list(bank.lines()):
                if line.line_addr not in self._shared:
                    continue
                if line.dirty:
                    flits += self._push_l2_words_to_l3(
                        core, line, line.dirty_mask
                    )
                bank.remove(line.line_addr)
                removed += 1
        self.stats.global_inv_lines += removed
        if removed:
            lat += hier.tag_walk_latency(hier.l2_banks[block][0]) + max(
                0, flits - 1
            )
        return lat

    def inv_range(self, core: int, byte_addr: int, length: int) -> int:
        return self._si_local(core)

    def inv_all(self, core: int) -> int:
        return self._si_local(core)

    def inv_prod(
        self, core: int, byte_addr: int, length: int, prod_tid: int
    ) -> int:
        self._require_threadmap()
        if self.threadmap.peer_is_local(core, prod_tid):
            return self._si_local(core)
        return self._si_global(core)

    def inv_prod_all(self, core: int, prod_tid: int) -> int:
        self._require_threadmap()
        if self.threadmap.peer_is_local(core, prod_tid):
            return self._si_local(core)
        return self._si_global(core)

    def inv_l2(self, core: int, byte_addr: int, length: int) -> int:
        return self._si_global(core)

    def inv_all_l2(self, core: int) -> int:
        return self._si_global(core)

    # -- epochs -------------------------------------------------------------

    def epoch_begin(self, core: int, record_meb: bool, ieb_mode: bool) -> int:
        # Under IEB configurations the annotator replaces the acquire-side
        # INV ALL with EpochBegin(ieb_mode=True); that is still a
        # synchronization point, so it self-invalidates.
        if ieb_mode:
            return self._si_local(core)
        return 1
