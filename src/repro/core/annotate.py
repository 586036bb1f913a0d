"""Model-1 annotation algorithm (Section IV-A, Figure 4).

Synchronization operations are explicit markers separating inter-thread data
dependences; immediately before/after each one, WB and INV operations are
inserted according to the synchronization type.  This module is the
"algorithm decides, programmer refines" layer: each hook takes optional
programmer hints (address ranges, or a no-communication declaration) and
falls back to WB ALL / INV ALL.

Pattern → insertion summary (Figure 4):

* **Barrier** — before: WB of shared variables written since the last
  barrier (default WB ALL); after: INV of exposed reads until the next
  barrier (default INV ALL).
* **Critical section** — INV of CS exposed reads *immediately before* the
  acquire (legal because the cache cannot change between INV and acquire);
  WB of CS writes immediately before the release.  The MEB replaces the
  release-side WB ALL; the IEB replaces the acquire-side INV ALL.
* **Flag** — WB of writes since the last full-WB point before the set;
  INV of exposed reads after a successful wait.
* **Outside-critical-section communication (OCC)** — assumed unless the
  program declares otherwise: WB ALL before the acquire, INV ALL after the
  release.
* **Data race** — the racy store is followed by WB(flag)+WB(data); the racy
  load is preceded by INV (Figure 6b).

Under HCC every hook returns no operations.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import ExperimentConfig
from repro.isa import ops as isa

#: A programmer hint: list of (byte address, byte length) ranges, or None
#: meaning "no information — use ALL", or () meaning "nothing to do".
Ranges = Sequence[tuple[int, int]] | None


class Annotator:
    """Emits the WB/INV (and epoch-marker) ops around each sync operation."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config

    # -- helpers -------------------------------------------------------------

    def _wb(self, ranges: Ranges) -> list[isa.Op]:
        if ranges is None:
            return [isa.WBAll()]
        return [isa.WB(addr, length) for addr, length in ranges]

    def _inv(self, ranges: Ranges) -> list[isa.Op]:
        if ranges is None:
            return [isa.INVAll()]
        return [isa.INV(addr, length) for addr, length in ranges]

    # -- barrier (Figure 4a) ---------------------------------------------------

    def before_barrier(self, wb: Ranges = None) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        return self._wb(wb)

    def after_barrier(self, inv: Ranges = None) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        return self._inv(inv)

    # -- critical section (Figures 4b, 4d) ---------------------------------------

    def before_acquire(
        self, *, occ: bool = True, cs_inv: Ranges = None, occ_wb: Ranges = None
    ) -> list[isa.Op]:
        """Ops placed immediately before a lock acquire.

        Order matters: the OCC write-back (posting data produced since the
        last full-WB point for consumers that dequeue it later) precedes the
        CS-entry invalidation.
        """
        if not self.config.annotations_enabled:
            return []
        out: list[isa.Op] = []
        if occ:
            out.extend(self._wb(occ_wb))
        if self.config.use_ieb and cs_inv is None:
            pass  # the IEB replaces the CS-entry INV ALL (armed after acquire)
        else:
            out.extend(self._inv(cs_inv))
        return out

    def after_acquire(self) -> list[isa.Op]:
        """Arm the entry buffers for the critical-section epoch."""
        if not self.config.annotations_enabled:
            return []
        if self.config.use_meb or self.config.use_ieb:
            return [
                isa.EpochBegin(
                    record_meb=self.config.use_meb,
                    ieb_mode=self.config.use_ieb,
                    kind="critical",
                )
            ]
        return []

    def before_release(self, cs_wb: Ranges = None) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        out: list[isa.Op] = []
        if cs_wb is not None:
            out.extend(self._wb(cs_wb))
        else:
            out.append(isa.WBAll(via_meb=self.config.use_meb))
        if self.config.use_meb or self.config.use_ieb:
            out.append(isa.EpochEnd())
        return out

    def after_release(self, *, occ: bool = True, occ_inv: Ranges = None) -> list[isa.Op]:
        if not self.config.annotations_enabled or not occ:
            return []
        return self._inv(occ_inv)

    # -- flag set/wait (Figure 4c) -------------------------------------------------

    def before_flag_set(self, wb: Ranges = None) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        return self._wb(wb)

    def after_flag_wait(self, inv: Ranges = None) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        return self._inv(inv)

    # -- data races (Figure 6) --------------------------------------------------------

    def after_racy_store(self, addr: int, length: int = 4) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        return [isa.WB(addr, length)]

    def before_racy_load(self, addr: int, length: int = 4) -> list[isa.Op]:
        if not self.config.annotations_enabled:
            return []
        return [isa.INV(addr, length)]
