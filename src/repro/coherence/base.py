"""Protocol interface implemented by the incoherent and MESI hierarchies.

Every method executes one operation against the hierarchy *state* and returns
its latency in cycles (reads also return the loaded value).  The core model
(:mod:`repro.core.cpu`) charges latencies and attributes them to Figure 9
stall categories.

The interface deliberately includes every WB/INV flavor: the hardware-
coherent baseline accepts them as no-ops (counted, so tests can assert the
HCC configuration never pays for them), matching the paper's HCC runs where
no WB/INV instructions are inserted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, NamedTuple

from repro.coherence.hierarchy import Hierarchy
from repro.coherence.ieb import IEB
from repro.coherence.meb import MEB
from repro.mem.line import CacheLine, MESIState


class FusedHooks(NamedTuple):
    """One core's rules for the fast engine's fused L1-hit loop.

    :meth:`Protocol.fused_hooks` returns these once per core, when the
    loop binds its locals.  The loop serves a plain access inline only
    where these rules say the protocol would do nothing but touch the L1;
    every other access goes whole to the protocol's :meth:`~Protocol.read`
    / :meth:`~Protocol.write`.  A resident line serves reads inline (in
    an IEB-armed epoch only once refreshed, or for a locally dirty word).

    What the hierarchy has:

    * ``store_state``: the state a resident line must be in for a store
      to complete inline.  Incoherent lines stay ``NA``, so any resident
      line takes stores; MESI needs ``M``.
    * ``ieb``: the core's IEB, which gates read hits and fills in armed
      epochs; ``None`` when the protocol has none.
    * ``meb``: the core's MEB, which records each clean→dirty store;
      ``None`` when nothing records.
    * ``fill``: whether a plain L1 miss is first offered to the
      protocol's ``fill_from_l2`` (the incoherent L2-hit fill, which a
      model changes by overriding ``_install_l1``); ``False`` sends every
      miss to the protocol.

    How a memory model's plain accesses differ from the incoherent base
    (``None`` keeps the base rule).  Each callback takes the line address
    ``la`` (and ``fresh`` the resident :class:`CacheLine` and word index):

    * ``admit(la)`` runs before every access; ``False`` hands the whole
      access to the protocol.
    * ``fresh(la, line, word)`` decides whether a resident line may serve
      a read hit; ``False`` hands the read to the protocol.
    * ``on_write(la)`` runs after every store the loop completes inline.

    Any access the loop hands over is re-run whole by the protocol, so
    every callback must be idempotent with that delegated path: running
    it and then the protocol method must leave the same state as the
    protocol method alone.
    """

    admit: Callable[[int], bool] | None = None
    fresh: Callable[[int, CacheLine, int], bool] | None = None
    on_write: Callable[[int], None] | None = None
    store_state: MESIState = MESIState.NA
    ieb: IEB | None = None
    meb: MEB | None = None
    fill: bool = False


class Protocol(ABC):
    """One chip-wide coherence policy over a :class:`Hierarchy`."""

    name = "abstract"

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hier = hierarchy
        self.stats = hierarchy.stats
        self.machine = hierarchy.machine
        #: Observability sinks (:mod:`repro.obs`), attached by the Machine
        #: when requested.  ``None`` means disabled: every hook point in a
        #: protocol is one ``is not None`` check, nothing more.
        self.tracer = None
        self.metrics = None
        #: Memo for ``_overlapped``: distinct latencies are few (table-driven
        #: geometry), so overlap scaling is computed once per value.
        self._ov_cache: dict[int, int] = {}

    def _overlapped(self, latency: int) -> int:
        """Latency partially hidden by ILP / the write buffer.

        Applied to L1 load hits and to stores (which retire through the
        write buffer, Section III-C).  Load misses and WB/INV stalls are
        charged in full — "the latency of WB and INV instructions is often
        hard to hide" (Section VII-C).
        """
        cached = self._ov_cache.get(latency)
        if cached is None:
            overlap = self.machine.core.overlap
            cached = max(1, round(latency * (1.0 - overlap)))
            self._ov_cache[latency] = cached
        return cached

    # -- plain accesses -------------------------------------------------------

    @abstractmethod
    def read(self, core: int, byte_addr: int) -> tuple[int, Any]:
        """Load one word; return (latency, value)."""

    @abstractmethod
    def write(self, core: int, byte_addr: int, value: Any) -> int:
        """Store one word; return latency."""

    def fused_hooks(self, core: int) -> FusedHooks:
        """*core*'s rules for the fast engine's fused loop (see
        :class:`FusedHooks`).

        The fast engine calls this once per core, and only when the class
        that defines it is the class defining :meth:`read` and
        :meth:`write` or a subclass of both: a protocol that overrides a
        plain access without restating its rules runs on the reference
        loop.
        """
        raise NotImplementedError(type(self).__name__)

    # -- WB flavors ------------------------------------------------------------

    @abstractmethod
    def wb_range(self, core: int, byte_addr: int, length: int) -> int:
        """WB: write back dirty words of lines overlapping the range."""

    @abstractmethod
    def wb_all(self, core: int, via_meb: bool = False) -> int:
        """WB ALL: write back the whole L1 (via the MEB when armed)."""

    @abstractmethod
    def wb_cons(self, core: int, byte_addr: int, length: int, cons_tid: int) -> int:
        """WB_CONS: level-adaptive write back toward consumer *cons_tid*."""

    @abstractmethod
    def wb_cons_all(self, core: int, cons_tid: int) -> int:
        """WB_CONS ALL: whole-cache level-adaptive write back."""

    @abstractmethod
    def wb_l3(self, core: int, byte_addr: int, length: int) -> int:
        """WB_L3: explicit-level write back to the L3 (through the L2)."""

    @abstractmethod
    def wb_all_l3(self, core: int) -> int:
        """WB ALL to the L3: flush L1 then the whole block L2 downward."""

    # -- INV flavors -------------------------------------------------------------

    @abstractmethod
    def inv_range(self, core: int, byte_addr: int, length: int) -> int:
        """INV: self-invalidate overlapping lines (dirty words spill first)."""

    @abstractmethod
    def inv_all(self, core: int) -> int:
        """INV ALL: self-invalidate the whole L1."""

    @abstractmethod
    def inv_prod(self, core: int, byte_addr: int, length: int, prod_tid: int) -> int:
        """INV_PROD: level-adaptive invalidation against producer *prod_tid*."""

    @abstractmethod
    def inv_prod_all(self, core: int, prod_tid: int) -> int:
        """INV_PROD ALL: whole-cache level-adaptive invalidation."""

    @abstractmethod
    def inv_l2(self, core: int, byte_addr: int, length: int) -> int:
        """INV_L2: explicit-level invalidation from the L2 (and L1)."""

    @abstractmethod
    def inv_all_l2(self, core: int) -> int:
        """INV ALL from both the L1 and the whole block L2."""

    # -- epochs ---------------------------------------------------------------------

    @abstractmethod
    def epoch_begin(self, core: int, record_meb: bool, ieb_mode: bool) -> int:
        """Start an epoch: arm the MEB recorder and/or the IEB checker."""

    @abstractmethod
    def epoch_end(self, core: int) -> int:
        """End the epoch: disarm both entry buffers."""

    # -- lifecycle ---------------------------------------------------------------------

    @abstractmethod
    def finalize(self) -> None:
        """Flush all cached state to memory (untimed; enables verification)."""
