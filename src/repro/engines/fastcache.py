"""Packed tag/state/LRU arrays: the fast engine's cache structure.

:class:`PackedCache` is a drop-in replacement for
:class:`repro.mem.cache.Cache` that stores the tag array as flat
slot-indexed lists (``slot = set * assoc + way``) instead of one dict per
set:

* ``_tags[slot]``  — resident line address (or ``None`` for a free way),
* ``_lines[slot]`` — the :class:`~repro.mem.line.CacheLine` object,
* ``_stamps[slot]``— monotonic LRU stamp (larger = more recently used),
* ``_index``       — one flat ``line_addr → slot`` dict for O(1) lookup
  and O(1) way-indexed :meth:`line_id` (no linear tag scan).

Observable behaviour is bit-identical to the reference cache: the
reference keeps each set's dict in LRU→MRU insertion order, touches
promote to MRU, and eviction takes the set's oldest entry.  Stamps encode
exactly that order — every touch/insert writes a fresh maximal stamp, the
eviction victim is the minimal stamp in the set, and :meth:`lines` yields
each set's lines sorted by stamp — so every iteration-order-sensitive
consumer (WB ALL sample lines, ``inv_all``, verification flushes) sees
the same sequence as the reference engine.

The hot-path structures (``_index``, ``_lines``, ``_stamps``) are never
reassigned after construction, so the fast CPU binds them once per core.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.params import CacheParams
from repro.mem.line import CacheLine


class PackedCache:
    """Set-associative cache over flat packed arrays with true-LRU stamps."""

    __slots__ = (
        "params", "name", "_set_mask", "_assoc",
        "_index", "_tags", "_lines", "_stamps", "_stamp",
    )

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        # CacheParams guarantees num_sets is a power of two, so set indexing
        # is a mask rather than a modulo (hot path: every lookup/insert).
        self._set_mask = params.num_sets - 1
        self._assoc = params.assoc
        slots = params.num_sets * params.assoc
        self._index: dict[int, int] = {}
        self._tags: list[int | None] = [None] * slots
        self._lines: list[CacheLine | None] = [None] * slots
        self._stamps: list[int] = [0] * slots
        self._stamp = 0

    # -- geometry -----------------------------------------------------------

    def line_id(self, line_addr: int) -> int:
        """Position of a resident line in the tag array: set*assoc + way.

        Slots are laid out as ``set * assoc + way`` by construction, so the
        index lookup *is* the line ID — O(1), and stable across LRU touches
        (a line keeps its physical way until it is evicted or removed).
        """
        slot = self._index.get(line_addr)
        if slot is None:
            raise KeyError(f"line {line_addr:#x} not resident in {self.name}")
        return slot

    # -- lookup / insert ----------------------------------------------------

    def lookup(self, line_addr: int, *, touch: bool = True) -> CacheLine | None:
        """Return the resident line or None.  ``touch`` updates LRU order."""
        slot = self._index.get(line_addr)
        if slot is None:
            return None
        if touch:
            self._stamp += 1
            self._stamps[slot] = self._stamp
        return self._lines[slot]

    def insert(self, line: CacheLine) -> CacheLine | None:
        """Insert *line* as MRU; return the evicted victim, if any.

        The caller owns victim handling (dirty victims must be written back
        by the coherence policy before their state is dropped).
        """
        la = line.line_addr
        self._stamp += 1
        slot = self._index.get(la)
        if slot is not None:
            self._lines[slot] = line
            self._stamps[slot] = self._stamp
            return None
        base = (la & self._set_mask) * self._assoc
        tags = self._tags
        victim: CacheLine | None = None
        free = -1
        for s in range(base, base + self._assoc):
            if tags[s] is None:
                free = s
                break
        if free < 0:
            # Set full: evict the way with the minimal stamp (the set's
            # least recently used line — the reference dict's oldest entry).
            stamps = self._stamps
            free = min(range(base, base + self._assoc), key=stamps.__getitem__)
            victim = self._lines[free]
            del self._index[tags[free]]  # type: ignore[arg-type]
        tags[free] = la
        self._lines[free] = line
        self._stamps[free] = self._stamp
        self._index[la] = free
        return victim

    def remove(self, line_addr: int) -> CacheLine | None:
        """Invalidate (drop) a line; return it if it was resident."""
        slot = self._index.pop(line_addr, None)
        if slot is None:
            return None
        line = self._lines[slot]
        self._tags[slot] = None
        self._lines[slot] = None
        return line

    # -- traversal ----------------------------------------------------------

    def lines(self) -> list[CacheLine]:
        """All resident lines (tag-array walk order: sets ascending, LRU→MRU).

        Visits only occupied slots (via ``_index``) with a single flat sort
        keyed by ``(set, stamp)`` — stamps are unique, so within a set this
        is exactly the reference dict's LRU→MRU order.  Cost scales with
        residency, not geometry (tag walks run every epoch; most sets are
        empty in the scaled-down simulated caches).
        """
        if not self._index:
            return []
        assoc = self._assoc
        stamps = self._stamps
        lines_ = self._lines
        order = sorted(
            (slot // assoc, stamps[slot], slot)
            for slot in self._index.values()
        )
        return [lines_[slot] for _, _, slot in order]

    def resident_line_addrs(self) -> list[int]:
        return [ln.line_addr for ln in self.lines()]

    def dirty_lines(self) -> list[CacheLine]:
        """Resident dirty lines, in :meth:`lines` order (filter-then-sort)."""
        assoc = self._assoc
        stamps = self._stamps
        lines_ = self._lines
        order = sorted(
            (slot // assoc, stamps[slot], slot)
            for slot in self._index.values()
            if lines_[slot].dirty  # type: ignore[union-attr]
        )
        return [lines_[slot] for _, _, slot in order]

    def clear(self, *, on_evict: Callable[[CacheLine], Any] | None = None) -> int:
        """Drop every resident line, optionally visiting each; return count."""
        n = len(self._index)
        if on_evict is not None:
            for line in self.lines():
                on_evict(line)
        self._index.clear()
        for slot in range(len(self._tags)):
            self._tags[slot] = None
            self._lines[slot] = None
        return n

    @property
    def occupancy(self) -> int:
        return len(self._index)
