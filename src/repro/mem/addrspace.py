"""Shared address-space allocator and array views.

Workloads allocate named arrays; every element occupies one word (values are
Python objects — the functional simulator tracks words, not bytes).  The
allocator hands out line-aligned regions by default, and arrays support
optional per-row line padding.  That padding is how the SPLASH-2 "contiguous"
(padded, false-sharing-free) versus "non-contiguous" (packed) variants of LU
and Ocean are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import AddressError
from repro.common.params import WORD_BYTES


@dataclass(frozen=True)
class Allocation:
    """A named, contiguous byte range in the shared address space."""

    name: str
    base: int  # byte address
    nbytes: int

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def contains(self, byte_addr: int) -> bool:
        return self.base <= byte_addr < self.end


class AddressSpace:
    """Bump allocator over a single flat shared address space."""

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self._next = line_bytes  # keep address 0 unmapped to catch bugs
        self._allocs: dict[str, Allocation] = {}

    def alloc(self, name: str, nwords: int, *, align_line: bool = True) -> Allocation:
        """Reserve *nwords* words under *name*; line-aligned by default."""
        if name in self._allocs:
            raise AddressError(f"allocation {name!r} already exists")
        if nwords <= 0:
            raise AddressError(f"allocation {name!r} must have >= 1 word")
        if align_line:
            rem = self._next % self.line_bytes
            if rem:
                self._next += self.line_bytes - rem
        base = self._next
        nbytes = nwords * WORD_BYTES
        self._next += nbytes
        alloc = Allocation(name, base, nbytes)
        self._allocs[name] = alloc
        return alloc

    def lookup(self, name: str) -> Allocation:
        try:
            return self._allocs[name]
        except KeyError:
            raise AddressError(f"no allocation named {name!r}") from None

    def owner_of(self, byte_addr: int) -> Allocation | None:
        for alloc in self._allocs.values():
            if alloc.contains(byte_addr):
                return alloc
        return None


class SharedArray:
    """A 1-D or 2-D word-granular array view over an allocation.

    2-D arrays may pad each row to a line boundary (``pad_rows=True``), which
    removes inter-row false sharing — the "contiguous" SPLASH-2 layout.
    """

    def __init__(
        self,
        space: AddressSpace,
        name: str,
        shape: int | tuple[int, int],
        *,
        pad_rows: bool = False,
    ) -> None:
        if isinstance(shape, int):
            shape = (shape,)
        if len(shape) not in (1, 2) or any(s <= 0 for s in shape):
            raise AddressError(f"unsupported array shape {shape!r}")
        self.name = name
        self.shape = shape
        words_per_line = space.line_bytes // WORD_BYTES
        if len(shape) == 2 and pad_rows:
            row_words = -(-shape[1] // words_per_line) * words_per_line
        else:
            row_words = shape[1] if len(shape) == 2 else 0
        self._row_words = row_words
        total = shape[0] * row_words if len(shape) == 2 else shape[0]
        self.alloc = space.alloc(name, total)
        self._base = self.alloc.base

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def addr(self, i: int, j: int | None = None) -> int:
        """Byte address of element (i) or (i, j)."""
        shape = self.shape
        if j is None:
            if len(shape) != 1:
                raise AddressError(f"{self.name} is 2-D; need two indices")
            if 0 <= i < shape[0]:
                return self._base + i * WORD_BYTES
            raise AddressError(f"{self.name}[{i}] out of range {shape}")
        if len(shape) == 1:
            raise AddressError(f"{self.name} is 1-D")
        if 0 <= i < shape[0] and 0 <= j < shape[1]:
            return self._base + (i * self._row_words + j) * WORD_BYTES
        raise AddressError(f"{self.name}[{i},{j}] out of range {shape}")

    def row_range(self, i: int) -> tuple[int, int]:
        """(byte address, byte length) of logical row *i* (2-D only)."""
        if len(self.shape) != 2:
            raise AddressError(f"{self.name} is 1-D")
        return self.addr(i, 0), self.shape[1] * WORD_BYTES

    def range(self, i: int = 0, n: int | None = None) -> tuple[int, int]:
        """(byte address, byte length) covering elements [i, i+n) (1-D)."""
        if len(self.shape) != 1:
            raise AddressError(f"{self.name} is 2-D; use row_range")
        if n is None:
            n = self.shape[0] - i
        if n < 0 or i < 0 or i + n > self.shape[0]:
            raise AddressError(f"{self.name} range [{i}, {i}+{n}) out of bounds")
        return self.alloc.base + i * WORD_BYTES, n * WORD_BYTES

    def element_addrs(self) -> Iterator[int]:
        if len(self.shape) == 1:
            for i in range(self.shape[0]):
                yield self.addr(i)
        else:
            for i in range(self.shape[0]):
                for j in range(self.shape[1]):
                    yield self.addr(i, j)
