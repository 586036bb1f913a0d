"""SPLASH-2 FFT (Table I: barrier).

A scaled 1-D radix-2 Cooley-Tukey FFT over a shared complex array: a
bit-reversal permutation epoch, then ``log2(N)`` butterfly stages, each
separated by a global barrier.  Butterflies are block-distributed; early
stages pair elements across thread chunks (the all-to-all communication of
the SPLASH transpose steps), later stages become thread-local.  Each
thread issues the permutation and each stage as one ``MapBatch`` over its
block: per butterfly, read the upper and lower elements, store both, then
compute.

All inter-thread communication is barrier-ordered — the canonical Figure 4a
pattern.  Annotations are the barrier defaults (WB ALL / INV ALL).
Verification compares against ``numpy.fft.fft``.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from repro.common.errors import ConfigError, expect_close
from repro.common.rng import make_rng
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one


def bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def _copy(i: int, value):
    """The permutation's store value: the source word, unchanged."""
    return value


@functools.cache
def _tables(bits: int) -> tuple[tuple[int, ...], tuple[tuple[complex, ...], ...]]:
    """The bit-reversal permutation and per-stage twiddles for ``2**bits`` points.

    Both depend only on the size, so they are built once per size and
    shared by every instance and thread.  The twiddles are the exact
    ``cmath.exp`` values a per-butterfly computation would produce, so
    written values are bitwise unchanged.
    """
    n = 1 << bits
    rev = tuple(bit_reverse(i, bits) for i in range(n))
    twiddle = tuple(
        tuple(cmath.exp(-2j * cmath.pi * j / (2 << s)) for j in range(1 << s))
        for s in range(bits)
    )
    return rev, twiddle


@functools.cache
def _butterflies(
    bits: int, nthreads: int
) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]:
    """Per thread, per stage: its butterflies' upper and lower indices.

    Stage *s* pairs elements ``half = 2**s`` apart: butterfly *b* joins
    element ``(b // half) * 2 * half + b % half`` with the one ``half``
    above it.  The ``2**bits // 2`` butterflies are block-distributed over
    the threads, so early stages pair elements across thread chunks and
    later ones are thread-local.  Like :func:`_tables`, the lists depend
    only on their arguments and are built once; they share one int object
    per index, so they cost a pointer per entry.
    """
    index = tuple(range(1 << bits))
    bchunk = len(index) // 2 // nthreads
    threads = []
    for t in range(nthreads):
        stages = []
        for s in range(bits):
            half = 1 << s
            tops = tuple(
                index[(b // half) * (half << 1) + b % half]
                for b in range(t * bchunk, (t + 1) * bchunk)
            )
            stages.append((tops, tuple(index[i + half] for i in tops)))
        threads.append(tuple(stages))
    return tuple(threads)


def _butterfly(twiddle: tuple[complex, ...], half: int):
    """One stage's butterfly as two ``MapBatch`` assignments.

    ``upper(b, va, vb)`` stores ``va + vb*tw`` over butterfly *b*'s upper
    element and leaves ``va - vb*tw`` in a cell keyed by *b*; ``lower(b)``
    takes it from there and stores it over the lower element, in the same
    iteration.
    """
    lowers = {}

    def upper(b, va, vb):
        vb = vb * twiddle[b % half]
        lowers[b] = va - vb
        return va + vb

    return upper, lowers.pop


@register_model_one
class FFT(ModelOneWorkload):
    """Radix-2 FFT with barrier-separated stages."""

    name = "fft"
    main_patterns = (Pattern.BARRIER,)
    other_patterns = ()

    def __init__(self, scale: float = 1.0, n: int | None = None) -> None:
        super().__init__(scale)
        # Default 4K points: the src+work arrays together exceed the 32 KB
        # L1, so HCC also misses — matching the paper's 64K-point runs where
        # INV ALL costs little extra (the data does not fit in L1 anyway).
        self.n = n if n is not None else max(64, 1 << round(12 * scale))
        if self.n & (self.n - 1):
            raise ConfigError("FFT size must be a power of two")
        self.bits = self.n.bit_length() - 1
        rng = make_rng("fft")
        self.input = (rng.random(self.n) + 1j * rng.random(self.n)).tolist()
        self.rev, self.twiddle = _tables(self.bits)

    def prepare(self, machine: Machine) -> None:
        if self.n % (2 * machine.num_threads):
            raise ConfigError(
                f"FFT size {self.n} must divide evenly over "
                f"{machine.num_threads} threads"
            )
        self.src = machine.array("fft_src", self.n)
        self.work = machine.array("fft_work", self.n)
        #: Source- and work-array element addresses, shared by every thread.
        self._saddrs = tuple(self.src.addr(i) for i in range(self.n))
        self._waddrs = tuple(self.work.addr(i) for i in range(self.n))
        mem = machine.hier.memory
        for addr, v in zip(self._saddrs, self.input):
            mem.write_word(addr // 4, v)
        machine.spawn_all(self._program)

    def _program(self, ctx):
        n, bits = self.n, self.bits
        t, nt = ctx.tid, ctx.nthreads
        chunk = n // nt
        lo, hi = t * chunk, (t + 1) * chunk
        saddrs, waddrs = self._saddrs, self._waddrs

        # Epoch 0: bit-reversal permutation into the work array.  Each
        # thread writes its chunk of the destination, reading scattered
        # source elements (no producer yet: input preloaded in memory).
        # The whole permutation is one MapBatch: the per-element
        # read-source/write-destination interleaving is its definition.
        rev = self.rev
        yield isa.MapBatch(lo, hi, ((
            _copy,
            (tuple(map(saddrs.__getitem__, rev[lo:hi])),),
            waddrs[lo:hi],
        ),))
        yield from ctx.barrier()

        # Butterfly stages.  Stage s pairs elements 2**s apart; each thread
        # owns a block of butterflies, and the whole block is one MapBatch.
        # Butterfly b reads its upper and lower elements, stores both, then
        # computes (the twiddle multiply's 8 FLOPs).
        bchunk = n // 2 // nt
        blo, bhi = t * bchunk, (t + 1) * bchunk
        for s, stage in enumerate(_butterflies(bits, nt)[t]):
            upper, lower = _butterfly(self.twiddle[s], 1 << s)
            tops, bottoms = (tuple(map(waddrs.__getitem__, idx)) for idx in stage)
            yield isa.MapBatch(blo, bhi, (
                (upper, (tops, bottoms), tops),
                (lower, (), bottoms),
            ), 8)
            yield from ctx.barrier()

    def reference(self) -> np.ndarray:
        return np.fft.fft(np.array(self.input, dtype=complex))

    def verify(self, machine: Machine) -> None:
        got = np.array(machine.read_array(self.work), dtype=complex)
        want = self.expected()
        expect_close(self.work.name, got, want, rtol=1e-9, atol=1e-9)
