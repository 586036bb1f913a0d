"""SPLASH-2 Ocean (Table I: barrier + critical), both layouts.

A red-black Gauss-Seidel relaxation over a 2-D grid — the computational
heart of Ocean's multigrid solver — with rows block-distributed across
threads.  Each iteration:

1. red sweep (cells with even parity), barrier,
2. black sweep (odd parity), barrier,
3. a global error accumulation in a critical section (Ocean's
   ``psiai``-style global sums), barrier.

The **contiguous** variant pads grid rows to cache lines (SPLASH's 4-D
array layout); the **non-contiguous** variant packs them (the 2-D layout
with false sharing at partition boundaries).

Verification compares against a sequential red-black sweep of the same
grid, including the accumulated error scalar.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import expect, expect_close
from repro.common.rng import make_rng
from repro.compiler.schedule import chunk_bounds
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one

_ERR_LOCK = 7


class _OceanBase(ModelOneWorkload):
    main_patterns = (Pattern.BARRIER, Pattern.CRITICAL)
    other_patterns = ()
    pad_rows = True

    def __init__(
        self,
        scale: float = 1.0,
        rows: int | None = None,
        cols: int = 36,  # not a multiple of 16 words: packed rows share lines
        iters: int = 2,
    ) -> None:
        super().__init__(scale)
        self.rows = rows if rows is not None else max(18, round(34 * scale))
        self.cols = cols
        self.iters = iters
        rng = make_rng("ocean")
        self.input = rng.random((self.rows, self.cols))

    def prepare(self, machine: Machine) -> None:
        self.grid = machine.array(
            f"ocean_grid_{self.name}",
            (self.rows, self.cols),
            pad_rows=self.pad_rows,
        )
        self.err = machine.array(f"ocean_err_{self.name}", 1)
        mem = machine.hier.memory
        for i in range(self.rows):
            for j in range(self.cols):
                mem.write_word(self.grid.addr(i, j) // 4, float(self.input[i, j]))
        #: Cell-address table for assembling per-cell stencil ReadBatches.
        self._G = [
            [self.grid.addr(i, j) for j in range(self.cols)]
            for i in range(self.rows)
        ]
        machine.spawn_all(self._program)

    def _row_range(self, t: int, nt: int) -> tuple[int, int]:
        """Interior rows [lo, hi) handled by thread t (block distribution)."""
        lo, hi = chunk_bounds(self.rows - 2, nt, t)
        return 1 + lo, 1 + hi  # row 0 is the fixed boundary

    def _sweep(self, t, nt, parity):
        G = self._G
        lo, hi = self._row_range(t, nt)
        local_err = 0.0
        for i in range(lo, hi):
            up, row, dn = G[i - 1], G[i], G[i + 1]
            # One ReadBatch per stencil, addresses in the scalar read
            # order N, S, W, E, C.
            for j in range(2 - (i + parity) % 2, self.cols - 1, 2):
                n, s, w, e, c = yield isa.ReadBatch(
                    (up[j], dn[j], row[j - 1], row[j + 1], row[j])
                )
                new = 0.25 * (n + s + w + e)
                local_err += abs(new - c)
                yield isa.Write(row[j], new)
            yield isa.Compute(self.cols)
        return local_err

    def _program(self, ctx):
        t, nt = ctx.tid, ctx.nthreads
        err_addr = self.err.addr(0)
        for _ in range(self.iters):
            red_err = yield from self._sweep(t, nt, 0)
            yield from ctx.barrier()
            black_err = yield from self._sweep(t, nt, 1)
            yield from ctx.barrier()
            # Global error sum in a critical section (no OCC: all data
            # communicated through the error cell itself).
            yield from ctx.lock_acquire(_ERR_LOCK, occ=False)
            cur = yield isa.Read(err_addr)
            yield isa.Write(err_addr, cur + red_err + black_err)
            yield from ctx.lock_release(_ERR_LOCK, occ=False)
            yield from ctx.barrier()

    def reference(self) -> tuple[np.ndarray, float]:
        want = self.input.astype(float).copy()
        want_err = 0.0
        for _ in range(self.iters):
            for parity in (0, 1):
                for i in range(1, self.rows - 1):
                    for j in range(1, self.cols - 1):
                        if (i + j) % 2 != parity:
                            continue
                        new = 0.25 * (
                            want[i - 1, j]
                            + want[i + 1, j]
                            + want[i, j - 1]
                            + want[i, j + 1]
                        )
                        want_err += abs(new - want[i, j])
                        want[i, j] = new
        return want, want_err

    def verify(self, machine: Machine) -> None:
        want, want_err = self.expected()
        got = np.empty((self.rows, self.cols))
        for i in range(self.rows):
            for j in range(self.cols):
                got[i, j] = machine.read_word(self.grid.addr(i, j))
        expect_close(self.grid.name, got, want, rtol=1e-9, atol=1e-9)
        got_err = machine.read_word(self.err.addr(0))
        expect(
            abs(got_err - want_err) <= 1e-6 * max(1.0, abs(want_err)),
            f"Ocean error-sum mismatch: {got_err} vs {want_err}",
        )


@register_model_one
class OceanContiguous(_OceanBase):
    """Ocean with line-padded rows (the "contiguous partitions" layout)."""

    name = "ocean_cont"
    pad_rows = True


@register_model_one
class OceanNonContiguous(_OceanBase):
    """Ocean with packed rows (false sharing at partition boundaries)."""

    name = "ocean_noncont"
    pad_rows = False
