"""SPLASH-2 LU (Table I: barrier), contiguous and non-contiguous layouts.

Blocked dense LU factorization without pivoting, structured exactly like the
SPLASH-2 kernel: the matrix is divided into B×B blocks owned by threads in a
2-D interleave, and each elimination step runs three barrier-separated
epochs — diagonal-block factorization, panel solves, and the trailing-matrix
update.  Synchronization is coarse (a few barriers per block step), so the
paper classifies LU among the codes where WB/INV overhead "has very little
impact".

The **contiguous** variant pads each matrix row to a cache-line boundary
(SPLASH's "contiguous blocks" allocation, no false sharing); the
**non-contiguous** variant packs rows, so blocks owned by different threads
share cache lines — ping-pong under HCC, harmless under per-word dirty bits
(Section VII-B).

Verification compares against a sequential execution of the same blocked
algorithm (identical arithmetic order, hence bitwise-comparable).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, expect_close
from repro.common.rng import make_rng
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one


def _blocked_lu_reference(a: np.ndarray, bs: int) -> np.ndarray:
    """Sequential blocked LU with the same arithmetic as the parallel code."""
    a = a.astype(float).copy()
    n = a.shape[0]
    nb = n // bs
    for k in range(nb):
        o = k * bs
        # Diagonal block.
        for kk in range(bs):
            for i in range(kk + 1, bs):
                a[o + i, o + kk] /= a[o + kk, o + kk]
                for j in range(kk + 1, bs):
                    a[o + i, o + j] -= a[o + i, o + kk] * a[o + kk, o + j]
        # Column panels: A21 <- A21 * U11^{-1}.
        for bi in range(k + 1, nb):
            ro = bi * bs
            for r in range(bs):
                for kk in range(bs):
                    s = a[ro + r, o + kk]
                    for m in range(kk):
                        s -= a[ro + r, o + m] * a[o + m, o + kk]
                    a[ro + r, o + kk] = s / a[o + kk, o + kk]
        # Row panels: A12 <- L11^{-1} * A12.
        for bj in range(k + 1, nb):
            co = bj * bs
            for c in range(bs):
                for kk in range(bs):
                    s = a[o + kk, co + c]
                    for m in range(kk):
                        s -= a[o + kk, o + m] * a[o + m, co + c]
                    a[o + kk, co + c] = s
        # Trailing update.
        for bi in range(k + 1, nb):
            for bj in range(k + 1, nb):
                ro, co = bi * bs, bj * bs
                for r in range(bs):
                    for c in range(bs):
                        s = a[ro + r, co + c]
                        for m in range(bs):
                            s -= a[ro + r, o + m] * a[o + m, co + c]
                        a[ro + r, co + c] = s
    return a


class _LUBase(ModelOneWorkload):
    main_patterns = (Pattern.BARRIER,)
    other_patterns = ()
    pad_rows = True

    def __init__(
        self, scale: float = 1.0, n: int | None = None, block: int = 9
    ) -> None:
        super().__init__(scale)
        # Default 36×36 with 9-wide blocks: rows are 2.25 lines, so the
        # packed layout really shares lines across owners.
        self.block = block
        nb = max(2, round(4 * scale))
        self.n = n if n is not None else nb * block
        if self.n % self.block:
            raise ConfigError("matrix size must be a multiple of the block size")
        self.nb = self.n // self.block
        rng = make_rng("lu")
        self.input = rng.random((self.n, self.n)) + np.eye(self.n) * self.n

    def _owner(self, bi: int, bj: int, nt: int) -> int:
        return (bi * self.nb + bj) % nt

    def prepare(self, machine: Machine) -> None:
        n = self.n
        self.mat = machine.array(
            f"lu_mat_{self.name}", (n, n), pad_rows=self.pad_rows
        )
        mem = machine.hier.memory
        for i in range(n):
            for j in range(n):
                mem.write_word(self.mat.addr(i, j) // 4, float(self.input[i, j]))
        #: Element-address table: the kernels below assemble ReadBatch
        #: address lists by plain list indexing instead of method calls.
        self._A = [[self.mat.addr(i, j) for j in range(n)] for i in range(n)]
        machine.spawn_all(self._program)

    # -- simulated kernels (one block each) ----------------------------------

    # Each kernel batches its reads into one ReadBatch per output element,
    # listing addresses in exactly the order the scalar loops read them;
    # the dot products subtract term by term so written values stay
    # bitwise identical to the scalar form.

    def _factor_diag(self, o: int):
        A, bs = self._A, self.block
        for kk in range(bs):
            ok = o + kk
            row_k = A[ok]
            pivot = yield isa.Read(row_k[ok])
            for i in range(kk + 1, bs):
                row_i = A[o + i]
                v = yield isa.Read(row_i[ok])
                lik = v / pivot
                yield isa.Write(row_i[ok], lik)
                for j in range(kk + 1, bs):
                    oj = o + j
                    akj, aij = yield isa.ReadBatch((row_k[oj], row_i[oj]))
                    yield isa.Write(row_i[oj], aij - lik * akj)
            yield isa.Compute(2 * bs)

    def _solve_col_panel(self, ro: int, o: int):
        A, bs = self._A, self.block
        for r in range(bs):
            row = A[ro + r]
            for kk in range(bs):
                ok = o + kk
                addrs = [row[ok]]
                for m in range(kk):
                    addrs.append(row[o + m])
                    addrs.append(A[o + m][ok])
                addrs.append(A[ok][ok])
                vals = yield isa.ReadBatch(addrs)
                s = vals[0]
                for x, u in zip(vals[1:-1:2], vals[2:-1:2]):
                    s -= x * u
                yield isa.Write(row[ok], s / vals[-1])
            yield isa.Compute(2 * bs)

    def _solve_row_panel(self, o: int, co: int):
        A, bs = self._A, self.block
        for c in range(bs):
            cc = co + c
            for kk in range(bs):
                row_k = A[o + kk]
                addrs = [row_k[cc]]
                for m in range(kk):
                    addrs.append(row_k[o + m])
                    addrs.append(A[o + m][cc])
                vals = yield isa.ReadBatch(addrs)
                s = vals[0]
                for l, y in zip(vals[1::2], vals[2::2]):
                    s -= l * y
                yield isa.Write(row_k[cc], s)
            yield isa.Compute(2 * bs)

    def _trailing(self, ro: int, co: int, o: int):
        A, bs = self._A, self.block
        for r in range(bs):
            row = A[ro + r]
            lrow = row[o : o + bs]
            crows = [A[o + m] for m in range(bs)]
            for c in range(bs):
                cc = co + c
                addrs = [row[cc]]
                for m in range(bs):
                    addrs.append(lrow[m])
                    addrs.append(crows[m][cc])
                vals = yield isa.ReadBatch(addrs)
                s = vals[0]
                for l, u in zip(vals[1::2], vals[2::2]):
                    s -= l * u
                yield isa.Write(row[cc], s)
            yield isa.Compute(2 * bs)

    def _program(self, ctx):
        t, nt = ctx.tid, ctx.nthreads
        nb, bs = self.nb, self.block
        for k in range(nb):
            o = k * bs
            if self._owner(k, k, nt) == t:
                yield from self._factor_diag(o)
            yield from ctx.barrier()
            for bi in range(k + 1, nb):
                if self._owner(bi, k, nt) == t:
                    yield from self._solve_col_panel(bi * bs, o)
            for bj in range(k + 1, nb):
                if self._owner(k, bj, nt) == t:
                    yield from self._solve_row_panel(o, bj * bs)
            yield from ctx.barrier()
            for bi in range(k + 1, nb):
                for bj in range(k + 1, nb):
                    if self._owner(bi, bj, nt) == t:
                        yield from self._trailing(bi * bs, bj * bs, o)
            yield from ctx.barrier()

    def reference(self) -> np.ndarray:
        return _blocked_lu_reference(self.input, self.block)

    def verify(self, machine: Machine) -> None:
        n = self.n
        want = self.expected()
        got = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                got[i, j] = machine.read_word(self.mat.addr(i, j))
        expect_close(self.mat.name, got, want, rtol=1e-9, atol=1e-9)


@register_model_one
class LUContiguous(_LUBase):
    """Blocked LU with line-padded rows (no false sharing)."""

    name = "lu_cont"
    pad_rows = True


@register_model_one
class LUNonContiguous(_LUBase):
    """Blocked LU with packed rows (false sharing between block owners)."""

    name = "lu_noncont"
    pad_rows = False
