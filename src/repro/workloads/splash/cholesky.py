"""SPLASH-2 Cholesky (Table I: main = outside critical; barrier/critical/flag).

Right-looking Cholesky factorization driven by a shared task queue — the
paper's canonical *Outside Critical-section Communication* (OCC) example: a
thread dequeues a task inside a critical section, but the column data the
task consumes was produced by earlier task owners *outside* any critical
section, ordered only by the dynamically-determined dequeue order plus
flags.

Tasks, in queue order for each k: ``finalize(k)`` (scale column k by the
square root of its diagonal) followed by ``update(k, j)`` for j > k
(subtract the rank-1 contribution onto column j).  Readiness is enforced
with condition flags:

* ``fin_k`` — set once column k is finalized; updates using k wait on it;
* ``upd_j`` — a counting flag of how many updates have been applied to
  column j; ``finalize(j)`` waits until all j of them landed.  Updates to a
  column are serialized by a per-column lock, and the holder republishes
  the count via ``flag_set`` (values stay monotonic).

The original busy-waits on memory; like the paper, we use flag
synchronization instead ("Cholesky had busy-waiting on variables; to reduce
unnecessary traffic, we changed it to flag synchronization").
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import expect_close
from repro.common.rng import make_rng
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one

_QUEUE_LOCK = 1
_COL_LOCK_BASE = 200
_FIN_FLAG_BASE = 1000
_UPD_FLAG_BASE = 2000


@register_model_one
class Cholesky(ModelOneWorkload):
    """Task-queue right-looking Cholesky with OCC."""

    name = "cholesky"
    main_patterns = (Pattern.OUTSIDE_CRITICAL,)
    other_patterns = (Pattern.BARRIER, Pattern.CRITICAL, Pattern.FLAG)

    def __init__(self, scale: float = 1.0, n: int | None = None) -> None:
        super().__init__(scale)
        self.n = n if n is not None else max(12, round(20 * scale))
        rng = make_rng("cholesky")
        m = rng.random((self.n, self.n))
        self.input = m @ m.T + np.eye(self.n) * self.n  # SPD

    # Task encoding: a linear id walks k = 0..n-1, each k contributing
    # 1 finalize + (n-1-k) updates, in order.
    def _decode(self, task: int) -> tuple[str, int, int]:
        k = 0
        n = self.n
        while task >= 1 + (n - 1 - k):
            task -= 1 + (n - 1 - k)
            k += 1
        if task == 0:
            return ("finalize", k, -1)
        return ("update", k, k + task)

    @property
    def num_tasks(self) -> int:
        n = self.n
        return sum(1 + (n - 1 - k) for k in range(n))

    def prepare(self, machine: Machine) -> None:
        n = self.n
        self.mat = machine.array("chol_mat", (n, n), pad_rows=True)
        self.queue = machine.array("chol_queue", 1)  # next-task counter
        self.upd_count = machine.array("chol_updcount", n)
        mem = machine.hier.memory
        for i in range(n):
            for j in range(n):
                mem.write_word(self.mat.addr(i, j) // 4, float(self.input[i, j]))
        #: Element-address table for assembling per-task batch address lists.
        self._M = [[self.mat.addr(i, j) for j in range(n)] for i in range(n)]
        machine.spawn_all(self._program)

    def _program(self, ctx):
        n = self.n
        mat = self.mat
        yield from ctx.barrier()
        while True:
            # Dequeue the next task (critical section; OCC assumed: the
            # column data this task will read was produced outside earlier
            # holders' critical sections).
            yield from ctx.lock_acquire(_QUEUE_LOCK, occ=True)
            task = yield isa.Read(self.queue.addr(0))
            yield isa.Write(self.queue.addr(0), task + 1)
            yield from ctx.lock_release(_QUEUE_LOCK, occ=True)
            if task >= self.num_tasks:
                break
            kind, k, j = self._decode(task)

            if kind == "finalize":
                # Wait for all k earlier updates onto column k.
                yield from ctx.flag_wait(_UPD_FLAG_BASE + k, value=k)
                diag = yield isa.Read(mat.addr(k, k))
                root = math.sqrt(diag)
                yield isa.Write(mat.addr(k, k), root)
                for i in range(k + 1, n):
                    v = yield isa.Read(mat.addr(i, k))
                    yield isa.Write(mat.addr(i, k), v / root)
                yield isa.Compute(2 * (n - k))
                yield from ctx.flag_set(_FIN_FLAG_BASE + k)
            else:
                # update(k, j): needs the finalized column k.
                yield from ctx.flag_wait(_FIN_FLAG_BASE + k)
                M = self._M
                ljk = yield isa.Read(M[j][k])
                col = yield isa.ReadBatch(tuple(M[i][k] for i in range(j, n)))
                yield isa.Compute(2 * (n - j))
                # Apply onto column j under the per-column lock.  MapBatch
                # interleaves read/write per element like the scalar loop,
                # and ``cur + (-(lik*ljk))`` is bitwise ``cur - lik*ljk``.
                lid = _COL_LOCK_BASE + j
                yield from ctx.lock_acquire(lid, occ=True)
                deltas = tuple(-(lik * ljk) for lik in col)
                addrs = tuple(M[j + off][j] for off in range(len(col)))
                yield isa.MapBatch(0, len(col), (
                    (lambda off, cur: cur + deltas[off], (addrs,), addrs),
                ))
                cnt = yield isa.Read(self.upd_count.addr(j))
                yield isa.Write(self.upd_count.addr(j), cnt + 1)
                yield from ctx.lock_release(lid, occ=True)
                yield from ctx.flag_set(_UPD_FLAG_BASE + j, value=int(cnt) + 1)
        yield from ctx.barrier()

    def reference(self) -> np.ndarray:
        return np.linalg.cholesky(self.input)

    def verify(self, machine: Machine) -> None:
        n = self.n
        want = self.expected()
        got = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1):
                got[i, j] = machine.read_word(self.mat.addr(i, j))
        expect_close(self.mat.name, got, want, rtol=1e-7, atol=1e-8)
