"""SPLASH-2 Volrend (Table I: main = barrier + outside critical).

A scaled volume renderer in two task-queue phases separated by a barrier:

1. **opacity phase** — threads pull voxel-slab tasks from a shared queue
   (critical section) and write each slab's opacity profile into a shared
   array (produced *outside* the critical section);
2. **composite phase** — threads pull image-column tasks from a second
   queue and composite along the ray, reading the opacity profiles that
   *other* threads produced in phase 1 — classic OCC: the only ordering is
   the dequeue critical section plus the inter-phase barrier.

Verification composites the same volume sequentially.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import expect_close
from repro.common.rng import make_rng
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one

_Q1_LOCK = 3
_Q2_LOCK = 4


@register_model_one
class Volrend(ModelOneWorkload):
    """Two-phase task-queue volume renderer with OCC."""

    name = "volrend"
    main_patterns = (Pattern.BARRIER, Pattern.OUTSIDE_CRITICAL)
    other_patterns = (Pattern.CRITICAL,)

    def __init__(
        self,
        scale: float = 1.0,
        n_slabs: int | None = None,
        slab_size: int = 24,
        n_columns: int | None = None,
    ) -> None:
        super().__init__(scale)
        self.n_slabs = n_slabs if n_slabs is not None else max(16, round(32 * scale))
        self.slab_size = slab_size
        self.n_columns = (
            n_columns if n_columns is not None else max(16, round(64 * scale))
        )
        rng = make_rng("volrend")
        self.volume = rng.random((self.n_slabs, slab_size))

    def prepare(self, machine: Machine) -> None:
        ns, ss = self.n_slabs, self.slab_size
        self.vox = machine.array("vol_vox", (ns, ss), pad_rows=True)
        self.opacity = machine.array("vol_opacity", ns)
        self.image = machine.array("vol_image", self.n_columns)
        self.q1 = machine.array("vol_q1", 1)
        self.q2 = machine.array("vol_q2", 1)
        mem = machine.hier.memory
        for s in range(ns):
            for k in range(ss):
                mem.write_word(self.vox.addr(s, k) // 4, float(self.volume[s, k]))
        #: Per-slab voxel-read and whole-profile opacity-read address
        #: tuples, hoisted for the phase ReadBatches below.
        self._slab_addrs = [
            tuple(self.vox.addr(s, k) for k in range(ss)) for s in range(ns)
        ]
        self._opac_addrs = tuple(self.opacity.addr(s) for s in range(ns))
        machine.spawn_all(self._program)

    @staticmethod
    def _slab_opacity(samples: list[float]) -> float:
        transparency = 1.0
        for v in samples:
            transparency *= 1.0 - 0.1 * v
        return 1.0 - transparency

    def _column_value(self, col: int, opacities: list[float]) -> float:
        # Composite front-to-back over the slabs this column traverses.
        acc = 0.0
        trans = 1.0
        for s in range(col % 4, self.n_slabs, 4):
            o = opacities[s]
            acc += trans * o
            trans *= 1.0 - o
        return acc

    def _program(self, ctx):
        yield from ctx.barrier()
        # Phase 1: opacity tasks.
        while True:
            yield from ctx.lock_acquire(_Q1_LOCK, occ=True)
            task = yield isa.Read(self.q1.addr(0))
            yield isa.Write(self.q1.addr(0), task + 1)
            yield from ctx.lock_release(_Q1_LOCK, occ=True)
            if task >= self.n_slabs:
                break
            samples = yield isa.ReadBatch(self._slab_addrs[int(task)])
            yield isa.Compute(2 * self.slab_size)
            yield isa.Write(self.opacity.addr(int(task)), self._slab_opacity(samples))
        yield from ctx.barrier()
        # Phase 2: composite tasks reading every slab's opacity (OCC).
        while True:
            yield from ctx.lock_acquire(_Q2_LOCK, occ=True)
            task = yield isa.Read(self.q2.addr(0))
            yield isa.Write(self.q2.addr(0), task + 1)
            yield from ctx.lock_release(_Q2_LOCK, occ=True)
            if task >= self.n_columns:
                break
            opacities = yield isa.ReadBatch(self._opac_addrs)
            yield isa.Compute(self.n_slabs)
            yield isa.Write(
                self.image.addr(int(task)), self._column_value(int(task), opacities)
            )
        yield from ctx.barrier()

    def reference(self) -> np.ndarray:
        opac = [self._slab_opacity(list(self.volume[s])) for s in range(self.n_slabs)]
        return np.array([self._column_value(c, opac) for c in range(self.n_columns)])

    def verify(self, machine: Machine) -> None:
        want = self.expected()
        got = np.array(
            [machine.read_word(self.image.addr(c)) for c in range(self.n_columns)]
        )
        expect_close(self.image.name, got, want, rtol=1e-12, atol=1e-12)
