"""SPLASH-2 Barnes (Table I: main = barrier + outside critical; critical).

A scaled Barnes-Hut-style N-body step on a periodic 1-D domain.  The tree
build is modeled by its communication skeleton: threads *bin* their bodies
into shared spatial cells under per-cell locks (Barnes' tree-insertion
critical sections).  The force phase then walks neighboring cells, reading
body lists that other threads produced inside critical sections — read
*outside* any critical section, ordered only by the intervening barrier
(OCC + barrier, the Table I "Main" entry).

Phases per step (barrier-separated):

1. bin own bodies into cells (per-cell critical sections, OCC),
2. compute forces from bodies in the home and neighbor cells,
3. integrate own bodies.

Binning is order-independent (cell lists are sets, force sums are
symmetric-tolerant), so results verify against a sequential reference.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import expect, expect_close
from repro.common.rng import make_rng
from repro.compiler.schedule import chunk_bounds
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one

_CELL_LOCK_BASE = 300


@register_model_one
class Barnes(ModelOneWorkload):
    """Grid-binned N-body with OCC through shared cell lists."""

    name = "barnes"
    main_patterns = (Pattern.BARRIER, Pattern.OUTSIDE_CRITICAL)
    other_patterns = (Pattern.CRITICAL,)

    def __init__(
        self,
        scale: float = 1.0,
        n_bodies: int | None = None,
        n_cells: int = 16,
        steps: int = 2,
    ) -> None:
        super().__init__(scale)
        self.n_bodies = (
            n_bodies if n_bodies is not None else max(64, round(128 * scale))
        )
        self.n_cells = n_cells
        self.steps = steps
        self.box = float(n_cells)
        rng = make_rng("barnes")
        self.x0 = rng.random(self.n_bodies) * self.box
        self.v0 = (rng.random(self.n_bodies) - 0.5) * 0.02
        self.dt = 0.005
        #: Max bodies a cell can list (sized generously; overflow asserts).
        self.cell_cap = max(8, 4 * self.n_bodies // n_cells)

    def prepare(self, machine: Machine) -> None:
        n, c, cap = self.n_bodies, self.n_cells, self.cell_cap
        self.pos = machine.array("barnes_pos", n)
        self.vel = machine.array("barnes_vel", n)
        self.cell_count = machine.array("barnes_cellcount", c)
        self.cell_items = machine.array("barnes_cellitems", (c, cap), pad_rows=True)
        mem = machine.hier.memory
        for i in range(n):
            mem.write_word(self.pos.addr(i) // 4, float(self.x0[i]))
            mem.write_word(self.vel.addr(i) // 4, float(self.v0[i]))
        self._paddr = [self.pos.addr(i) for i in range(n)]
        self._vaddr = [self.vel.addr(i) for i in range(n)]
        self._clear_addrs = tuple(self.cell_count.addr(cell) for cell in range(c))
        machine.spawn_all(self._program)

    def _own(self, t: int, nt: int) -> range:
        return range(*chunk_bounds(self.n_bodies, nt, t))

    def _cell_of(self, x: float) -> int:
        return int(x % self.box) % self.n_cells

    @staticmethod
    def _force(xi: float, xj: float, box: float) -> float:
        d = xi - xj
        d -= box * round(d / box)
        return d / (d * d + 0.1)

    def _program(self, ctx):
        t, nt = ctx.tid, ctx.nthreads
        own = self._own(t, nt)
        pos, vel = self.pos, self.vel
        ccount, citems = self.cell_count, self.cell_items
        nc = self.n_cells
        for _ in range(self.steps):
            # Phase 0: one thread clears cell counts (cheap, serial-ish).
            if t == 0:
                yield isa.WriteBatch(self._clear_addrs, (0,) * nc)
            yield from ctx.barrier()
            # Phase 1: bin own bodies (tree build) — per-cell critical
            # sections; the lists are consumed outside critical sections.
            for i in own:
                x = yield isa.Read(pos.addr(i))
                cell = self._cell_of(x)
                lid = _CELL_LOCK_BASE + cell
                yield from ctx.lock_acquire(lid, occ=True)
                cnt = yield isa.Read(ccount.addr(cell))
                expect(cnt < self.cell_cap, "cell overflow — raise cell_cap")
                yield isa.Write(citems.addr(cell, int(cnt)), i)
                yield isa.Write(ccount.addr(cell), int(cnt) + 1)
                yield from ctx.lock_release(lid, occ=True)
            yield from ctx.barrier()
            # Phase 2: force walk over home + neighbor cells (OCC reads of
            # the cell lists built by other threads).  Forces go to a
            # private-per-thread slice of the shared force array so the
            # integration can run in a separate epoch (all threads must see
            # old positions while any force walk is in flight).
            forces = {}
            for i in own:
                xi = yield isa.Read(pos.addr(i))
                home = self._cell_of(xi)
                f = 0.0
                for dc in (-1, 0, 1):
                    cell = (home + dc) % nc
                    cnt = yield isa.Read(ccount.addr(cell))
                    for slot in range(int(cnt)):
                        j = yield isa.Read(citems.addr(cell, slot))
                        if j == i:
                            continue
                        xj = yield isa.Read(pos.addr(int(j)))
                        f += self._force(xi, xj, self.box)
                        yield isa.Compute(24)
                forces[i] = f
            yield from ctx.barrier()
            # Phase 3: integrate own bodies from the snapshot forces.
            paddr, vaddr = self._paddr, self._vaddr
            for i in own:
                xi, v = yield isa.ReadBatch((paddr[i], vaddr[i]))
                v_new = v + forces[i] * self.dt
                yield isa.WriteBatch(
                    (vaddr[i], paddr[i]), (v_new, xi + v_new * self.dt)
                )
            yield from ctx.barrier()

    def reference(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_bodies
        x = self.x0.astype(float).copy()
        v = self.v0.astype(float).copy()
        for _ in range(self.steps):
            cells: list[list[int]] = [[] for _ in range(self.n_cells)]
            for i in range(n):
                cells[self._cell_of(x[i])].append(i)
            f = np.zeros(n)
            for i in range(n):
                home = self._cell_of(x[i])
                for dc in (-1, 0, 1):
                    for j in cells[(home + dc) % self.n_cells]:
                        if j != i:
                            f[i] += self._force(x[i], x[j], self.box)
            v = v + f * self.dt
            x = x + v * self.dt
        return x, v

    def verify(self, machine: Machine) -> None:
        n = self.n_bodies
        x, v = self.expected()
        got_x = np.array([machine.read_word(self.pos.addr(i)) for i in range(n)])
        got_v = np.array([machine.read_word(self.vel.addr(i)) for i in range(n)])
        expect_close(self.pos.name, got_x, x, rtol=1e-6, atol=1e-8)
        expect_close(self.vel.name, got_v, v, rtol=1e-6, atol=1e-8)
