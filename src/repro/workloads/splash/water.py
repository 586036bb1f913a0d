"""SPLASH-2 Water (Table I: barrier + critical), nsquared and spatial.

A scaled molecular-dynamics step on a 1-D periodic domain.  Each time step:

1. zero own forces, barrier,
2. pairwise force accumulation — each thread computes the interactions of
   its own molecules and accumulates into *both* partners' shared force
   slots, protected by per-molecule locks (Water's per-molecule critical
   sections), barrier,
3. position integration of own molecules, barrier.

**nsquared** considers every pair (i<j) — O(N²) interactions, many remote
force accumulations.  **spatial** uses a cell list and only interacts
molecules within a cutoff — far fewer pairs and mostly-local traffic,
which is why the paper classifies Water-Spatial among the coarse-grain
codes whose WB/INV overhead is negligible.

To keep results deterministic under any lock-grant order, force
accumulation adds values whose sum is order-independent up to float
rounding; verification uses a tolerance against the sequential reference.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import expect_close
from repro.common.rng import make_rng
from repro.compiler.schedule import chunk_bounds
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one

#: Per-molecule lock IDs start here.
_MOL_LOCK_BASE = 100


def _pair_force(xi: float, xj: float, box: float) -> float:
    """Periodic 1-D soft-core force on molecule i from j."""
    d = xi - xj
    d -= box * round(d / box)
    r2 = d * d + 0.05
    return d / (r2 * r2)


class _WaterBase(ModelOneWorkload):
    main_patterns = (Pattern.BARRIER, Pattern.CRITICAL)
    other_patterns = ()
    cutoff: float | None = None  # None: all pairs (nsquared)

    def __init__(
        self, scale: float = 1.0, n_mol: int | None = None, steps: int = 2
    ) -> None:
        super().__init__(scale)
        self.n_mol = n_mol if n_mol is not None else max(32, round(96 * scale))
        self.steps = steps
        self.box = float(self.n_mol)
        rng = make_rng("water")
        # Spread molecules over the box with jitter; modest velocities.
        self.x0 = (
            np.arange(self.n_mol) * (self.box / self.n_mol)
            + rng.random(self.n_mol) * 0.4
        )
        self.v0 = (rng.random(self.n_mol) - 0.5) * 0.1
        self.dt = 0.01

    # -- pair enumeration ------------------------------------------------------

    def _pairs_of(self, i: int) -> list[int]:
        """Partners j > i that molecule i interacts with."""
        if self.cutoff is None:
            return list(range(i + 1, self.n_mol))
        out = []
        for j in range(i + 1, self.n_mol):
            d = self.x0[i] - self.x0[j]
            d -= self.box * round(d / self.box)
            if abs(d) <= self.cutoff:
                out.append(j)
        return out

    # -- simulated program --------------------------------------------------------

    def prepare(self, machine: Machine) -> None:
        n = self.n_mol
        self.pos = machine.array(f"water_pos_{self.name}", n)
        self.vel = machine.array(f"water_vel_{self.name}", n)
        self.force = machine.array(f"water_force_{self.name}", n)
        mem = machine.hier.memory
        for i in range(n):
            mem.write_word(self.pos.addr(i) // 4, float(self.x0[i]))
            mem.write_word(self.vel.addr(i) // 4, float(self.v0[i]))
        # Pair lists depend only on the initial positions, so both the
        # partner indices and the phase-2 position-read address tuples
        # (own molecule first, then partners in ascending order — the
        # scalar read order) can be hoisted out of the hot loop.
        self._pairs = [self._pairs_of(i) for i in range(n)]
        paddr = [self.pos.addr(i) for i in range(n)]
        self._paddr = paddr
        self._vaddr = [self.vel.addr(i) for i in range(n)]
        self._faddr = [self.force.addr(i) for i in range(n)]
        self._p2_addrs = [
            (paddr[i], *(paddr[j] for j in self._pairs[i])) for i in range(n)
        ]
        machine.spawn_all(self._program)

    def _own(self, t: int, nt: int) -> range:
        return range(*chunk_bounds(self.n_mol, nt, t))

    def _program(self, ctx):
        t, nt = ctx.tid, ctx.nthreads
        own = self._own(t, nt)
        pairs, p2_addrs = self._pairs, self._p2_addrs
        paddr, vaddr, faddr = self._paddr, self._vaddr, self._faddr
        own_faddrs = tuple(faddr[i] for i in own)
        zeros = (0.0,) * len(own_faddrs)
        for _ in range(self.steps):
            # Phase 1: zero own force slots.
            yield isa.WriteBatch(own_faddrs, zeros)
            yield from ctx.barrier()
            # Phase 2: pair interactions.  Like SPLASH-2 Water, partial
            # forces are first accumulated in a thread-private scratch and
            # merged into the shared array once per touched molecule, each
            # merge inside that molecule's critical section.  Each
            # molecule's position reads (self, then ascending partners)
            # form one ReadBatch; the per-pair FLOP charge is coalesced.
            local: dict[int, float] = {}
            for i in own:
                vals = yield isa.ReadBatch(p2_addrs[i])
                xi = vals[0]
                js = pairs[i]
                for j, xj in zip(js, vals[1:], strict=True):
                    f = _pair_force(xi, xj, self.box)
                    local[i] = local.get(i, 0.0) + f
                    local[j] = local.get(j, 0.0) - f
                if js:
                    yield isa.Compute(40 * len(js))
            own_set = set(own)
            for mol in sorted(local):
                if mol in own_set:
                    # Contributions to own molecules are merged lock-free in
                    # phase 3, after the barrier (SPLASH Water's local-force
                    # optimization).
                    continue
                lid = _MOL_LOCK_BASE + mol
                yield from ctx.lock_acquire(lid, occ=False)
                cur = yield isa.Read(faddr[mol])
                yield isa.Write(faddr[mol], cur + local[mol])
                yield from ctx.lock_release(lid, occ=False)
            yield from ctx.barrier()
            # Phase 3: integrate own molecules (adding the deferred own
            # contributions — no other thread touches forces now).
            for i in own:
                f, v, x = yield isa.ReadBatch((faddr[i], vaddr[i], paddr[i]))
                f += local.get(i, 0.0)
                v_new = v + f * self.dt
                yield isa.WriteBatch(
                    (vaddr[i], paddr[i]), (v_new, x + v_new * self.dt)
                )
                yield isa.Compute(6)
            yield from ctx.barrier()

    # -- verification ---------------------------------------------------------------

    def reference(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_mol
        x = self.x0.astype(float).copy()
        v = self.v0.astype(float).copy()
        for _ in range(self.steps):
            f = np.zeros(n)
            for i in range(n):
                for j in self._pairs_of(i):
                    pf = _pair_force(x[i], x[j], self.box)
                    f[i] += pf
                    f[j] -= pf
            v += f * self.dt
            x += v * self.dt
        return x, v

    def verify(self, machine: Machine) -> None:
        n = self.n_mol
        x, v = self.expected()
        got_x = np.array([machine.read_word(self.pos.addr(i)) for i in range(n)])
        got_v = np.array([machine.read_word(self.vel.addr(i)) for i in range(n)])
        expect_close(self.pos.name, got_x, x, rtol=1e-7, atol=1e-9)
        expect_close(self.vel.name, got_v, v, rtol=1e-7, atol=1e-9)


@register_model_one
class WaterNSquared(_WaterBase):
    """All-pairs Water: fine-grain critical sections, heavy sharing."""

    name = "water_nsq"
    cutoff = None


@register_model_one
class WaterSpatial(_WaterBase):
    """Cutoff (cell-list) Water: coarse-grain, mostly local."""

    name = "water_sp"
    cutoff = 2.0
