"""SPLASH-2 Raytrace (Table I: main = critical; barrier, data race).

A scaled ray caster whose defining trait is *very frequent* critical
sections: threads pull tile indices from a shared job queue one at a time
("there are frequent lock accesses in a set of job queues.  Its fine-grain
structure is the reason for the large overhead", Section VII-B).  Each tile
renders a few pixels: per pixel, every sphere of the shared read-only scene
is intersection-tested and the nearest hit is shaded into the shared image.

The original contains a benign data race on a global ray counter; we model
it with Figure-6b annotated racy accesses (``racy_store``/``racy_load``):
each thread racily publishes its progress and occasionally reads the
others' — the final image is unaffected by the race, keeping verification
deterministic, while the annotation cost (WB/INV per racy access) is paid
exactly as the paper prescribes.

Verification re-renders the image sequentially.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import expect, expect_close
from repro.common.rng import make_rng
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.workloads.base import ModelOneWorkload, Pattern, register_model_one

_QUEUE_LOCK = 2
#: Scene record: (cx, cy, r, shade) per sphere.
_SPHERE_WORDS = 4


def _trace_pixel(px: float, py: float, spheres: list[tuple]) -> float:
    """Nearest-sphere shading for an orthographic ray through (px, py)."""
    best_d = math.inf
    shade = 0.0
    for cx, cy, r, s in spheres:
        dx = px - cx
        dy = py - cy
        d2 = dx * dx + dy * dy
        if d2 <= r * r:
            depth = d2 / (r * r)
            if depth < best_d:
                best_d = depth
                shade = s * (1.0 - depth)
    return shade


@register_model_one
class Raytrace(ModelOneWorkload):
    """Job-queue ray caster with fine-grain critical sections."""

    name = "raytrace"
    main_patterns = (Pattern.CRITICAL,)
    other_patterns = (Pattern.BARRIER, Pattern.DATA_RACE)

    def __init__(
        self,
        scale: float = 1.0,
        width: int | None = None,
        height: int | None = None,
        n_spheres: int = 8,
        pixels_per_tile: int = 16,
    ) -> None:
        super().__init__(scale)
        self.width = width if width is not None else max(16, round(64 * scale))
        self.height = height if height is not None else max(8, round(32 * scale))
        self.n_spheres = n_spheres
        self.pixels_per_tile = pixels_per_tile
        rng = make_rng("raytrace")
        self.spheres = [
            (
                float(rng.random() * self.width),
                float(rng.random() * self.height),
                float(1.0 + rng.random() * 4.0),
                float(0.2 + rng.random() * 0.8),
            )
            for _ in range(n_spheres)
        ]

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @property
    def n_tiles(self) -> int:
        return -(-self.n_pixels // self.pixels_per_tile)

    def prepare(self, machine: Machine) -> None:
        self.scene = machine.array("ray_scene", self.n_spheres * _SPHERE_WORDS)
        self.image = machine.array("ray_image", self.n_pixels)
        self.queue = machine.array("ray_queue", 1)
        self.progress = machine.array("ray_progress", machine.num_threads)
        mem = machine.hier.memory
        for s, sph in enumerate(self.spheres):
            for w, v in enumerate(sph):
                mem.write_word(self.scene.addr(s * _SPHERE_WORDS + w) // 4, v)
        #: Every pixel reads the whole read-only scene in the same order —
        #: one shared address tuple serves every ReadBatch.
        self._scene_addrs = tuple(
            self.scene.addr(k) for k in range(self.n_spheres * _SPHERE_WORDS)
        )
        machine.spawn_all(self._program)

    def _program(self, ctx):
        t = ctx.tid
        image, queue = self.image, self.queue
        yield from ctx.barrier()
        tiles_done = 0
        while True:
            # Fine-grain job dequeue (no OCC: tiles are independent; the
            # scene is read-only and the image slices are disjoint).
            yield from ctx.lock_acquire(_QUEUE_LOCK, occ=False)
            tile = yield isa.Read(queue.addr(0))
            yield isa.Write(queue.addr(0), tile + 1)
            yield from ctx.lock_release(_QUEUE_LOCK, occ=False)
            if tile >= self.n_tiles:
                break
            lo = tile * self.pixels_per_tile
            hi = min(lo + self.pixels_per_tile, self.n_pixels)
            scene_addrs = self._scene_addrs
            for p in range(lo, hi):
                px = float(p % self.width) + 0.5
                py = float(p // self.width) + 0.5
                flat = yield isa.ReadBatch(scene_addrs)
                spheres = [
                    tuple(flat[k : k + _SPHERE_WORDS])
                    for k in range(0, len(flat), _SPHERE_WORDS)
                ]
                shade = _trace_pixel(px, py, spheres)
                yield isa.Compute(4 * self.n_spheres)
                yield isa.Write(image.addr(p), shade)
            tiles_done += 1
            # Benign data race: publish progress; peek at a neighbor's.
            yield from ctx.racy_store(self.progress.addr(t), tiles_done)
            if tiles_done % 4 == 0:
                peer = (t + 1) % ctx.nthreads
                _ = yield from ctx.racy_load(self.progress.addr(peer))
        yield from ctx.barrier()

    def reference(self) -> np.ndarray:
        want = np.empty(self.n_pixels)
        for p in range(self.n_pixels):
            px = float(p % self.width) + 0.5
            py = float(p // self.width) + 0.5
            want[p] = _trace_pixel(px, py, self.spheres)
        return want

    def verify(self, machine: Machine) -> None:
        want = self.expected()
        got = np.array(
            [machine.read_word(self.image.addr(p)) for p in range(self.n_pixels)]
        )
        expect_close(self.image.name, got, want, rtol=1e-12, atol=1e-12)
        # The racy progress counters must each hold that thread's own final
        # tile count (last write wins; each cell has a single writer).
        total = sum(
            machine.read_word(self.progress.addr(t))
            for t in range(machine.num_threads)
        )
        expect(total == self.n_tiles, f"progress total {total} != {self.n_tiles}")
