"""2D mesh interconnect model (Table III: 4 cycles/hop, 128-bit links).

Tiles are laid out row-major on the smallest square that fits all cores; each
tile hosts one core and one L2 bank.  L3 banks and the off-chip memory
controllers sit at the four chip corners.  Latency between tiles is Manhattan
distance times the per-hop cost; traffic is counted in 128-bit flits with the
header riding the first flit.

Contention is not modeled — the paper's evaluation attributes differences to
event counts and hierarchy levels, not link occupancy (DESIGN.md §2).
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.params import MachineParams, MeshParams


class Mesh:
    """Topology and latency calculator for one chip."""

    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.params: MeshParams = machine.mesh
        self.dim = machine.mesh_dim
        if self.dim < 1:
            raise ConfigError("mesh must have at least one tile")
        corners = [
            (0, 0),
            (0, self.dim - 1),
            (self.dim - 1, 0),
            (self.dim - 1, self.dim - 1),
        ]
        self._corner_tiles = corners
        self._l3_tiles = [
            corners[i % len(corners)] for i in range(machine.num_l3_banks)
        ]
        # Optional fault injector (repro.faults); None = no hook overhead.
        self.faults = None
        # Geometry is static, so all tile coordinates and fault-free
        # latencies are precomputed.  The tables hold exactly what the
        # formula-based helpers below produce with no injector armed; the
        # helpers consult them only in that case, so armed runs still take
        # the hooked path (NoC jitter applies per message, not per table).
        self._tiles = [divmod(c, self.dim) for c in range(machine.num_cores)]
        cph = self.params.cycles_per_hop
        self._core_l2_lat = [
            [self._hops(a, b) * cph for b in self._tiles] for a in self._tiles
        ]
        self._core_l3_lat = [
            [self._hops(a, b) * cph for b in self._l3_tiles]
            for a in self._tiles
        ]
        self._nearest_corner = {
            tile: min(corners, key=lambda t: self._hops(tile, t))
            for tile in set(self._tiles)
        }

    @staticmethod
    def _hops(a: tuple[int, int], b: tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    # -- tile coordinates ---------------------------------------------------

    def core_tile(self, core_id: int) -> tuple[int, int]:
        if not 0 <= core_id < self.machine.num_cores:
            raise ConfigError(f"core {core_id} out of range")
        return self._tiles[core_id]

    def l2_bank_tile(self, bank: int) -> tuple[int, int]:
        """L2 banks are co-located with cores (one bank per core)."""
        return self.core_tile(bank)

    def l3_bank_tile(self, bank: int) -> tuple[int, int]:
        if not 0 <= bank < len(self._l3_tiles):
            raise ConfigError(f"L3 bank {bank} out of range")
        return self._l3_tiles[bank]

    def mem_controller_tile(self, which: int = 0) -> tuple[int, int]:
        """Off-chip memory attaches at each chip corner."""
        return self._corner_tiles[which % 4]

    def nearest_mem_tile(self, from_tile: tuple[int, int]) -> tuple[int, int]:
        corner = self._nearest_corner.get(from_tile)
        if corner is not None:
            return corner
        return min(self._corner_tiles, key=lambda t: self._hops(from_tile, t))

    # -- latency ------------------------------------------------------------

    def hops_between(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def latency(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """One-way network latency in cycles between two tiles."""
        hops = self.hops_between(a, b)
        lat = hops * self.params.cycles_per_hop
        if self.faults is not None and hops:
            # Same-tile messages traverse no link, so only hop-crossing
            # messages are jitter/link-down opportunities.
            lat += self.faults.noc_delay(hops, self.params.cycles_per_hop)
        return lat

    def core_to_l2(self, core_id: int, bank: int) -> int:
        if self.faults is None:
            return self._core_l2_lat[core_id][bank]
        return self.latency(self.core_tile(core_id), self.l2_bank_tile(bank))

    def core_to_l3(self, core_id: int, bank: int) -> int:
        if self.faults is None:
            return self._core_l3_lat[core_id][bank]
        return self.latency(self.core_tile(core_id), self.l3_bank_tile(bank))

    def core_to_core(self, a: int, b: int) -> int:
        return self.latency(self.core_tile(a), self.core_tile(b))

    def avg_hops(self) -> float:
        """Mean hop count between distinct tiles (used by calibration)."""
        tiles = [self.core_tile(c) for c in range(self.machine.num_cores)]
        total = n = 0
        for i, a in enumerate(tiles):
            for b in tiles[i + 1 :]:
                total += self.hops_between(a, b)
                n += 1
        return total / n if n else 0.0

    # -- traffic ------------------------------------------------------------

    def flits(self, payload_bytes: int) -> int:
        return self.params.flits(payload_bytes)

    def control_flits(self) -> int:
        """A control message (request, ack, invalidation) is one flit."""
        return 1

    def data_flits(self, payload_bytes: int) -> int:
        """Data message: header flit plus payload flits."""
        link = self.params.link_bytes
        return 1 + (payload_bytes + link - 1) // link
