"""Synchronization controller in the shared-cache controller (Section III-D).

Machines without hardware coherence cannot spin on cached flags, so — like
Tera, RP3, and Cedar — synchronization lives in the memory system: when a
synchronization variable is declared, the controller of the shared cache
allocates a synchronization-table entry, intercepts requests, and responds
only when the requester may proceed.  All requests are uncacheable.

Timing: a request pays the one-way mesh latency to the controller bank plus
a fixed service time; the response pays the return trip when it is finally
sent.  Synchronization variables are interleaved across shared-cache banks
by ID (L2 banks intra-block; L3 banks when the machine has an L3, since
inter-block synchronization must be visible chip-wide).
"""

from __future__ import annotations

from typing import Callable

from repro.noc.mesh import Mesh
from repro.sim.engine import Engine
from repro.sim.stats import TrafficCat, MachineStats
from repro.sync.primitives import SyncTable

#: Fixed controller occupancy per request (cycles).
SERVICE_CYCLES = 3


class SyncController:
    """Queued barrier/lock/flag service attached to shared-cache banks."""

    def __init__(
        self,
        mesh: Mesh,
        engine: Engine,
        stats: MachineStats,
        *,
        tracer=None,
        metrics=None,
    ) -> None:
        self.mesh = mesh
        self.engine = engine
        self.stats = stats
        #: Observability sinks (:mod:`repro.obs`); ``None`` means disabled.
        self.tracer = tracer
        self.metrics = metrics
        self.table = SyncTable()
        # Per-(lid, core) arrival floor enforcing FIFO delivery on each
        # core's lock-message channel.  Release is fire-and-forget, so
        # without this a jittered release (armed fault runs) could be
        # overtaken in flight by the same core's next acquire and trip the
        # non-reentrancy check.  Fault-free runs give every message on a
        # channel the same travel time, so the clamp never binds there.
        self._lock_channel_floor: dict[tuple[int, int], int] = {}
        machine = mesh.machine
        self._at_l3 = machine.num_l3_banks > 0
        self._num_banks = machine.num_l3_banks if self._at_l3 else machine.num_cores
        # Fault-free one-way latency table (static geometry, like the
        # hierarchy's tables); armed runs take the formula path below.
        self._one_way_lat = [
            [
                mesh.latency(mesh.core_tile(c), self._bank_tile(b))
                for b in range(self._num_banks)
            ]
            for c in range(machine.num_cores)
        ]

    # -- placement / latency ---------------------------------------------------

    def _bank_tile(self, bank: int) -> tuple[int, int]:
        if self._at_l3:
            return self.mesh.l3_bank_tile(bank)
        return self.mesh.l2_bank_tile(bank)

    def _one_way(self, core: int, var_id: int) -> int:
        if self.mesh.faults is None:
            return self._one_way_lat[core][var_id % self._num_banks]
        return self.mesh.latency(
            self.mesh.core_tile(core), self._bank_tile(var_id % self._num_banks)
        )

    def _count_msg(self) -> None:
        # Synchronization requests are uncacheable control flits, tracked
        # apart from coherence traffic (see TrafficCat.SYNC).
        self.stats.add_traffic(TrafficCat.SYNC, 1)

    def _obs_grant(self, what: str, core: int) -> None:
        """Trace one grant message leaving the controller (engine-timed)."""
        if self.tracer is not None:
            self.tracer.emit(
                "sync", core, op=f"{what}_grant", cycle=self.engine.now
            )
        if self.metrics is not None:
            self.metrics.inc(f"sync.grants.{what}")

    # -- operations -----------------------------------------------------------------
    #
    # Every operation takes a `resume` callback invoked (via the engine) when
    # the requester may continue.  The caller measures its own stall time.
    # `self.table` decides who is granted; `_request` and `_grant` send.

    def _request(
        self,
        what: str,
        core: int,
        var_id: int,
        at_controller: Callable[[], None],
        lock: bool = False,
    ) -> None:
        """Send one request message; *at_controller* runs on its arrival."""
        travel = self._one_way(core, var_id) + SERVICE_CYCLES
        if lock:
            travel = self._lock_travel(core, var_id, travel)
        self._count_msg()
        if self.metrics is not None:
            self.metrics.inc(f"sync.requests.{what}")
        self.engine.schedule(travel, at_controller)

    def _grant(
        self, what: str, var_id: int, core: int, resume: Callable[[], None]
    ) -> None:
        """Send one grant message back to *core*, which then resumes."""
        self._count_msg()
        self._obs_grant(what, core)
        self.engine.schedule(self._one_way(core, var_id), resume)

    def barrier_arrive(
        self, core: int, bid: int, count: int, resume: Callable[[], None]
    ) -> None:
        barrier = self.table.barrier(bid, count)

        def at_controller() -> None:
            for waiter in barrier.arrive(core, resume) or ():
                self._grant("barrier", bid, *waiter)

        self._request("barrier", core, bid, at_controller)

    def _lock_travel(self, core: int, lid: int, travel: int) -> int:
        """Clamp *travel* so (core -> lock lid) messages arrive in order."""
        arrival = max(
            self.engine.now + travel,
            self._lock_channel_floor.get((lid, core), 0),
        )
        self._lock_channel_floor[(lid, core)] = arrival
        return arrival - self.engine.now

    def lock_acquire(self, core: int, lid: int, resume: Callable[[], None]) -> None:
        lock = self.table.lock(lid)

        def at_controller() -> None:
            if lock.acquire(core, resume):
                self._grant("lock", lid, core, resume)
            # else: queued; the release path sends the grant.

        self._request("lock_acquire", core, lid, at_controller, lock=True)

    def lock_release(self, core: int, lid: int, resume: Callable[[], None]) -> None:
        lock = self.table.lock(lid)

        def at_controller() -> None:
            nxt = lock.release(core)
            if nxt is not None:
                self._grant("lock", lid, *nxt)

        self._request("lock_release", core, lid, at_controller, lock=True)
        # The releaser does not wait for the controller: fire-and-forget.
        self.engine.schedule(1, resume)

    def flag_set(
        self, core: int, fid: int, value: int, resume: Callable[[], None]
    ) -> None:
        flag = self.table.flag(fid)

        def at_controller() -> None:
            for waiter in flag.set(value):
                self._grant("flag", fid, *waiter)

        self._request("flag_set", core, fid, at_controller)
        self.engine.schedule(1, resume)

    def flag_wait(
        self, core: int, fid: int, threshold: int, resume: Callable[[], None]
    ) -> None:
        flag = self.table.flag(fid)

        def at_controller() -> None:
            if flag.wait(core, threshold, resume):
                self._grant("flag", fid, core, resume)

        self._request("flag_wait", core, fid, at_controller)

    # -- inspection -------------------------------------------------------------------

    def lock_holder(self, lid: int) -> int | None:
        lock = self.table.locks.get(lid)
        return lock.holder if lock else None

    def flag_value(self, fid: int) -> int:
        flag = self.table.flags.get(fid)
        return flag.value if flag else 0
