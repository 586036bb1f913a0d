"""State machines for the three synchronization primitives (Section III-D).

The shared-cache controller queues synchronization requests and responds only
when the requester may proceed: lock requests are granted FIFO, barrier
requests are answered when the last participant arrives, and condition-flag
waits are answered when the flag value reaches the requested threshold.
These classes are pure state (no timing) and the only statement of who is
granted, in what order, and which use is an error: :mod:`repro.sync.controller`
adds placement and latency, and the lint extractor steps them in SC order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import SyncError

#: A waiter is (core id, resume callback); the controller schedules the call.
#: The lint extractor passes ``None`` and wakes its threads by id.
Resume = Callable[[], None] | None
Waiter = tuple[int, Resume]


@dataclass
class LockState:
    """FIFO-queued mutual exclusion."""

    holder: int | None = None
    queue: deque[Waiter] = field(default_factory=deque)

    def acquire(self, core: int, resume: Resume) -> bool:
        """Try to take the lock; returns True when granted immediately."""
        if self.holder is None:
            self.holder = core
            return True
        if self.holder == core:
            raise SyncError(f"core {core} re-acquired a non-reentrant lock")
        self.queue.append((core, resume))
        return False

    def release(self, core: int) -> Waiter | None:
        """Release; returns the next waiter to grant, if any."""
        if self.holder != core:
            raise SyncError(
                f"core {core} released a lock held by {self.holder!r}"
            )
        if self.queue:
            nxt_core, resume = self.queue.popleft()
            self.holder = nxt_core
            return (nxt_core, resume)
        self.holder = None
        return None


@dataclass
class BarrierState:
    """Counting barrier over a fixed participant count, reusable across phases."""

    count: int
    arrived: list[Waiter] = field(default_factory=list)
    generation: int = 0

    def arrive(self, core: int, resume: Resume) -> list[Waiter] | None:
        """Register arrival; returns the full waiter list when complete."""
        if self.count < 1:
            raise SyncError("barrier participant count must be >= 1")
        if any(c == core for c, _ in self.arrived):
            raise SyncError(f"core {core} arrived twice at the same barrier phase")
        self.arrived.append((core, resume))
        if len(self.arrived) == self.count:
            released = self.arrived
            self.arrived = []
            self.generation += 1
            return released
        return None


@dataclass
class FlagState:
    """Monotonic condition variable: waiters resume once value >= threshold."""

    value: int = 0
    waiters: list[tuple[int, int, Resume]] = field(default_factory=list)

    def set(self, value: int) -> list[Waiter]:
        """Raise the flag value; returns waiters now satisfied."""
        if value < self.value:
            raise SyncError(
                f"flag values are monotonic (have {self.value}, got {value})"
            )
        self.value = value
        ready = [(c, r) for c, th, r in self.waiters if th <= value]
        self.waiters = [(c, th, r) for c, th, r in self.waiters if th > value]
        return ready

    def wait(self, core: int, threshold: int, resume: Resume) -> bool:
        """True when already satisfied; otherwise queue the waiter."""
        if self.value >= threshold:
            return True
        self.waiters.append((core, threshold, resume))
        return False


class SyncTable:
    """A run's synchronization variables, each created on first use."""

    def __init__(self) -> None:
        self.locks: dict[int, LockState] = {}
        self.barriers: dict[int, BarrierState] = {}
        self.flags: dict[int, FlagState] = {}

    def lock(self, lid: int) -> LockState:
        lock = self.locks.get(lid)
        if lock is None:
            lock = self.locks[lid] = LockState()
        return lock

    def flag(self, fid: int) -> FlagState:
        flag = self.flags.get(fid)
        if flag is None:
            flag = self.flags[fid] = FlagState()
        return flag

    def barrier(self, bid: int, count: int) -> BarrierState:
        """Barrier *bid*; every use must give its first use's count."""
        bar = self.barriers.get(bid)
        if bar is None:
            bar = self.barriers[bid] = BarrierState(count)
        elif bar.count != count:
            raise SyncError(f"barrier {bid} redeclared: count {count} != {bar.count}")
        return bar
