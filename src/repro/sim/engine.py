"""Discrete-event simulation kernel.

A minimal, fast event wheel: callbacks scheduled at absolute times, executed
in time order (FIFO among equal times).  Cores, sync controllers, and the
message-passing layer all drive themselves by scheduling callbacks here.

The engine is *operation-level*: components compute an operation's latency
analytically from the modeled hierarchy and schedule a single completion
event, instead of simulating every cycle.  This is the substitution for the
paper's SESC cycle-level simulator (see DESIGN.md §2).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.common.errors import DeadlockError, SimulationError


class Engine:
    """Time-ordered callback executor with deadlock detection.

    The wheel is bucketed: callbacks are appended to a per-time list and a
    heap orders only the *distinct* times.  Equal-time callbacks run in
    scheduling order (the list is FIFO), exactly as the earlier
    ``(time, seq, callback)`` tuple heap did, but without allocating a
    tuple per event or comparing sequence numbers on every sift — barrier
    releases and back-to-back zero-delay steps share one bucket.
    """

    __slots__ = ("_now", "_seq", "_times", "_buckets", "_live_entities")

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        #: Min-heap of distinct pending times (each pushed exactly once).
        self._times: list[int] = []
        #: time -> FIFO list of callbacks scheduled for that time.
        self._buckets: dict[int, list[Callable[[], None]]] = {}
        #: Number of entities (cores) that have not finished their program.
        self._live_entities: int = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def register_entity(self) -> None:
        """Declare one more entity whose completion ends the simulation."""
        self._live_entities += 1

    def entity_finished(self) -> None:
        """Declare that one registered entity has run to completion."""
        if self._live_entities <= 0:
            raise SimulationError("entity_finished() without matching register")
        self._live_entities -= 1

    @property
    def live_entities(self) -> int:
        return self._live_entities

    @property
    def events_scheduled(self) -> int:
        """Total callbacks scheduled so far (the metrics hook point).

        Read once after :meth:`run` drains the queue — when it equals the
        number executed — so the observability layer costs the hot loop
        nothing.
        """
        return self._seq

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run *callback* at ``now + delay`` (delay in cycles, >= 0).

        *delay* is coerced with ``int()`` **before** the negativity check, so
        float delays (e.g. ``1.5`` from scaled latencies) truncate toward
        zero consistently — ``-0.5`` becomes a legal delay of 0 rather than
        raising — while non-numeric delays fail loudly with ``TypeError``.
        """
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        when = self._now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [callback]
            heapq.heappush(self._times, when)
        else:
            bucket.append(callback)

    def clear(self) -> None:
        """Drop every pending event (a run that stopped early leaves some)."""
        self._times.clear()
        self._buckets.clear()

    def run(self, max_cycles: int | None = None) -> int:
        """Drain the event queue; return the finishing time in cycles.

        Raises :class:`DeadlockError` if live entities remain when the queue
        empties — every blocked core must have a wakeup path (a sync grant or
        a message arrival), so an empty queue with live entities means the
        simulated program deadlocked (e.g. a barrier some thread never
        reaches).
        """
        # The pop loop is the simulator's innermost loop: bind the heap and
        # heappop locally and skip the max_cycles comparison entirely in the
        # (default) unbounded case.  A bucket may grow while it drains
        # (zero-delay callbacks land at the current time), so it is walked
        # by index and only removed from the dict once exhausted.
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        while times:
            time = heappop(times)
            if max_cycles is not None and time > max_cycles:
                raise SimulationError(
                    f"simulation exceeded max_cycles={max_cycles} "
                    f"(next event at {time})"
                )
            self._now = time
            bucket = buckets[time]
            i = 0
            while i < len(bucket):
                bucket[i]()
                i += 1
            del buckets[time]
        if self._live_entities > 0:
            raise DeadlockError(
                f"{self._live_entities} entities still blocked with no pending "
                "events — simulated program deadlocked"
            )
        return self._now
