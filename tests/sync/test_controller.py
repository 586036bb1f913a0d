"""Tests for the sync controller (queued, uncacheable, in the shared cache)."""

import pytest

from repro.common.errors import SyncError
from repro.common.params import inter_block_machine, intra_block_machine
from repro.noc.mesh import Mesh
from repro.sim.engine import Engine
from repro.sim.stats import MachineStats, TrafficCat
from repro.sync.controller import SyncController


def make(machine=None):
    machine = machine or intra_block_machine(4)
    engine = Engine()
    stats = MachineStats.for_cores(machine.num_cores)
    ctl = SyncController(Mesh(machine), engine, stats)
    return ctl, engine, stats


def test_lock_grant_roundtrip_has_latency():
    ctl, engine, _ = make()
    granted_at = []
    ctl.lock_acquire(1, 0, lambda: granted_at.append(engine.now))
    engine.run()
    assert granted_at and granted_at[0] > 0


def test_lock_mutual_exclusion_and_handoff():
    ctl, engine, _ = make()
    order = []

    def hold(core, lid):
        def on_grant():
            order.append(("grant", core, engine.now))
            # Hold the lock for 10 cycles, then release.
            engine.schedule(10, lambda: ctl.lock_release(core, lid, lambda: None))

        return on_grant

    ctl.lock_acquire(0, 7, hold(0, 7))
    ctl.lock_acquire(1, 7, hold(1, 7))
    engine.run()
    grants = sorted(t for kind, _, t in order if kind == "grant")
    assert len(grants) == 2
    # Mutual exclusion: the second grant happens after the first holder's
    # 10-cycle hold completed (grant order itself depends on mesh distance).
    assert grants[1] >= grants[0] + 10


def test_barrier_releases_all_at_completion():
    ctl, engine, _ = make()
    released = []
    for core in range(4):
        ctl.barrier_arrive(core, 0, 4, lambda c=core: released.append((c, engine.now)))
    engine.run()
    assert sorted(c for c, _ in released) == [0, 1, 2, 3]
    times = [t for _, t in released]
    # Nobody is released before the last arrival.
    assert min(times) > 0


def test_barrier_count_mismatch_rejected():
    ctl, engine, _ = make()
    ctl.barrier_arrive(0, 0, 4, lambda: None)
    with pytest.raises(SyncError):
        ctl.barrier_arrive(1, 0, 8, lambda: None)


def test_flag_wakes_waiters_in_value_order():
    ctl, engine, _ = make()
    woken = []
    ctl.flag_wait(0, 3, 1, lambda: woken.append((0, engine.now)))
    ctl.flag_wait(1, 3, 2, lambda: woken.append((1, engine.now)))
    engine.schedule(50, lambda: ctl.flag_set(2, 3, 1, lambda: None))
    engine.schedule(100, lambda: ctl.flag_set(2, 3, 2, lambda: None))
    engine.run()
    assert [c for c, _ in woken] == [0, 1]
    assert woken[0][1] < woken[1][1]


def test_flag_wait_already_satisfied():
    ctl, engine, _ = make()
    done = []
    ctl.flag_set(0, 9, 5, lambda: None)
    engine.run()
    ctl.flag_wait(1, 9, 5, lambda: done.append(engine.now))
    engine.run()
    assert done


def test_release_is_fire_and_forget():
    ctl, engine, _ = make()
    resumed = []
    ctl.lock_acquire(0, 1, lambda: None)
    engine.run()
    ctl.lock_release(0, 1, lambda: resumed.append(engine.now))
    start = engine.now
    engine.run()
    # The releaser resumes after ~1 cycle, not a full round trip.
    assert resumed[0] - start <= 2


def test_sync_messages_counted_as_sync_traffic():
    ctl, engine, stats = make()
    ctl.lock_acquire(0, 0, lambda: None)
    engine.run()
    assert stats.traffic[TrafficCat.SYNC] >= 2  # request + grant
    assert stats.traffic[TrafficCat.INVALIDATION] == 0


def test_inter_machine_uses_l3_banks():
    ctl, engine, _ = make(inter_block_machine(2, 2))
    assert ctl._at_l3
    granted = []
    ctl.lock_acquire(0, 0, lambda: granted.append(engine.now))
    engine.run()
    assert granted


def test_lock_holder_inspection():
    ctl, engine, _ = make()
    ctl.lock_acquire(2, 5, lambda: None)
    engine.run()
    assert ctl.lock_holder(5) == 2
    assert ctl.lock_holder(99) is None
    assert ctl.flag_value(123) == 0
