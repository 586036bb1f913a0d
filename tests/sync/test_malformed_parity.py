"""The simulator and the lint extractor reject the same malformed programs.

Both drive the ``repro.sync.primitives`` state machines, so a sync misuse
raises the same :class:`SyncError`, with the same message, from a
simulated run on either engine and from ``analysis.extract.extract()``.
"""

import pytest

from repro import Machine, intra_block_machine
from repro.analysis.extract import extract
from repro.common.errors import SyncError
from repro.core.config import INTRA_BASE
from repro.isa import ops as isa


def _reacquire(ctx):
    yield isa.LockAcquire(3)
    yield isa.LockAcquire(3)


def _foreign_release(ctx):
    # tid 0 takes the lock before the barrier; tid 1 releases it after.
    if ctx.tid == 0:
        yield isa.LockAcquire(3)
    yield isa.Barrier(0, 2)
    if ctx.tid == 1:
        yield isa.LockRelease(3)


def _flag_goes_down(ctx):
    yield isa.FlagSet(2, 5)
    yield isa.FlagSet(2, 3)


def _barrier_recounted(ctx):
    yield isa.Barrier(0, 1)
    yield isa.Barrier(0, 2)


MALFORMED = {
    "reacquire": (_reacquire, 1, "core 0 re-acquired a non-reentrant lock"),
    "foreign_release": (
        _foreign_release, 2, "core 1 released a lock held by 0",
    ),
    "flag_goes_down": (
        _flag_goes_down, 1, "flag values are monotonic (have 5, got 3)",
    ),
    "barrier_recounted": (
        _barrier_recounted, 1, "barrier 0 redeclared: count 2 != 1",
    ),
}


def _machine(program, threads, engine=None):
    machine = Machine(
        intra_block_machine(4), INTRA_BASE, num_threads=threads, engine=engine
    )
    machine.spawn_all(program)
    return machine


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("engine", ["ref", "fast"])
def test_simulated_run_raises_the_sync_error(name, engine):
    program, threads, message = MALFORMED[name]
    with pytest.raises(SyncError) as info:
        _machine(program, threads, engine).run()
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_extractor_raises_the_same_sync_error(name):
    program, threads, message = MALFORMED[name]
    with pytest.raises(SyncError) as info:
        extract(_machine(program, threads))
    assert str(info.value) == message
