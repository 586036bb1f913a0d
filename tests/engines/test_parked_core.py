"""A core parked at a sync op, on the fast engine's per-core loop.

On ``fast`` each core runs one fused loop for its whole program: a
generator that binds its locals and its two per-word rules once, parks
at every sync op and resumes when the sync controller releases the core.
While it is parked, other cores change what it bound: they invalidate
or downgrade its lines, flip its private lines to shared, and its own
epoch ops may have armed or disarmed its IEB before it parked.

Each case runs on ``ref`` and on ``fast``.  Statistics, every value a
thread loaded and final memory must match bit-for-bit, and ``fast`` must
have taken the fused loop.  The first op after each resume is a
``ReadBatch``, so its values travel through a resumed loop's ``send``.
"""

from __future__ import annotations

import pytest

from repro.common.params import WORD_BYTES, intra_block_machine
from repro.core.config import INTRA_BASE, INTRA_BI, INTRA_BMI, INTRA_HCC
from repro.core.machine import Machine
from repro.engines.fastcpu import FastCPU
from repro.isa import ops as isa

WORDS = 16  # words per 64-byte line
NWORDS = 4 * WORDS


def _words(arr, first, n):
    """Byte addresses of words ``first .. first + n - 1`` of *arr*."""
    return range(arr.addr(first), arr.addr(first) + n * WORD_BYTES, WORD_BYTES)


def _drive(ops, obs):
    """Issue *ops*, sending each result back and recording it."""
    result = None
    while True:
        try:
            op = ops.send(result)
        except StopIteration:
            return
        result = yield op
        if result is not None:
            obs.append(result)


def _run(case, engine):
    """``(stats, loaded values, final memory)`` of one run of *case*."""
    machine = Machine(
        intra_block_machine(4), case["config"], num_threads=2, engine=engine,
        model=case.get("model"),
    )
    arr = machine.array("a", NWORDS)
    obs: dict[int, list] = {}
    for tid, program in enumerate(case["programs"]):
        def run(ctx, program=program, tid=tid):
            yield from _drive(program(arr), obs.setdefault(tid, []))
        machine.spawn(run)
    stats = machine.run()
    if engine == "fast":
        assert machine.cpu_loop == "fused"
    return stats.to_dict(), obs, machine.read_array(arr)


# -- MESI: the other core invalidates and downgrades the parked core's lines --


def _mesi_owner(arr):
    yield isa.WriteBatch(_words(arr, 0, 4), range(1, 5))  # line 0 in M
    yield isa.Read(arr.addr(WORDS))  # line 1 in E
    yield isa.Barrier(0, 2)
    # Parked: the peer invalidates line 1 and downgrades line 0 to S.
    yield isa.Barrier(1, 2)
    yield isa.ReadBatch(_words(arr, 0, 4))
    yield isa.Read(arr.addr(WORDS + 1))  # the peer's store, refetched
    yield isa.Write(arr.addr(2), 30)  # S: the upgrade, not an inline store
    yield isa.Write(arr.addr(3), 40)  # M again: inline


def _mesi_peer(arr):
    yield isa.Barrier(0, 2)
    yield isa.Read(arr.addr(1))  # forwards the owner's M line
    yield isa.Write(arr.addr(WORDS + 1), 21)  # invalidates the E copy
    yield isa.Barrier(1, 2)
    yield isa.ReadBatch(_words(arr, 0, 4))


# -- sisd: the lock holder flips the waiter's private line to shared ---------


def _sisd_waiter(arr):
    yield isa.Compute(50)  # the peer takes the lock first
    yield isa.WriteBatch(_words(arr, 0, 3), (1, 2, 3))  # line 0: private
    yield isa.LockAcquire(0)
    # Parked on the lock while the holder touches line 0.
    yield isa.ReadBatch(_words(arr, 0, 3))
    yield isa.Write(arr.addr(4), 5)
    yield isa.WBAll()
    yield isa.LockRelease(0)


def _sisd_holder(arr):
    yield isa.LockAcquire(0)
    yield isa.Compute(400)  # the waiter writes and queues meanwhile
    yield isa.Read(arr.addr(1))  # the flip: recovery on the waiter's copy
    yield isa.Write(arr.addr(WORDS), 9)
    yield isa.WBAll()
    yield isa.LockRelease(0)


# -- IEB: armed before one park, disarmed before the next ---------------------


def _ieb_reader(arr):
    yield isa.ReadBatch(_words(arr, 0, 2))  # line 0 resident
    yield isa.EpochBegin(record_meb=True, ieb_mode=True)
    yield isa.Barrier(0, 2)
    # Parked in an armed epoch while the peer publishes word 0.
    yield isa.Barrier(1, 2)
    yield isa.ReadBatch(_words(arr, 0, 2))  # armed: refresh, then IEB hit
    yield isa.Write(arr.addr(2), 7)
    yield isa.EpochEnd()
    yield isa.Barrier(2, 2)
    # Parked disarmed while the peer publishes word 1 again.
    yield isa.Barrier(3, 2)
    yield isa.ReadBatch(_words(arr, 0, 3))  # disarmed: plain (stale) hits


def _ieb_writer(arr):
    yield isa.Barrier(0, 2)
    yield isa.WriteBatch(_words(arr, 0, 2), (11, 12))
    yield isa.WBAll()
    yield isa.Barrier(1, 2)
    yield isa.Barrier(2, 2)
    yield isa.Write(arr.addr(1), 13)
    yield isa.WBAll()
    yield isa.Barrier(3, 2)
    yield isa.ReadBatch(_words(arr, 0, 3))


# -- rc: an acquire epoch bumped before the park ------------------------------


def _rc_reader(arr):
    yield isa.ReadBatch(_words(arr, 0, 2))
    yield isa.INVAll()  # the rc acquire: every line filled so far is stale
    yield isa.Barrier(0, 2)
    yield isa.ReadBatch(_words(arr, 0, 2))  # lazy refreshes
    yield isa.Read(arr.addr(WORDS))


def _rc_writer(arr):
    yield isa.WriteBatch(_words(arr, 0, 2), (3, 4))
    yield isa.WBAll()
    yield isa.Barrier(0, 2)
    yield isa.ReadBatch(_words(arr, 0, 2))


CASES = {
    "mesi_invalidate": {"programs": (_mesi_owner, _mesi_peer),
                        "config": INTRA_HCC},
    "sisd_flip_on_lock": {"programs": (_sisd_waiter, _sisd_holder),
                          "config": INTRA_BASE, "model": "sisd"},
    "ieb_arm_disarm": {"programs": (_ieb_reader, _ieb_writer),
                       "config": INTRA_BI},
    "ieb_arm_disarm_meb": {"programs": (_ieb_reader, _ieb_writer),
                           "config": INTRA_BMI},
    "rc_acquire": {"programs": (_rc_reader, _rc_writer),
                   "config": INTRA_BASE, "model": "rc"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_parked_core_engine_equivalent(name):
    case = CASES[name]
    assert _run(case, "fast") == _run(case, "ref")


def test_cases_reach_what_they_are_named_after():
    """Each case changes what the parked core bound (checked on ``ref``)."""
    stats, obs, _ = _run(CASES["mesi_invalidate"], "ref")
    assert stats["dir_invalidations"] > 0 and stats["dir_forwards"] > 0
    assert obs[0][-2:] == [[1, 2, 3, 4], 21]
    stats, _, _ = _run(CASES["sisd_flip_on_lock"], "ref")
    assert stats["sisd_transitions"] > 0
    assert stats["per_core"][0]["stalls"]["lock_stall"] > 0
    # Armed: the refreshed line shows the peer's words.  Disarmed: the
    # resident line still holds word 1 as the armed epoch refreshed it.
    _, obs, _ = _run(CASES["ieb_arm_disarm"], "ref")
    assert obs[0][1:] == [[11, 12], [11, 12, 7]]
    stats, obs, _ = _run(CASES["rc_acquire"], "ref")
    assert stats["rc_lazy_refreshes"] > 0
    assert obs[0][1] == [3, 4]


def test_each_core_binds_its_loop_once(monkeypatch):
    """One fused loop per core, resumed at every sync op, not rebuilt."""
    made, resumed = [], []
    fused_loop = FastCPU._fused_loop

    def counting(self, proto, hooks):
        made.append(self.core_id)
        for _ in fused_loop(self, proto, hooks):
            resumed.append(self.core_id)
            yield

    monkeypatch.setattr(FastCPU, "_fused_loop", counting)
    _run(CASES["ieb_arm_disarm"], "fast")
    assert sorted(made) == [0, 1]
    assert sorted(resumed) == [0] * 4 + [1] * 4  # four barriers each
