"""Line blocks: affine ``MapBatch`` chunks on the fast engine.

A chunk whose every read and write column is a one-word-stride ``range``
runs a line block at a time on ``fast``: each column's L1 line is looked
up once per block, not once per word, and any iteration a block cannot
serve (a miss, an IEB refresh, an rc stale word, a sisd flip, a MESI E/S
store) goes through the per-word path.

Each case below runs three times: on ``ref``, on ``fast``, and on ``ref``
with every chunk written out as the scalar ``Read``/``Write``/``Compute``
sequence its docstring defines.  Statistics, loaded values and final
memory must match bit-for-bit.  A fourth run, ``fast`` on the written-out
form, counts the L1 lookups the per-word path makes: the batch run must
make fewer, or the case never reached a block.
"""

from __future__ import annotations

import pytest

from repro.common.params import (
    WORD_BYTES,
    BufferParams,
    intra_block_machine,
)
from repro.core.config import INTRA_BASE, INTRA_BI, INTRA_BM, INTRA_BMI, INTRA_HCC
from repro.core.machine import Machine
from repro.isa import ops as isa

WORDS = 16  # words per 64-byte line
#: Each of the two threads owns four lines; line 8 is shared.
REGION = 4 * WORDS
NWORDS = 2 * REGION + WORDS
#: Lines this many lines apart share an L1 set (128 sets).
SET_STRIDE = 128 * WORDS


class _CountingIndex(dict):
    """A ``PackedCache._index`` that counts its ``get`` calls."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


def _col(arr, first, n):
    """Byte addresses of words ``first .. first + n - 1`` of *arr*."""
    start = arr.addr(first)
    return range(start, start + n * WORD_BYTES, WORD_BYTES)


def _mix(i, *vals):
    return (7 * i + 3 * sum(vals)) % 1000


def _written_out(op):
    """*op*'s documented scalar sequence (affine columns only)."""
    for k, i in enumerate(range(op.lo, op.hi)):
        for fn, reads, writes in op.body:
            vals = []
            for col in reads:
                vals.append((yield isa.Read(col[k])))
            yield isa.Write(writes[k], fn(i, *vals))
        if op.compute:
            yield isa.Compute(op.compute)


def _drive(ops, scalar, obs):
    """Issue *ops*, sending each result back and recording loaded values;
    with *scalar*, each ``MapBatch`` is issued written out."""
    result = None
    while True:
        try:
            op = ops.send(result)
        except StopIteration:
            return
        if scalar and type(op) is isa.MapBatch:
            result = yield from _written_out(op)
        else:
            result = yield op
        if result is not None:
            obs.append(result)


def _run(case, engine, scalar=False):
    """One run of *case*: ``(result, trace)``.

    *result* is what both engines must agree on: statistics, loaded
    values and final memory.  *trace* (``fast`` only) is what only the
    packed cache shows: L1 lookups, the MEB's recording order, and the
    final LRU stamps.
    """
    machine = Machine(
        intra_block_machine(4, buffers=case.get("buffers")), case["config"],
        num_threads=case.get("threads", 2), engine=engine,
        model=case.get("model"),
    )
    arr = machine.array("a", case.get("words", NWORDS))
    obs: dict[int, list] = {}
    for tid in range(machine.num_threads):
        def program(ctx, tid=tid):
            yield from _drive(case["program"](tid, arr), scalar,
                              obs.setdefault(tid, []))
        machine.spawn(program)
    l1s = machine.hier.l1s
    records = []
    if engine == "fast":
        for l1 in l1s:
            l1._index = _CountingIndex(l1._index)
        for core, meb in enumerate(getattr(machine.protocol, "mebs", ())):
            _spy_on(meb, core, records)
    stats = machine.run()
    result = (stats.to_dict(), obs, machine.read_array(arr))
    if engine != "fast":
        return result, None
    assert machine.cpu_loop == "fused"
    lookups = sum(l1._index.lookups for l1 in l1s)
    stamps = [(l1._stamp, list(l1._stamps)) for l1 in l1s]
    return result, (lookups, records, stamps)


def _spy_on(meb, core, records):
    """Log each ``(core, line)`` *meb* records, in recording order."""
    record_write = meb.record_write

    def spy(line_id):
        if meb.recording and not meb.overflowed and not meb._mask >> line_id & 1:
            records.append((core, line_id))
        record_write(line_id)

    meb.record_write = spy


def _warm(tid, arr):
    """Fill and dirty the thread's region, then write it back clean."""
    base = REGION * tid
    yield isa.WriteBatch(_col(arr, base, REGION),
                         [(tid * 100 + k) % 1000 for k in range(REGION)])
    yield isa.WBAll()
    yield isa.Barrier(0, 2)


def _in_place(tid, arr):
    """Read lines that are also the write line: every block iterates."""
    base = REGION * tid
    yield from _warm(tid, arr)
    yield isa.MapBatch(0, 40, ((
        _mix, (_col(arr, base + 1, 40), _col(arr, base + 2, 40)),
        _col(arr, base + 1, 40),
    ),))
    yield isa.MapBatch(5, 45, ((
        _mix, (_col(arr, base + 3, 40),), _col(arr, base + 4, 40),
    ),), 2)
    yield isa.WBAll()


def _two_assignments(tid, arr):
    """The second assignment reads what the first just stored."""
    base = REGION * tid
    yield from _warm(tid, arr)
    yield isa.MapBatch(0, 30, (
        (_mix, (_col(arr, base + 2, 30),), _col(arr, base + 33, 30)),
        (_mix, (_col(arr, base + 33, 30), _col(arr, base + 1, 30)),
         _col(arr, base + 2, 30)),
    ), 3)
    yield isa.WBAll()


def _phases(tid, arr):
    """Jacobi's columns: neighbours at ``k - 1``, ``k``, ``k + 1``, and a
    row below, each crossing lines at its own iteration; then the
    neighbour thread's region after a write-back/self-invalidate pair."""
    base = REGION * tid
    other = REGION * (1 - tid)
    yield from _warm(tid, arr)
    yield isa.MapBatch(1, 31, ((
        _mix,
        (_col(arr, base, 30), _col(arr, base + 1, 30),
         _col(arr, base + 2, 30), _col(arr, base + 17, 30)),
        _col(arr, base + 33, 30),
    ),))
    yield isa.WBAll()
    yield isa.Barrier(1, 2)
    yield isa.INVAll()
    yield isa.MapBatch(0, 31, ((
        _mix, (_col(arr, other + 15, 31), _col(arr, other + 33, 31)),
        _col(arr, base + 1, 31),
    ),))
    yield isa.WBAll()


def _miss_evict(tid, arr):
    """One thread.  The read column enters a cold line mid-chunk; its fill
    evicts the write column's next line from their shared L1 set, so the
    per-word row refills it before blocks resume."""
    w1 = 1 * SET_STRIDE  # write column's lines: set 0, then set 1
    yield isa.WriteBatch(_col(arr, w1, 2 * WORDS), [5] * (2 * WORDS))
    for k in (2, 3, 4):  # three more lines in set 1, newer than w1's
        yield isa.Read(arr.addr(k * SET_STRIDE + WORDS))
    yield isa.Read(arr.addr(0))  # the read column's first line; its
    # second line (set 1) is cold
    yield isa.MapBatch(0, 2 * WORDS, ((
        _mix, (_col(arr, 0, 2 * WORDS),), _col(arr, w1, 2 * WORDS),
    ),), 1)
    yield isa.WBAll()


def _cold_lines(tid, arr):
    """The neighbour's lines and the stored lines are cold: each is a miss
    mid-chunk, and blocks resume across the line boundaries after it."""
    base = REGION * tid
    other = REGION * (1 - tid)
    yield from _warm(tid, arr)
    yield isa.MapBatch(0, 60, ((
        _mix, (_col(arr, base + 2, 60), _col(arr, other + 3, 60)),
        _col(arr, 2 * REGION + 2 * tid, 60),
    ),))
    yield isa.WBAll()


def _armed(tid, arr):
    """An IEB-armed epoch: a dirty word read before its line is refreshed
    (a hit), refreshes, and more lines than the four-entry IEB holds."""
    base = REGION * tid
    other = REGION * (1 - tid)
    yield from _warm(tid, arr)
    yield isa.EpochBegin(ieb_mode=True)
    yield isa.Write(arr.addr(base + 20), 11)
    yield isa.MapBatch(0, 40, ((
        _mix, (_col(arr, base + 20, 40), _col(arr, other + 8, 40)),
        _col(arr, base + 1, 40),
    ),))
    yield isa.MapBatch(0, 24, ((
        _mix, (_col(arr, base + 16, 24), _col(arr, other, 24)),
        _col(arr, base + 40, 24),
    ),))
    yield isa.WBAll()
    yield isa.EpochEnd()


def _rc_stale(tid, arr):
    """Lines filled before an acquire are stale under rc: a locally dirty
    word still reads as a hit, a clean one pays the lazy refresh."""
    base = REGION * tid
    other = REGION * (1 - tid)
    yield from _warm(tid, arr)
    yield isa.ReadBatch(_col(arr, other, REGION))
    yield isa.Barrier(1, 2)
    yield isa.INVAll()
    yield isa.Write(arr.addr(base + 5), 1)
    yield isa.MapBatch(0, 40, ((
        _mix, (_col(arr, base + 5, 40), _col(arr, other + 2, 40)),
        _col(arr, base + 4, 40),
    ),))
    yield isa.MapBatch(0, 30, ((
        _mix, (_col(arr, other + 20, 30),), _col(arr, base + 33, 30),
    ),))
    yield isa.WBAll()


def _sisd_flip(tid, arr):
    """Each thread reads into the other's private lines mid-chunk."""
    base = REGION * tid
    other = REGION * (1 - tid)
    yield from _warm(tid, arr)
    yield isa.MapBatch(0, 48, ((
        _mix, (_col(arr, base + 8, 48), _col(arr, other + 16, 48)),
        _col(arr, base + 9, 48),
    ),))
    yield isa.WBAll()
    yield isa.Barrier(1, 2)
    yield isa.INVAll()
    yield isa.MapBatch(0, 32, ((
        _mix, (_col(arr, other + 1, 32),), _col(arr, base + 30, 32),
    ),))
    yield isa.WBAll()


def _mesi_upgrades(tid, arr):
    """Stores into lines held in E (own region) and S (the shared line):
    each store line's first store goes to MESI, the rest run in blocks."""
    base = REGION * tid
    shared = 2 * REGION
    yield isa.ReadBatch(_col(arr, base, REGION))
    yield isa.ReadBatch(_col(arr, shared, WORDS))
    yield isa.Barrier(0, 2)
    yield isa.MapBatch(0, 40, ((
        _mix, (_col(arr, base + 20, 40),), _col(arr, base + 2, 40),
    ),))
    yield isa.MapBatch(0, 8, ((
        _mix, (), _col(arr, shared + 8 * tid, 8),
    ),))


def _meb_overflow(tid, arr):
    """A two-entry MEB: two stored lines fill it and the third overflows.
    The first store column's line already holds dirty words, so its first
    clean→dirty store comes after the second column's."""
    base = REGION * tid
    yield from _warm(tid, arr)
    yield isa.WriteBatch(_col(arr, base + 32, 2), [1, 2])  # before the epoch
    yield isa.EpochBegin(record_meb=True)
    yield isa.MapBatch(0, 14, (
        (_mix, (_col(arr, base + 2, 14),), _col(arr, base + 32, 14)),
        (_mix, (), _col(arr, base + 16, 14)),
    ))
    yield isa.MapBatch(0, 30, ((
        _mix, (_col(arr, base + 1, 30),), _col(arr, base + 33, 30),
    ),))
    yield isa.WBAll(via_meb=True)
    yield isa.EpochEnd()


CASES = {
    "in_place": {"program": _in_place, "config": INTRA_BASE},
    "two_assignments": {"program": _two_assignments, "config": INTRA_BMI},
    "phases_base": {"program": _phases, "config": INTRA_BASE},
    "phases_bmi": {"program": _phases, "config": INTRA_BMI},
    "phases_rc": {"program": _phases, "config": INTRA_BMI, "model": "rc"},
    "phases_sisd": {"program": _phases, "config": INTRA_BMI,
                    "model": "sisd"},
    "cold_lines": {"program": _cold_lines, "config": INTRA_BASE,
                   "words": 3 * REGION},
    "miss_evict": {"program": _miss_evict, "config": INTRA_BASE,
                   "threads": 1, "words": 5 * SET_STRIDE},
    "ieb_armed": {"program": _armed, "config": INTRA_BI},
    "rc_stale": {"program": _rc_stale, "config": INTRA_BASE, "model": "rc"},
    "sisd_flip": {"program": _sisd_flip, "config": INTRA_BASE,
                  "model": "sisd"},
    "mesi_e_s": {"program": _mesi_upgrades, "config": INTRA_HCC},
    "meb_overflow": {"program": _meb_overflow, "config": INTRA_BM,
                     "buffers": BufferParams(meb_entries=2)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_line_blocks_engine_equivalent(name):
    case = CASES[name]
    ref, _ = _run(case, "ref")
    fast, (lookups, records, stamps) = _run(case, "fast")
    assert fast == ref
    assert _run(case, "ref", scalar=True)[0] == ref
    # The per-word path on the written-out chunks: same results, same MEB
    # order and LRU stamps, and more lookups (so the chunks ran in blocks).
    per_word, (word_lookups, word_records, word_stamps) = _run(
        case, "fast", scalar=True
    )
    assert per_word == ref
    assert (records, stamps) == (word_records, word_stamps)
    assert lookups < word_lookups


def test_slow_path_counters_are_reached():
    """The cases reach the paths they are named after (on ``ref``)."""
    want = {
        "ieb_armed": "ieb_evictions",
        "rc_stale": "rc_lazy_refreshes",
        "sisd_flip": "sisd_transitions",
        "mesi_e_s": "dir_invalidations",
        "meb_overflow": "meb_overflow_events",
    }
    for name, counter in want.items():
        assert _run(CASES[name], "ref")[0][0][counter] > 0, (name, counter)
    # Six warm-up misses, the cold read line, and the write line it evicted.
    stats = _run(CASES["miss_evict"], "ref")[0][0]
    assert stats["per_core"][0]["l1_misses"] == 8


def _raising(tid, arr):
    def fn(i, value):
        if i == 21:
            raise ZeroDivisionError(f"iteration {i}")
        return value
    yield from _warm(tid, arr)
    yield isa.MapBatch(0, 40, ((
        fn, (_col(arr, REGION * tid, 40),), _col(arr, REGION * tid + 8, 40),
    ),))


@pytest.mark.parametrize("engine", ["ref", "fast"])
def test_raising_fn_fails_the_run(engine):
    with pytest.raises(ZeroDivisionError, match="iteration 21"):
        _run({"program": _raising, "config": INTRA_BASE}, engine)


def test_affine_chunk_looks_up_each_line_once_per_column():
    """A warm, line-aligned 64-iteration copy: 4 lines x 2 columns."""
    machine = Machine(intra_block_machine(4), INTRA_BASE, num_threads=1,
                      engine="fast")
    arr = machine.array("a", 8 * WORDS)
    src, dst = _col(arr, 0, 64), _col(arr, 64, 64)
    l1 = machine.hier.l1s[machine.placement.core_of(0)]
    index = l1._index = _CountingIndex(l1._index)
    counted = []

    def program(ctx):
        yield isa.ReadBatch(src)
        yield isa.WriteBatch(dst, [0] * 64)
        before = index.lookups
        yield isa.MapBatch(0, 64, ((lambda i, v: v + i, (src,), dst),))
        counted.append(index.lookups - before)
        yield isa.ReadBatch(dst)

    machine.spawn(program)
    machine.run()
    assert machine.cpu_loop == "fused"
    assert counted == [8]
    assert machine.read_array(arr)[64:] == [i for i in range(64)]
