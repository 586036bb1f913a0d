"""Property-based differential test: random programs, both engines.

Hypothesis generates small multithreaded programs over the whole batched
ISA — scalar and batch reads/writes, loop-chunk ``MapBatch`` macro-ops
(several assignments, stride-0 and gather reads, affine reads and
writes — all-range chunks run as line blocks — and per-iteration compute),
WB/INV annotations (range and ALL), MEB/IEB epochs, and compute delays —
and runs each program on the reference and the fast engine under the
same configuration, and a third time on the reference engine with every
batch instruction written out by hand as its documented scalar form.
Statistics, observed load values, and final memory must match
bit-for-bit.

This is the adversarial complement to ``test_equivalence``: the litmus
kernels and workloads exercise *sensible* programs, while Hypothesis
explores the weird corners (INV of dirty data, WB of clean lines, epochs
around batches, redundant annotations) where a fused fast path is most
likely to drift from the per-op reference.

The memory model is drawn from the registry too, so the same programs
run the fused loop through every model's hooks: rc acquire-epoch bumps
and region flushes, and sisd private→shared flips, landing in the
middle of batch macro-ops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import lint_machine
from repro.common.errors import AddressError, AnalysisError
from repro.common.params import WORD_BYTES, intra_block_machine
from repro.core.config import INTRA_BASE, INTRA_BMI, INTRA_HCC
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.models import available_models

NTHREADS = 3
NWORDS = 48  # three cache lines' worth of shared words

#: Instruction vocabulary.  Word indices are into the one shared array;
#: lengths are in words.  ("epoch", meb, ieb, body) wraps *body* in
#: EpochBegin/EpochEnd so MEB/IEB arming is always well-nested.
_idx = st.integers(min_value=0, max_value=NWORDS - 1)
_val = st.integers(min_value=0, max_value=999)
_idx_list = st.lists(_idx, min_size=1, max_size=6)


def _map_batch(n):
    """A ``map_batch`` of *n* iterations.

    Each assignment is ``(reads, write, constant)``; a read is an index
    list, a stride-0 ("fixed") index, an affine ``(start, stride)`` range,
    or a gather through an index list, and a write an index list or an
    affine range.  An assignment of one-word-stride ranges only is an
    affine chunk, which the fast engine runs a line block at a time.
    """
    idxs = st.lists(_idx, min_size=n, max_size=n)
    listed = st.tuples(st.just("list"), idxs)
    # One-word strides are drawn most often: they make line blocks.
    affine = st.tuples(st.just("affine"), st.integers(0, NWORDS - 10),
                       st.one_of(st.just(1), st.integers(1, 3)))
    read = st.one_of(
        listed,
        st.tuples(st.just("fixed"), _idx),
        affine,
        st.tuples(st.just("gather"), idxs),
    )
    assign = st.tuples(st.lists(read, max_size=3), st.one_of(listed, affine),
                       _val)
    return st.tuples(
        st.just("map_batch"), st.integers(0, 3), st.just(n),
        st.lists(assign, min_size=1, max_size=3), st.integers(0, 5),
    )


_plain_instr = st.one_of(
    st.tuples(st.just("read"), _idx),
    st.tuples(st.just("write"), _idx, _val),
    st.tuples(st.just("read_batch"), _idx_list),
    st.tuples(st.just("write_batch"), st.lists(st.tuples(_idx, _val),
                                               min_size=1, max_size=6)),
    st.integers(min_value=1, max_value=4).flatmap(_map_batch),
    st.tuples(st.just("wb"), _idx, st.integers(min_value=1, max_value=16)),
    st.tuples(st.just("inv"), _idx, st.integers(min_value=1, max_value=16)),
    st.tuples(st.just("wb_all"), st.booleans()),
    st.just(("inv_all",)),
    st.tuples(st.just("compute"), st.integers(min_value=1, max_value=20)),
)

_instr = st.one_of(
    _plain_instr,
    st.tuples(st.just("epoch"), st.booleans(), st.booleans(),
              st.lists(_plain_instr, min_size=1, max_size=4)),
)

_program = st.lists(_instr, min_size=1, max_size=12)
_programs = st.lists(_program, min_size=NTHREADS, max_size=NTHREADS)

#: Coherence annotations and epochs only exist on the incoherent configs;
#: under HCC they are filtered out (identically for both engines).
_INCOHERENT_ONLY = {"wb", "inv", "wb_all", "inv_all", "epoch"}


def _emit(instr, arr, obs, scalar=False):
    """Yield the ISA ops for one instruction tuple; record loads in *obs*.

    With *scalar*, each batch instruction is written out as the scalar
    ``Read``/``Write`` sequence its docstring in :mod:`repro.isa.ops`
    defines it to be.
    """
    kind = instr[0]
    if kind == "read":
        obs.append((yield isa.Read(arr.addr(instr[1]))))
    elif kind == "write":
        yield isa.Write(arr.addr(instr[1]), instr[2])
    elif kind == "read_batch":
        addrs = [arr.addr(i) for i in instr[1]]
        if scalar:
            for a in addrs:
                obs.append((yield isa.Read(a)))
        else:
            obs.extend((yield isa.ReadBatch(addrs)))
    elif kind == "write_batch":
        addrs = [arr.addr(i) for i, _ in instr[1]]
        values = [v for _, v in instr[1]]
        if scalar:
            for a, v in zip(addrs, values):
                yield isa.Write(a, v)
        else:
            yield isa.WriteBatch(addrs, values)
    elif kind == "map_batch":
        _, lo, n, assigns, compute = instr
        body = _map_body(assigns, n, arr)
        if scalar:
            for k, i in enumerate(range(lo, lo + n)):
                for fn, reads, writes in body:
                    vals = []
                    for r in reads:
                        if isinstance(r, isa.Gather):
                            index = yield isa.Read(r.index_addrs[k])
                            vals.append((yield isa.Read(r.addr_of(int(index)))))
                        else:
                            vals.append((yield isa.Read(r[k])))
                    yield isa.Write(writes[k], fn(i, *vals))
                if compute:
                    yield isa.Compute(compute)
        else:
            yield isa.MapBatch(lo, lo + n, body, compute)
    elif kind == "wb":
        yield isa.WB(arr.addr(instr[1]), instr[2] * WORD_BYTES)
    elif kind == "inv":
        yield isa.INV(arr.addr(instr[1]), instr[2] * WORD_BYTES)
    elif kind == "wb_all":
        yield isa.WBAll(via_meb=instr[1])
    elif kind == "inv_all":
        yield isa.INVAll()
    elif kind == "compute":
        yield isa.Compute(instr[1])
    elif kind == "epoch":
        yield isa.EpochBegin(record_meb=instr[1], ieb_mode=instr[2])
        for sub in instr[3]:
            yield from _emit(sub, arr, obs, scalar)
        yield isa.EpochEnd()


def _map_body(assigns, n, arr):
    """The ``MapBatch`` body an instruction's assignments describe.

    A gather wraps its loaded index into the array, so whatever the
    other threads stored there, the data read stays in range.
    """
    def wrapped(value):
        return arr.addr(value % NWORDS)

    def seq(read):
        kind = read[0]
        if kind == "list":
            return tuple(arr.addr(i) for i in read[1])
        if kind == "fixed":
            return (arr.addr(read[1]),) * n
        if kind == "affine":
            base, step = arr.addr(read[1]), read[2] * WORD_BYTES
            return range(base, base + step * n, step)
        return isa.Gather(tuple(arr.addr(i) for i in read[1]), wrapped)

    return tuple(
        (lambda i, *vals, c=c: (7 * i + sum(vals) + c) % 1000,
         tuple(seq(r) for r in reads), seq(write))
        for reads, write, c in assigns
    )


def _run(programs, config, engine, model=None, scalar=False):
    """One deterministic run; returns (stats dict, observations, memory).

    *scalar* issues every batch instruction in its scalar form.
    """
    coherent = config.hardware_coherent
    machine = Machine(
        intra_block_machine(4), config, num_threads=NTHREADS, engine=engine,
        model=model,
    )
    arr = machine.array("a", NWORDS)
    obs: dict[int, list] = {}

    def make_program(instrs, tid):
        def program(ctx):
            mine = obs.setdefault(tid, [])
            for instr in instrs:
                if coherent and instr[0] in _INCOHERENT_ONLY:
                    continue
                yield from _emit(instr, arr, mine, scalar)
        return program

    for tid, instrs in enumerate(programs):
        machine.spawn(make_program(instrs, tid))
    stats = machine.run()
    return stats.to_dict(), obs, machine.read_array(arr)


def _configs_for(model):
    """Table II configs a model runs under: HCC for hcc, incoherent else."""
    if model == "hcc":
        return [INTRA_HCC]
    return [INTRA_BASE, INTRA_BMI]


_model_cells = st.sampled_from(available_models()).flatmap(
    lambda m: st.tuples(st.just(m), st.sampled_from(_configs_for(m)))
)


@settings(max_examples=60, deadline=None)
@given(programs=_programs, cell=_model_cells)
def test_random_programs_engine_equivalent(programs, cell):
    model, config = cell
    ref = _run(programs, config, "ref", model)
    fast = _run(programs, config, "fast", model)
    assert fast == ref
    # Batch ≡ scalar: the batch forms mean exactly their documented
    # scalar sequences.
    assert _run(programs, config, "ref", model, scalar=True) == ref


def _mid_batch_program(tid, arr):
    """Batches that cross another thread's lines and an acquire boundary."""
    mine = [tid * 16 + i for i in range(16)]
    theirs = [((tid + 1) % NTHREADS) * 16 + i for i in range(16)]

    def program(ctx):
        yield isa.WriteBatch([arr.addr(i) for i in mine], list(range(16)))
        yield isa.Compute(50 * (tid + 1))
        # Reads of the neighbour's lines flip them shared under sisd.
        yield isa.ReadBatch([arr.addr(i) for i in mine[:4] + theirs])
        yield isa.WBAll()
        yield isa.INVAll()
        # Lines filled before the INV ALL are stale under rc: the batch
        # mixes lazy refreshes with locally dirty (hence fresh) words.
        yield isa.Write(arr.addr(mine[0]), 99)
        add = tuple(arr.addr(i) for i in mine[:8])
        yield isa.MapBatch(0, 8, ((lambda i, v: v + 1, (add,), add),))
        yield isa.MapBatch(0, 4, ((
            lambda i, v: v,
            (tuple(arr.addr(i) for i in theirs[:4]),),
            tuple(arr.addr(i) for i in mine[8:12]),
        ),))
        yield isa.WBAll()

    return program


def _run_mid_batch(model, engine, config=INTRA_BASE):
    machine = Machine(intra_block_machine(4), config,
                      num_threads=NTHREADS, engine=engine, model=model)
    arr = machine.array("a", NWORDS)
    for tid in range(NTHREADS):
        machine.spawn(_mid_batch_program(tid, arr))
    stats = machine.run()
    return machine, stats.to_dict(), machine.read_array(arr)


def test_model_transitions_mid_batch_engine_equivalent():
    """The differential above reaches each model's slow paths mid-batch."""
    counters = {
        ("rc", INTRA_BASE): ("rc_lazy_refreshes", "rc_region_wb_lines"),
        ("sisd", INTRA_BASE): ("sisd_transitions", "sisd_self_invalidations"),
        # Writes to lines a neighbour has read are S→M upgrades, which the
        # fused loop hands to MESI's write mid-batch.
        ("hcc", INTRA_HCC): ("dir_invalidations",),
    }
    for (model, config), names in counters.items():
        _, ref_stats, ref_mem = _run_mid_batch(model, "ref", config)
        machine, fast_stats, fast_mem = _run_mid_batch(model, "fast", config)
        assert machine.cpu_loop == "fused"
        assert (fast_stats, fast_mem) == (ref_stats, ref_mem)
        for name in names:
            assert ref_stats[name] > 0, (model, name)


def _map_epoch_program(tid, arr):
    """``MapBatch`` words on every fused slow path, deterministically.

    Each thread owns one line of ``arr`` and the fourth line is spare.
    In an MEB/IEB epoch, chunk E's first assignment gathers through the
    thread's own line, read before the epoch (an IEB refresh), and
    reads, first of all threads but its owner, the next thread's line
    (a sisd flip and a delegated fill), then stores into that clean line
    (L1 hits the MEB must record).  Its second assignment stores into
    the spare line, which other threads store into too (sisd flips on
    stores).  After a barrier, in a second MEB epoch, chunk F's lone
    store fills the previous thread's line, which this core never held,
    inline: the only MEB record and rc region write of that line.  After
    an INV ALL, chunk G reads the next thread's line back in and stores
    L1 hits into it, which rc's region write-back must flush.
    """
    mine = [tid * 16 + i for i in range(16)]
    theirs = [((tid + 1) % NTHREADS) * 16 + i for i in range(16)]
    prev = ((tid - 1) % NTHREADS) * 16
    spare = 3 * 16 + 4 * tid

    def addrs(idxs):
        return tuple(arr.addr(i) for i in idxs)

    def program(ctx):
        yield isa.WriteBatch(addrs(mine), list(range(16)))
        yield isa.WBAll()
        yield isa.INVAll()
        yield isa.Read(arr.addr(mine[0]))
        yield isa.EpochBegin(record_meb=True, ieb_mode=True)
        yield isa.MapBatch(0, 4, (
            (lambda i, v, w: v + w + i,
             (addrs(theirs[12:16]),
              isa.Gather(addrs(mine[:4]),
                         lambda v: arr.addr(theirs[12 + int(v) % 4]))),
             addrs(theirs[8:12])),
            (lambda i: 10 * tid + i, (), addrs(range(spare, spare + 4))),
        ), 3)
        yield isa.WBAll(via_meb=True)
        yield isa.EpochEnd()
        yield isa.Barrier(0, NTHREADS)
        yield isa.EpochBegin(record_meb=True)
        yield isa.MapBatch(0, 1, ((lambda i: 7, (), addrs([prev + 6])),))
        yield isa.WBAll(via_meb=True)
        yield isa.EpochEnd()
        yield isa.INVAll()
        yield isa.MapBatch(0, 4, (
            (lambda i, v: 2 * v, (addrs(theirs[8:12]),), addrs(theirs[8:12])),
        ))
        yield isa.WBAll()

    return program


@pytest.mark.parametrize("model,config", [
    ("base", INTRA_BMI), ("rc", INTRA_BMI), ("rc", INTRA_BASE),
    ("sisd", INTRA_BMI),
], ids=lambda v: getattr(v, "name", v))
def test_map_batch_slow_paths_engine_equivalent(model, config):
    """Both engines agree on ``MapBatch`` words that refresh, fill, flip,
    record in the MEB, or join rc's region write set."""
    runs = []
    for engine in ("ref", "fast"):
        machine = Machine(intra_block_machine(4), config,
                          num_threads=NTHREADS, engine=engine, model=model)
        arr = machine.array("a", 4 * 16)
        for tid in range(NTHREADS):
            machine.spawn(_map_epoch_program(tid, arr))
        runs.append((machine.run().to_dict(), machine.read_array(arr)))
    assert machine.cpu_loop == "fused"
    assert runs[1] == runs[0]


#: A lone store, scalar or as a one-word run.
_STORES = {
    "write": lambda addr, value: isa.Write(addr, value),
    "write_batch": lambda addr, value: isa.WriteBatch((addr,), (value,)),
}


def _lone_fill_program(tid, arr, store):
    """An MEB epoch whose only store to a line is an inline L2 fill.

    Each thread writes its own line back to L2; after a barrier, in an
    MEB epoch, it stores one word of the previous thread's line, which
    its core never held.  That store is the line's only MEB record, so
    the epoch's MEB write-back flushes it only if the fill recorded it.
    After a second barrier each thread reads the word stored into its own
    line.
    """
    mine = tid * 16
    prev = ((tid - 1) % NTHREADS) * 16

    def program(ctx):
        yield isa.WriteBatch(tuple(arr.addr(mine + i) for i in range(16)),
                             tuple(range(16)))
        yield isa.WBAll()
        yield isa.Barrier(0, NTHREADS)
        yield isa.EpochBegin(record_meb=True)
        yield store(arr.addr(prev + 6), 100 + tid)
        yield isa.WBAll(via_meb=True)
        yield isa.EpochEnd()
        yield isa.Barrier(0, NTHREADS)
        yield isa.INVAll()
        yield isa.Read(arr.addr(mine + 6))

    return program


@pytest.mark.parametrize("store", sorted(_STORES))
@pytest.mark.parametrize("model,config", [
    ("base", INTRA_BMI), ("rc", INTRA_BMI), ("sisd", INTRA_BMI),
], ids=lambda v: getattr(v, "name", v))
def test_lone_store_fill_records_in_meb_engine_equivalent(model, config, store):
    """Both engines record a ``Write``/``WriteBatch`` inline fill in the MEB."""
    runs = []
    for engine in ("ref", "fast"):
        machine = Machine(intra_block_machine(4), config,
                          num_threads=NTHREADS, engine=engine, model=model)
        arr = machine.array("a", 3 * 16)
        for tid in range(NTHREADS):
            machine.spawn(_lone_fill_program(tid, arr, _STORES[store]))
        runs.append((machine.run().to_dict(), machine.read_array(arr)))
    assert machine.cpu_loop == "fused"
    assert runs[1] == runs[0]


def _copy(i, value):
    return value


#: Ill-formed batches, keyed by their shape: a store run (three addresses,
#: two values), a ``map_batch`` copy (three sources, two destinations) and
#: accumulate (three reads, two writes) over three iterations, and a
#: ``map_batch`` whose ``hi`` is below its ``lo`` (empty sequences).
_MISMATCHED = {
    "st_batch": lambda a: isa.WriteBatch(a[:3], [1, 2]),
    "copy_batch": lambda a: isa.MapBatch(0, 3, ((_copy, (a[:3],), a[3:5]),)),
    "add_batch": lambda a: isa.MapBatch(
        0, 3, ((lambda i, v: v + 1, (a[:3],), a[:2]),)
    ),
    "hi_below_lo": lambda a: isa.MapBatch(3, 1, ((_copy, ((),), ()),)),
}


def _one_thread_machine(ops, engine="ref"):
    """A one-thread machine whose program yields ``ops(arr, addrs)``."""
    machine = Machine(intra_block_machine(4), INTRA_BASE, num_threads=1,
                      engine=engine)
    arr = machine.array("a", NWORDS)
    issued = ops(arr, [arr.addr(i) for i in range(8)])

    def program(ctx):
        for op in issued:
            yield op

    machine.spawn(program)
    return machine


def _mismatched_machine(shape, engine="ref"):
    return _one_thread_machine(lambda arr, a: [_MISMATCHED[shape](a)], engine)


def _failure(run):
    """``(type, message)`` of the exception *run* raises."""
    with pytest.raises(Exception) as exc:
        run()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("mnemonic", sorted(_MISMATCHED))
@pytest.mark.parametrize("engine", ["ref", "fast"])
def test_mismatched_batch_lengths_fail_the_run(mnemonic, engine):
    ref = _failure(_mismatched_machine(mnemonic).run)
    assert ref[0] is ValueError
    assert _failure(_mismatched_machine(mnemonic, engine).run) == ref


@pytest.mark.parametrize("mnemonic", sorted(_MISMATCHED))
def test_mismatched_batch_lengths_fail_lint(mnemonic):
    """Lint names the batch op and repeats the engines' message."""
    _, message = _failure(_mismatched_machine(mnemonic).run)
    op_name = _MISMATCHED[mnemonic](list(range(8))).mnemonic
    assert _failure(lambda: lint_machine(_mismatched_machine(mnemonic))) == (
        AnalysisError, f"{op_name}: {message}"
    )


def _bad_gather(arr, a):
    """A gather whose loaded index is one past the array's end."""
    return [
        isa.Write(a[0], NWORDS),
        isa.MapBatch(0, 1, ((_copy, (isa.Gather(a[:1], arr.addr),), a[1:2]),)),
    ]


def test_out_of_range_gather_fails_everywhere():
    """The data read's ``SharedArray.addr`` raises on ref, fast and lint."""
    want = (AddressError, f"a[{NWORDS}] out of range ({NWORDS},)")
    assert _failure(_one_thread_machine(_bad_gather).run) == want
    assert _failure(_one_thread_machine(_bad_gather, "fast").run) == want
    assert _failure(lambda: lint_machine(_one_thread_machine(_bad_gather))) \
        == want
