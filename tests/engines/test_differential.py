"""Property-based differential test: random programs, both engines.

Hypothesis generates small multithreaded programs over the whole batched
ISA — scalar and batch reads/writes, interleaved copy/accumulate
macro-ops, WB/INV annotations (range and ALL), MEB/IEB epochs, and
compute delays — and runs each program on the reference and the fast
engine under the same configuration, and a third time on the reference
engine with every batch instruction written out as its documented scalar
form.  Statistics, observed load values, and final memory must match
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
from repro.common.errors import AnalysisError
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

_plain_instr = st.one_of(
    st.tuples(st.just("read"), _idx),
    st.tuples(st.just("write"), _idx, _val),
    st.tuples(st.just("read_batch"), _idx_list),
    st.tuples(st.just("write_batch"), st.lists(st.tuples(_idx, _val),
                                               min_size=1, max_size=6)),
    st.tuples(st.just("copy_batch"), _idx_list, _idx_list),
    st.tuples(st.just("add_batch"), st.lists(st.tuples(_idx, _val),
                                             min_size=1, max_size=6)),
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
    elif kind == "copy_batch":
        n = min(len(instr[1]), len(instr[2]))
        srcs = [arr.addr(i) for i in instr[1][:n]]
        dsts = [arr.addr(i) for i in instr[2][:n]]
        if scalar:
            for src, dst in zip(srcs, dsts):
                v = yield isa.Read(src)
                yield isa.Write(dst, v)
        else:
            yield isa.CopyBatch(srcs, dsts)
    elif kind == "add_batch":
        addrs = [arr.addr(i) for i, _ in instr[1]]
        deltas = [d for _, d in instr[1]]
        if scalar:
            for a, d in zip(addrs, deltas):
                v = yield isa.Read(a)
                yield isa.Write(a, v + d)
        else:
            yield isa.AddBatch(addrs, deltas)
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
        yield isa.AddBatch([arr.addr(i) for i in mine[:8]], [1] * 8)
        yield isa.CopyBatch([arr.addr(i) for i in theirs[:4]],
                            [arr.addr(i) for i in mine[8:12]])
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


#: Batches whose paired sequences differ in length (three addresses, two
#: values/destinations/deltas).
_MISMATCHED = {
    "st_batch": lambda a: isa.WriteBatch(a[:3], [1, 2]),
    "copy_batch": lambda a: isa.CopyBatch(a[:3], a[3:5]),
    "add_batch": lambda a: isa.AddBatch(a[:3], [1, 2]),
}


def _mismatched_machine(mnemonic, engine="ref"):
    machine = Machine(intra_block_machine(4), INTRA_BASE, num_threads=1,
                      engine=engine)
    arr = machine.array("a", NWORDS)
    op = _MISMATCHED[mnemonic]([arr.addr(i) for i in range(8)])

    def program(ctx):
        yield op

    machine.spawn(program)
    return machine


@pytest.mark.parametrize("mnemonic", sorted(_MISMATCHED))
@pytest.mark.parametrize("engine", ["ref", "fast"])
def test_mismatched_batch_lengths_fail_the_run(mnemonic, engine):
    with pytest.raises(ValueError):
        _mismatched_machine(mnemonic, engine).run()


@pytest.mark.parametrize("mnemonic", sorted(_MISMATCHED))
def test_mismatched_batch_lengths_fail_lint(mnemonic):
    with pytest.raises(AnalysisError, match=mnemonic):
        lint_machine(_mismatched_machine(mnemonic))
