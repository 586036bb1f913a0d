"""The per-process memo of Model-1 reference outputs.

``ModelOneWorkload.expected()`` computes each workload's sequential
reference once per (class, bound constructor arguments) and hands every
later cell the same read-only value.  These tests pin down that sharing
the reference never shares a verdict: a cell whose own memory is wrong
still fails after a clean cell primed the memo.  They also pin the key
(one entry per distinct input, one per spelling of the same input) and
that memoized values cannot be written through.
"""

import numpy as np
import pytest

from repro import Machine, intra_block_machine
from repro.core.config import INTRA_BMI
from repro.workloads import MODEL_ONE, base
from repro.workloads.splash import (
    FFT,
    Barnes,
    LUContiguous,
    OceanContiguous,
    Volrend,
    WaterNSquared,
)

from tests.workloads.test_splash import SMALL_SCALE

#: One output word per app: (array attribute, element index).
OUTPUT_WORD = {
    "barnes": ("pos", (3,)),
    "cholesky": ("mat", (5, 2)),
    "fft": ("work", (7,)),
    "lu_cont": ("mat", (4, 6)),
    "lu_noncont": ("mat", (4, 6)),
    "ocean_cont": ("grid", (5, 5)),
    "ocean_noncont": ("grid", (5, 5)),
    "raytrace": ("image", (100,)),
    "volrend": ("image", (3,)),
    "water_nsq": ("vel", (2,)),
    "water_sp": ("pos", (2,)),
}


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test starts from, and leaves behind, its own empty memo."""
    memo: dict = {}
    monkeypatch.setattr(base, "_REFERENCES", memo)
    return memo


def _run_cell(app):
    machine = Machine(intra_block_machine(4), INTRA_BMI, num_threads=4)
    workload = MODEL_ONE[app](scale=SMALL_SCALE[app])
    workload.prepare(machine)
    machine.run()
    return workload, machine


def _perturb(machine, array, idx):
    """Change one word of *array* in main memory by more than any tolerance."""
    word = machine.hier.word_addr(array.addr(*idx))
    v = machine.hier.memory.read_word(word)
    machine.hier.memory.write_word(word, v + 1.0 + abs(v))


def _primed_second_cell(app, fresh_memo):
    clean, machine = _run_cell(app)
    clean.verify(machine)
    assert clean.memo_key in fresh_memo
    return _run_cell(app)


@pytest.mark.parametrize("app", sorted(MODEL_ONE))
def test_primed_memo_still_catches_a_wrong_word(app, fresh_memo):
    assert set(OUTPUT_WORD) == set(MODEL_ONE)
    workload, machine = _primed_second_cell(app, fresh_memo)
    attr, idx = OUTPUT_WORD[app]
    _perturb(machine, getattr(workload, attr), idx)
    with pytest.raises(AssertionError):
        workload.verify(machine)


def test_primed_memo_still_checks_raytrace_progress(fresh_memo):
    workload, machine = _primed_second_cell("raytrace", fresh_memo)
    _perturb(machine, workload.progress, (1,))
    with pytest.raises(AssertionError, match="progress total"):
        workload.verify(machine)


@pytest.mark.parametrize("app", ["ocean_cont", "ocean_noncont"])
def test_primed_memo_still_checks_ocean_error_sum(app, fresh_memo):
    workload, machine = _primed_second_cell(app, fresh_memo)
    _perturb(machine, workload.err, (0,))
    with pytest.raises(AssertionError, match="error-sum"):
        workload.verify(machine)


def test_memo_is_filled_lazily(fresh_memo):
    workload = MODEL_ONE["volrend"](scale=0.5)
    machine = Machine(intra_block_machine(4), INTRA_BMI, num_threads=4)
    workload.prepare(machine)
    assert fresh_memo == {}
    workload.expected()
    assert list(fresh_memo) == [workload.memo_key]


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize(
    "one, other",
    [
        (lambda: FFT(n=64), lambda: FFT(n=128)),
        (lambda: Barnes(0.5, steps=1), lambda: Barnes(0.5, steps=2)),
        (lambda: LUContiguous(n=24, block=4), lambda: LUContiguous(n=24, block=6)),
        (lambda: WaterNSquared(n_mol=32), lambda: WaterNSquared(n_mol=40)),
        (lambda: OceanContiguous(0.5, iters=1), lambda: OceanContiguous(0.5, iters=2)),
        (lambda: Volrend(scale=0.5), lambda: Volrend(scale=0.6)),
    ],
    ids=["fft-n", "barnes-steps", "lu-block", "water-n_mol", "ocean-iters", "scale"],
)
def test_each_argument_gets_its_own_correct_entry(one, other, fresh_memo):
    a, b = one(), other()
    assert a.memo_key != b.memo_key
    got_a, got_b = a.expected(), b.expected()
    assert len(fresh_memo) == 2
    assert _same(got_a, a.reference())
    assert _same(got_b, b.reference())
    assert got_a is not got_b
    # A second instance with the same inputs hits the entry.
    assert one().expected() is got_a


def test_spellings_of_the_same_arguments_share_one_entry(fresh_memo):
    spellings = [
        FFT(),
        FFT(1.0),
        FFT(scale=1.0),
        FFT(1.0, None),
        FFT(n=None, scale=1.0),
    ]
    assert len({w.memo_key for w in spellings}) == 1
    values = [w.expected() for w in spellings]
    assert len(fresh_memo) == 1
    assert all(v is values[0] for v in values)
    assert LUContiguous(0.5, None, 9).memo_key == LUContiguous(scale=0.5).memo_key


def test_memoized_values_are_read_only(fresh_memo):
    want = FFT(n=64).expected()
    with pytest.raises(ValueError):
        want[0] = 0
    x, v = Barnes(0.5).expected()
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        v += 1.0
    grid, err = OceanContiguous(0.5).expected()
    with pytest.raises(ValueError):
        grid[1, 1] = 0.0
    assert isinstance(OceanContiguous(0.5).expected(), tuple)
    assert isinstance(err, float)
