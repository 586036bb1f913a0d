"""Verifiers raise with a message, and ``python -O`` keeps them.

A workload verifier or litmus oracle that fails must say what diverged.
They raise through :func:`repro.common.errors.expect`, never ``assert``:
``python -O`` strips assert statements, and a run that verifies nothing
then exits 0 on a wrong answer.  CI runs this module under
``python -O -m pytest`` too.
"""

from __future__ import annotations

import ast
import pathlib
import re

import numpy as np
import pytest

import repro.workloads
from repro.common.errors import expect, expect_close
from repro.core.config import INTER_HCC, INTRA_HCC
from repro.core.machine import Machine
from repro.eval.runner import stage
from repro.workloads.base import MODEL_ONE
from repro.workloads.litmus import LITMUS, machine_params, spawn_litmus

WORKLOADS = pathlib.Path(repro.workloads.__file__).parent

_CHECKED = sorted(name for name, k in LITMUS.items() if k.check is not None)


class _Corrupt:
    """A value no oracle expects, with a recognizable repr."""

    def __repr__(self) -> str:
        return "<corrupt>"


def test_no_assert_statement_under_workloads():
    found = [
        f"{path.relative_to(WORKLOADS)}:{node.lineno}"
        for path in sorted(WORKLOADS.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements (stripped by python -O): {found}"


def test_expect_raises_assertion_error_with_its_message():
    expect(True, "never formatted {}")
    with pytest.raises(AssertionError, match=r"^a\[3\] = 1, expected 2$"):
        expect(False, "a[{}] = {!r}, expected {!r}", 3, 1, 2)
    with pytest.raises(AssertionError, match=r"^plain \{\}$"):
        expect(False, "plain {}")


def test_expect_close_names_array_index_and_values():
    expect_close("a", [1.0, 2.0], [1.0, 2.0 + 1e-12], rtol=1e-9, atol=1e-9)
    want = np.zeros((2, 3))
    got = want.copy()
    got[1, 2] = 0.5
    got[1, 0] = -1.0
    with pytest.raises(AssertionError, match=re.escape(
        "m mismatch at flat index 3 [1, 0]: got -1.0, expected 0.0 "
        "(2 of 6 elements differ; rtol=1e-07, atol=1e-08)"
    )):
        expect_close("m", got, want, rtol=1e-7, atol=1e-8)


#: The arrays each SPLASH verifier compares, by workload attribute.
_SPLASH_ARRAYS = {
    "barnes": ("pos", "vel"),
    "cholesky": ("mat",),
    "fft": ("work",),
    "lu_cont": ("mat",),
    "lu_noncont": ("mat",),
    "ocean_cont": ("grid",),
    "ocean_noncont": ("grid",),
    "raytrace": ("image",),
    "volrend": ("image",),
    "water_nsq": ("pos", "vel"),
    "water_sp": ("pos", "vel"),
}


def test_splash_array_table_names_every_app():
    assert set(_SPLASH_ARRAYS) == set(MODEL_ONE)


@pytest.mark.parametrize("app", sorted(_SPLASH_ARRAYS))
def test_splash_verifier_names_array_index_and_values(app):
    """Corrupting the last element of each compared array fails the
    verifier with the array's name, that element's flat index, the
    observed value and the expected one."""
    staged = stage("intra", app, INTRA_HCC, scale=0.25)
    staged.run()  # the coherent outcome verifies
    workload, machine = staged.handle, staged.machine
    memory = machine.hier.memory
    for attr in _SPLASH_ARRAYS[app]:
        array = getattr(workload, attr)
        last = array.addr(*(n - 1 for n in array.shape))
        word = machine.hier.word_addr(last)
        good = memory.read_word(word)
        bad = good + 1 + abs(good)
        memory.write_word(word, bad)
        index = array.size - 1
        with pytest.raises(AssertionError, match=re.escape(
            f"{array.name} mismatch at flat index {index} "
        ) + r".*" + re.escape(f": got {bad!r}, expected ")) as exc:
            workload.verify(machine)
        expected = complex(str(exc.value).split("expected ")[1].split(" (")[0])
        assert abs(expected - good) <= 1e-6 * max(1.0, abs(good))
        memory.write_word(word, good)
    workload.verify(machine)


class _ReadLog(dict):
    """A final-memory dict that records which arrays a check reads."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.read: list[str] = []

    def __getitem__(self, name):
        self.read.append(name)
        return super().__getitem__(name)


def _outcome(kernel):
    """``(obs, mem)`` of one hardware-coherent run of *kernel*."""
    config = INTER_HCC if kernel.model == "inter" else INTRA_HCC
    machine = Machine(machine_params(kernel), config,
                      num_threads=kernel.threads)
    arrs, obs = spawn_litmus(kernel, machine)
    machine.run()
    return obs, {name: machine.read_array(a) for name, a in arrs.items()}


@pytest.mark.parametrize("name", _CHECKED)
def test_litmus_check_names_kernel_observed_and_expected(name):
    kernel = LITMUS[name]
    obs, mem = _outcome(kernel)
    log = _ReadLog(mem)
    kernel.check(obs, log)  # the oracle holds on the coherent outcome

    bad_obs = dict(obs)
    bad_obs[next(iter(obs))] = _Corrupt()
    with pytest.raises(AssertionError) as exc:
        kernel.check(bad_obs, mem)
    message = str(exc.value)
    assert name in message and "<corrupt>" in message
    expected = message.split("expected ", 1)[1]
    assert all(f"{k!r}: {v!r}" in expected for k, v in obs.items())

    for array in log.read:
        bad_mem = {**mem, array: [_Corrupt()] + mem[array][1:]}
        with pytest.raises(AssertionError) as exc:
            kernel.check(obs, bad_mem)
        message = str(exc.value)
        assert name in message and array in message and "<corrupt>" in message
        assert message.endswith(f"expected {mem[array]!r}")


def test_most_litmus_checks_read_final_memory():
    """The memory half of the test above is not vacuous."""
    reads = 0
    for name in _CHECKED:
        obs, mem = _outcome(LITMUS[name])
        log = _ReadLog(mem)
        LITMUS[name].check(obs, log)
        reads += bool(log.read)
    assert reads >= len(_CHECKED) - 2
