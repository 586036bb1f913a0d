"""Which CPU loop a run took, as recorded on ``Machine.cpu_loop``.

The fast engine runs L1 hits in a fused loop and falls back to the
per-op reference loop for instrumented runs.  A fallback must never be
silent: an engine differential in which "fast" quietly runs the
reference loop compares that loop with itself.
"""

from __future__ import annotations

import pytest

from repro.coherence.incoherent import IncoherentProtocol
from repro.common.params import intra_block_machine
from repro.core.config import INTRA_BASE, INTRA_BMI, INTRA_HCC
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.models import software_models
from repro.obs.metrics import Metrics
from repro.obs.trace import Tracer


def _run(config, engine, *, model=None, **kwargs):
    machine = Machine(intra_block_machine(2), config, num_threads=2,
                      engine=engine, model=model, **kwargs)
    arr = machine.array("a", 32)

    def program(ctx):
        yield isa.Write(arr.addr(ctx.tid), ctx.tid)
        yield isa.WBAll()
        yield isa.Barrier(0, 2)
        yield isa.INVAll()
        yield isa.Read(arr.addr(1 - ctx.tid))

    machine.spawn_all(program)
    assert machine.cpu_loop is None  # recorded when the cores start
    machine.run()
    return machine


@pytest.mark.parametrize("model", software_models())
@pytest.mark.parametrize("config", [INTRA_BASE, INTRA_BMI])
def test_every_software_model_takes_the_fused_loop(model, config):
    assert _run(config, "fast", model=model).cpu_loop == "fused"


def test_mesi_takes_the_fused_loop():
    assert _run(INTRA_HCC, "fast").cpu_loop == "fused"


@pytest.mark.parametrize("model", [None, "sisd"])
def test_ref_engine_reports_the_reference_loop(model):
    assert _run(INTRA_BASE, "ref", model=model).cpu_loop == "reference"


@pytest.mark.parametrize("kwargs,reason", [
    ({"tracer": Tracer()}, "tracer"),
    ({"metrics": Metrics()}, "metrics"),
    ({"detect_staleness": True}, "staleness detector"),
])
def test_instrumented_runs_name_their_fallback(kwargs, reason):
    machine = _run(INTRA_BASE, "fast", model="rc", **kwargs)
    assert machine.cpu_loop == f"reference: {reason}"


class _HooklessModel(IncoherentProtocol):
    """Overrides read() but does not describe it as fused hooks."""

    def read(self, core, byte_addr):
        return super().read(core, byte_addr)


def test_protocol_without_hooks_falls_back_by_name():
    machine = Machine(intra_block_machine(2), INTRA_BASE, num_threads=2,
                      engine="fast")
    machine.protocol = _HooklessModel(machine.hier)
    arr = machine.array("a", 2)

    def program(ctx):
        yield isa.Write(arr.addr(ctx.tid), 1)
        yield isa.Read(arr.addr(ctx.tid))

    machine.spawn_all(program)
    machine.run()
    assert machine.cpu_loop == "reference: unsupported protocol _HooklessModel"
