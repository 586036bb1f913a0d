"""A finished machine is freed by reference counting, not by the cycle GC.

A core reaches its :class:`~repro.core.machine.Machine` only while
``Machine.run`` executes; the run drops that link (and any pending events
and unfinished programs) when it ends, however it ends.  So once the
caller lets go, nothing keeps the machine (its caches, directories,
memory and stats graph) alive.  Every test here runs with the cycle
collector disabled and checks a weak reference to each machine built,
then that a collection finds none of the simulator's objects in a cycle.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import Machine, intra_block_machine
from repro.analysis.extract import extract
from repro.cli import main
from repro.common.errors import (
    AnalysisError,
    ConfigError,
    DeadlockError,
    SimulationError,
)
from repro.core.config import INTER_CONFIGS, INTRA_BMI, INTRA_HCC
from repro.eval.runner import run_inter, run_intra, run_litmus
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind, FaultPlan, FaultSpec
from repro.isa import ops as isa
from repro.obs.metrics import Metrics
from repro.workloads.gen import ScenarioSpec, lint_scenario, run_gen

INTER_ADDR_L = INTER_CONFIGS[-1]


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every Machine built in the test, gc disabled."""
    refs: list[weakref.ref] = []
    init = Machine.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Machine, "__init__", tracked)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def _dead(refs) -> bool:
    """Every machine built is gone, and nothing of the simulator's is left
    as cyclic garbage (first-use caches in third-party libraries may be)."""
    if not refs or any(ref() is not None for ref in refs):
        return False
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        leaked = [
            o for o in gc.garbage if type(o).__module__.startswith("repro.")
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return not leaked


def _program(ctx):
    base = 0x1000 + 64 * ctx.tid
    for i in range(8):
        yield isa.Write(base + 4 * i, i)
        yield isa.Read(base + 4 * i)
    yield from ctx.barrier()


def _machine(**kwargs) -> Machine:
    m = Machine(intra_block_machine(4), INTRA_BMI, num_threads=2, **kwargs)
    m.spawn_all(_program)
    return m


def _run_error(machine, **kwargs) -> tuple[type, str]:
    """Run *machine* and return the exception it raised, as (type, str).

    Catching here (not in ``pytest.raises``) keeps the traceback, and the
    frames holding the machine, out of the test's own frame.
    """
    try:
        machine.run(**kwargs)
    except SimulationError as exc:
        return type(exc), str(exc)
    raise AssertionError("run() did not raise")


@pytest.mark.parametrize("engine", ["ref", "fast"])
@pytest.mark.parametrize("model", ["hcc", "base", "rc", "sisd"])
def test_model_one_cell_is_freed(machines, engine, model):
    config = INTRA_HCC if model == "hcc" else INTRA_BMI
    result = run_intra(
        "fft", config, num_threads=4, scale=0.25, engine=engine, model=model
    )
    assert result.exec_time > 0
    assert _dead(machines)


def test_model_two_cell_is_freed(machines):
    run_inter(
        "jacobi", INTER_ADDR_L, num_blocks=2, cores_per_block=2, scale=0.25,
        engine="fast",
    )
    assert _dead(machines)


def test_litmus_kernel_is_freed(machines):
    run_litmus("mp_flag", INTRA_BMI, engine="fast")
    assert _dead(machines)


def test_gen_scenario_is_freed(machines):
    run_gen(ScenarioSpec("migratory", seed=3), INTRA_BMI, engine="fast")
    assert _dead(machines)


def test_metered_run_is_freed_while_metrics_live_on(machines):
    metrics = Metrics()
    run_intra("fft", INTRA_BMI, num_threads=4, scale=0.25, metrics=metrics,
              engine="fast")
    assert _dead(machines)
    assert metrics.snapshot()


def test_faulted_run_is_freed_while_injector_lives_on(machines):
    plan = FaultPlan(name="t", seed=11, specs=(
        FaultSpec(kind=FaultKind.WBUF_STALL, rate=1.0, magnitude=3),
    ))
    injector = FaultInjector(plan)
    m = _machine(faults=injector, engine="fast")
    m.run()
    del m
    assert _dead(machines)
    assert injector.total_fires > 0


def test_deadlocked_run_is_freed(machines):
    def stuck(ctx):
        yield isa.Write(0x1000, 1)
        yield isa.Barrier(1, 3)  # three arrivals expected, two threads

    m = Machine(intra_block_machine(4), INTRA_BMI, num_threads=2,
                engine="fast")
    m.spawn_all(stuck)
    assert _run_error(m) == (
        DeadlockError,
        "2 entities still blocked with no pending events — simulated "
        "program deadlocked",
    )
    with pytest.raises(ConfigError):
        m.run()
    del m
    assert _dead(machines)


def test_max_cycles_run_is_freed(machines):
    m = _machine(engine="fast")
    kind, message = _run_error(m, max_cycles=5)
    assert kind is SimulationError
    assert message.startswith("simulation exceeded max_cycles=5 (next event at ")
    del m
    assert _dead(machines)


def test_linted_never_run_machine_is_freed(machines):
    report = lint_scenario(ScenarioSpec("migratory", seed=3), INTRA_BMI)
    assert report.errors == 0
    assert _dead(machines)


def test_lint_fix_planner_machines_are_freed(machines, capsys):
    assert main(["lint", "missing_annotations", "--fix"]) == 0
    assert "fix verified" in capsys.readouterr().out
    # The lint pass, the planner, the fixed run, the HCC reference and
    # the re-lint each built one.
    assert len(machines) == 5
    assert _dead(machines)


def test_deadlocked_extraction_is_freed(machines):
    def stuck(ctx):
        yield isa.Barrier(1, 3)

    m = Machine(intra_block_machine(4), INTRA_BMI, num_threads=2)
    m.spawn_all(stuck)
    try:
        extract(m)
    except AnalysisError as exc:
        assert "extraction deadlocked" in str(exc)
    else:
        raise AssertionError("extract() did not raise")
    del m
    assert _dead(machines)


@pytest.mark.parametrize("engine,loop", [("ref", "reference"), ("fast", "fused")])
def test_finished_machine_keeps_its_record_and_runs_once(machines, engine, loop):
    m = _machine(engine=engine)
    stats = m.run()
    assert m.cpu_loop == loop
    assert m.read_word(0x1000 + 4 * 3) == 3
    with pytest.raises(ConfigError):
        m.run()
    del m
    assert _dead(machines)
    assert stats.exec_time > 0
