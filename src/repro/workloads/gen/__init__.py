"""Seeded generative traffic engine (the "workload frontier").

Turns the Table I sharing-pattern taxonomy into a generator: a
:class:`~repro.workloads.gen.spec.ScenarioSpec` (pattern, seed, threads,
footprint, skew, rounds) deterministically expands into a macro program
per thread (:mod:`repro.workloads.gen.patterns`) plus an analytically
computed expected memory image, and :func:`run_gen` executes it as a
first-class sweep cell alongside the SPLASH/NAS/litmus workloads.

Guarantees, by construction (see :mod:`repro.workloads.gen.patterns`):

* same spec → same program digest → same run statistics and final image;
* every generated program is data-race-free, uses the default
  Section IV-A annotations through :class:`~repro.core.context.ThreadCtx`
  helpers, lints clean, and produces the coherent (HCC-equal) final
  memory on every Table II configuration and both simulator engines.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.params import intra_block_machine
from repro.core.config import ExperimentConfig
from repro.core.machine import Machine
from repro.workloads.gen.patterns import BUILDERS, Scenario, WORDS_PER_LINE
from repro.workloads.gen.spec import PATTERNS, ScenarioSpec, sample_specs

__all__ = [
    "PATTERNS",
    "ScenarioSpec",
    "Scenario",
    "WORDS_PER_LINE",
    "build_scenario",
    "gen_machine_params",
    "macro_program",
    "run_gen",
    "sample_specs",
    "spawn_scenario",
]


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Expand *spec* into its concrete (deterministic) scenario."""
    return BUILDERS[spec.pattern](spec)


def gen_machine_params(spec: ScenarioSpec):
    """Machine parameters scenarios run on (litmus-style intra block)."""
    return intra_block_machine(max(4, spec.threads))


def macro_program(scenario: Scenario, tid: int, arrays: dict):
    """Machine-spawnable program interpreting thread *tid*'s macros.

    The thread carries one local accumulator register: ``load`` macros add
    the loaded value into it and ``store_acc`` writes it out.  ``add``
    macros (read-modify-write) deliberately do NOT touch the accumulator —
    the intermediate value a lock-protected add observes depends on
    acquisition order, while the accumulator must stay timing-independent
    for the oracle.
    """
    macros = scenario.programs[tid]

    def program(ctx):
        acc = 0
        for m in macros:
            op = m[0]
            if op == "load":
                value = yield from ctx.load(arrays[m[1]].addr(m[2]))
                acc += value
            elif op == "store":
                yield from ctx.store(arrays[m[1]].addr(m[2]), m[3])
            elif op == "add":
                addr = arrays[m[1]].addr(m[2])
                value = yield from ctx.load(addr)
                yield from ctx.store(addr, value + m[3])
            elif op == "store_acc":
                yield from ctx.store(arrays[m[1]].addr(m[2]), acc)
            elif op == "compute":
                yield from ctx.compute(m[1])
            elif op == "barrier":
                yield from ctx.barrier(m[1])
            elif op == "lock":
                yield from ctx.lock_acquire(m[1])
            elif op == "unlock":
                yield from ctx.lock_release(m[1])
            elif op == "flag_set":
                yield from ctx.flag_set(m[1], m[2])
            elif op == "flag_wait":
                yield from ctx.flag_wait(m[1], m[2])
            else:  # pragma: no cover - builders emit a closed vocabulary
                raise ConfigError(f"unknown macro {m!r}")

    return program


def spawn_scenario(machine: Machine, scenario: Scenario) -> dict:
    """Allocate the scenario's arrays and spawn its threads; return arrays."""
    spec = scenario.spec
    if machine.num_threads != spec.threads:
        raise ConfigError(
            f"{spec.name} needs {spec.threads} threads; "
            f"machine has {machine.num_threads}"
        )
    arrays = {name: machine.array(name, size) for name, size in scenario.arrays}
    for tid in range(spec.threads):
        machine.spawn(macro_program(scenario, tid, arrays))
    return arrays


def verify_scenario(machine: Machine, scenario: Scenario, arrays: dict) -> None:
    """Compare post-run main memory against the scenario's oracle."""
    for name, expected in scenario.expected:
        got = machine.read_array(arrays[name])
        if list(got) != list(expected):
            bad = next(
                i for i, (g, e) in enumerate(zip(got, expected)) if g != e
            )
            raise AssertionError(
                f"{scenario.spec.name}: {name}[{bad}] = {got[bad]!r}, "
                f"expected {expected[bad]!r}"
            )


def run_gen(spec: ScenarioSpec, config: ExperimentConfig, **options):
    """Run one generated scenario as a sweep cell (cf. ``run_litmus``).

    ``verify=True`` applies the analytic oracle: every word of the final
    memory image must equal the value the builder computed while
    generating — on *any* configuration (generated programs are coherent
    by construction, so even plain incoherent Base must agree with HCC),
    and under any armed fault plan (scenarios are timing-independent, the
    chaos contract).  *options* are :func:`repro.eval.runner.run_subject`'s.
    """
    from repro.eval.runner import run_subject

    return run_subject("gen", spec.name, config, spec=spec, **options)


def lint_scenario(spec: ScenarioSpec, config: ExperimentConfig):
    """Static-check a generated scenario under *config*; return the report.

    Stages a fresh (never-run) machine with the scenario spawned and hands
    it to the Section IV-A analyzer — the fleet requires a clean report from
    every scenario it runs.  HCC is rejected by the analyzer (nothing to
    lint), matching ``repro lint``.
    """
    from repro.analysis.lint import lint_machine
    from repro.eval.runner import stage

    machine = stage("gen", spec.name, config, spec=spec).machine
    return lint_machine(machine, name=spec.name, config=config.name)
