"""Experiment runner: one (application × configuration) simulation per call.

The intra-block experiments (Figures 9 and 10) run the SPLASH-2 workloads on
the 16-core single-block machine over the upper Table II configurations; the
inter-block experiments (Figures 11 and 12) run the NAS/Jacobi IR workloads
on the 4-block × 8-core machine over the lower Table II configurations.
Every run is functionally verified before its statistics are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ConfigError
from repro.common.params import MachineParams, inter_block_machine, intra_block_machine
from repro.core.config import ExperimentConfig
from repro.core.machine import Machine
from repro.sim.stats import MachineStats, StallCat
from repro.workloads import MODEL_ONE, MODEL_TWO


@dataclass(frozen=True)
class RunResult:
    """Statistics of one verified (app, config) run.

    Instances are plain frozen dataclasses over picklable state, so they
    travel through process-pool workers unchanged, and ``to_dict`` /
    ``from_dict`` give an exact JSON round trip for the on-disk result
    cache.  ``metrics`` is the optional JSON-safe
    :meth:`repro.obs.metrics.Metrics.snapshot` of an instrumented run; it
    round-trips through both paths bit-for-bit and stays ``None`` (and
    absent from the dict form) for plain sweep runs.  ``faults`` is the
    :meth:`repro.faults.injector.FaultInjector.snapshot` of a degraded run
    and ``memory_digest`` the post-run main-memory fingerprint — both also
    ``None``/absent unless requested.  ``cpu_loop`` is the simulated
    machine's :attr:`~repro.core.machine.Machine.cpu_loop`; it describes
    how this process ran the cell, not the result, so it is neither
    compared nor cached (a cache hit reports ``None``).
    """

    app: str
    config: str
    stats: MachineStats
    metrics: dict | None = None
    faults: dict | None = None
    memory_digest: str | None = None
    cpu_loop: str | None = field(default=None, compare=False)

    @property
    def exec_time(self) -> int:
        """Simulated execution time in cycles (the Figure 9/12 y-axis)."""
        return self.stats.exec_time

    def breakdown(self) -> dict[str, float]:
        """Stall/traffic composition of the run (Figure 9/10 categories)."""
        return self.stats.breakdown()

    def to_dict(self) -> dict:
        """JSON-safe form; optional fields are included only when present."""
        d = {"app": self.app, "config": self.config, "stats": self.stats.to_dict()}
        if self.metrics is not None:
            d["metrics"] = self.metrics
        if self.faults is not None:
            d["faults"] = self.faults
        if self.memory_digest is not None:
            d["memory_digest"] = self.memory_digest
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        """Exact inverse of :meth:`to_dict` (the result-cache contract)."""
        return cls(
            d["app"],
            d["config"],
            MachineStats.from_dict(d["stats"]),
            d.get("metrics"),
            d.get("faults"),
            d.get("memory_digest"),
        )


@dataclass(frozen=True)
class Layout:
    """How one subject sits on its machine, and how it is spawned and checked.

    ``params`` and ``num_threads`` are the machine the subject runs on (its
    kind's default unless the caller passed ``machine_params``) and
    ``geometry`` is that layout as the result cache keys it.
    ``spawn(machine, scale)`` allocates and spawns the program and returns
    the handle that ``verify(machine, handle)`` checks after the run.
    """

    params: MachineParams
    num_threads: int
    geometry: dict
    spawn: Callable[[Machine, float], Any]
    verify: Callable[[Machine, Any], None]


def _model_one(app: str, options: dict, params) -> Layout:
    """A SPLASH workload: 16 threads on the intra-block machine by default."""
    if app not in MODEL_ONE:
        raise ConfigError(f"unknown Model-1 workload {app!r}")
    threads = options.pop("num_threads", 16)

    def spawn(machine, scale):
        workload = MODEL_ONE[app](scale=scale)
        workload.prepare(machine)
        return workload

    return Layout(
        params or intra_block_machine(threads), threads,
        {"num_threads": threads},
        spawn, lambda machine, workload: workload.verify(machine),
    )


def _model_two(app: str, options: dict, params) -> Layout:
    """A NAS/Jacobi IR workload: every core of the 4 x 8 machine by default.

    The program is built for the block count of the machine it runs on.
    """
    if app not in MODEL_TWO:
        raise ConfigError(f"unknown Model-2 workload {app!r}")
    blocks = options.pop("num_blocks", 4)
    cores = options.pop("cores_per_block", 8)
    params = params or inter_block_machine(blocks, cores)

    def spawn(machine, scale):
        workload = MODEL_TWO[app](scale=scale, num_blocks=machine.params.num_blocks)
        return workload, workload.prepare(machine)

    return Layout(
        params, params.num_cores,
        {"num_blocks": blocks, "cores_per_block": cores},
        spawn, lambda machine, handle: handle[0].verify(handle[1]),
    )


def _litmus(name: str, options: dict, params) -> Layout:
    """A litmus kernel on its model family's machine.

    Only determinate kernels are checked against their oracle: broken
    kernels fail theirs by design, and the chaos runner catches them by
    digest divergence instead.
    """
    from repro.workloads.litmus import LITMUS, machine_params, spawn_litmus

    if name not in LITMUS:
        raise ConfigError(f"unknown litmus kernel {name!r}")
    kernel = LITMUS[name]

    def verify(machine, handle):
        arrs, obs = handle
        if kernel.determinate and kernel.check is not None:
            kernel.check(obs, {n: machine.read_array(a) for n, a in arrs.items()})

    return Layout(
        params or machine_params(kernel), kernel.threads,
        {"model": kernel.model, "num_threads": kernel.threads},
        lambda machine, scale: spawn_litmus(kernel, machine), verify,
    )


def _generated(name: str, options: dict, params) -> Layout:
    """A generated scenario (``spec`` option), checked by its analytic oracle."""
    from repro.workloads.gen import (
        build_scenario,
        gen_machine_params,
        spawn_scenario,
        verify_scenario,
    )

    spec = options.pop("spec")

    def spawn(machine, scale):
        scenario = build_scenario(spec)
        return scenario, spawn_scenario(machine, scenario)

    return Layout(
        params or gen_machine_params(spec), spec.threads,
        # The canonical spec digest covers every generator parameter, so
        # two cells collide exactly when they run the same scenario.
        {"pattern": spec.pattern, "num_threads": spec.threads,
         "scenario": spec.digest()},
        spawn, lambda machine, handle: verify_scenario(machine, *handle),
    )


def _replay(name: str, options: dict, params) -> Layout:
    """A recorded trace (``events`` option); replays have no oracle.

    The thread count defaults to the populated-core count (identity
    placement) and the machine to the litmus-style intra block.
    """
    from repro.workloads.replay import infer_num_threads, programs_by_core, spawn_replay

    events = options.pop("events")
    threads = options.pop("num_threads", None) or infer_num_threads(
        programs_by_core(events)
    )
    return Layout(
        params or intra_block_machine(max(4, threads)), threads,
        {"num_threads": threads},
        lambda machine, scale: spawn_replay(machine, events),
        lambda machine, handle: None,
    )


#: Every kind of subject a cell can run, by sweep kind.
SUBJECTS: dict[str, Callable[[str, dict, Any], Layout]] = {
    "intra": _model_one,
    "inter": _model_two,
    "litmus": _litmus,
    "gen": _generated,
    "replay": _replay,
}


def layout(kind: str, name: str, options: dict, machine_params=None) -> Layout:
    """The layout of *kind* subject *name*; pops its own keys from *options*."""
    if kind not in SUBJECTS:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    return SUBJECTS[kind](name, options, machine_params)


@dataclass
class Staged:
    """A machine with one subject spawned on it, not yet run."""

    machine: Machine
    handle: Any
    check: Callable[[Machine, Any], None]

    def run(self, verify: bool = True) -> MachineStats:
        """Run the machine, then check the subject's result if *verify*."""
        stats = self.machine.run()
        if verify:
            self.check(self.machine, self.handle)
        return stats


def stage(
    kind: str,
    name: str,
    config: ExperimentConfig,
    *,
    scale: float = 1.0,
    machine_params: MachineParams | None = None,
    placement=None,
    detect_staleness: bool = False,
    tracer=None,
    metrics=None,
    faults=None,
    engine: str | None = None,
    model: str | None = None,
    **options,
) -> Staged:
    """Build the machine for one subject and spawn the subject on it.

    This is the one place the package builds a :class:`Machine`.
    *options* are the kind's own keys (``num_threads``; ``num_blocks`` and
    ``cores_per_block``; ``spec``; ``events``).  ``faults`` arms a
    :class:`repro.faults.model.FaultPlan`; ``model`` selects the memory
    model (:mod:`repro.models`, default ``base``).
    """
    subject = layout(kind, name, options, machine_params)
    if options:
        raise TypeError(f"{kind} subject got unexpected option(s) {sorted(options)}")
    injector = None
    if faults is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(faults)
    machine = Machine(
        subject.params, config, num_threads=subject.num_threads,
        placement=placement, detect_staleness=detect_staleness, tracer=tracer,
        metrics=metrics, faults=injector, engine=engine, model=model,
    )
    return Staged(machine, subject.spawn(machine, scale), subject.verify)


def run_subject(
    kind: str,
    name: str,
    config: ExperimentConfig,
    *,
    verify: bool = True,
    memory_digest: bool = False,
    **options,
) -> RunResult:
    """Stage, run and verify one subject; every sweep cell runs here.

    *options* go to :func:`stage`.  ``tracer``/``metrics`` are
    bit-identical-neutral and the metrics snapshot rides along in the
    result, as does the fault injector's; ``memory_digest=True``
    fingerprints main memory after the run so chaos harnesses can compare
    images across runs.
    """
    from repro.mem.memory import image_digest

    staged = stage(kind, name, config, **options)
    stats = staged.run(verify)
    machine = staged.machine
    return RunResult(
        name,
        config.name,
        stats,
        machine.metrics.snapshot() if machine.metrics is not None else None,
        machine.faults.snapshot() if machine.faults is not None else None,
        image_digest(machine.hier.memory.image()) if memory_digest else None,
        machine.cpu_loop,
    )


def run_intra(app: str, config: ExperimentConfig, **options) -> RunResult:
    """Run a Model-1 (SPLASH) workload on the intra-block machine."""
    return run_subject("intra", app, config, **options)


def run_inter(app: str, config: ExperimentConfig, **options) -> RunResult:
    """Run a Model-2 (NAS/Jacobi) workload on the inter-block machine."""
    return run_subject("inter", app, config, **options)


def run_litmus(name: str, config: ExperimentConfig, **options) -> RunResult:
    """Run one litmus kernel (``repro.workloads.litmus``) as a sweep cell."""
    return run_subject("litmus", name, config, **options)


def normalized_exec(results: dict[str, RunResult], baseline: str = "HCC") -> dict[str, float]:
    """Execution times of one app's configs normalized to *baseline*."""
    base = results[baseline].exec_time
    if base <= 0:
        raise ConfigError("baseline execution time is zero")
    return {name: r.exec_time / base for name, r in results.items()}


def stall_fractions(result: RunResult) -> dict[str, float]:
    """Figure 9 stacked-bar fractions (each category / exec time)."""
    b = result.breakdown()
    total = result.exec_time or 1
    return {cat.value: b[cat.value] / total for cat in StallCat}
