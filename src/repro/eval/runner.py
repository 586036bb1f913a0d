"""Experiment runner: one (application × configuration) simulation per call.

The intra-block experiments (Figures 9 and 10) run the SPLASH-2 workloads on
the 16-core single-block machine over the upper Table II configurations; the
inter-block experiments (Figures 11 and 12) run the NAS/Jacobi IR workloads
on the 4-block × 8-core machine over the lower Table II configurations.
Every run is functionally verified before its statistics are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _make_injector(faults):
    """Build a FaultInjector for *faults* (a FaultPlan), or pass None through."""
    if faults is None:
        return None
    from repro.faults.injector import FaultInjector

    return FaultInjector(faults)


def _finish_result(
    app: str,
    config: ExperimentConfig,
    machine: Machine,
    stats: MachineStats,
    metrics,
    injector,
    memory_digest: bool,
) -> RunResult:
    """Assemble a :class:`RunResult`, attaching the optional extras."""
    from repro.mem.memory import image_digest

    return RunResult(
        app,
        config.name,
        stats,
        metrics.snapshot() if metrics is not None else None,
        injector.snapshot() if injector is not None else None,
        image_digest(machine.hier.memory.image()) if memory_digest else None,
        machine.cpu_loop,
    )


def run_intra(
    app: str,
    config: ExperimentConfig,
    *,
    num_threads: int = 16,
    scale: float = 1.0,
    machine_params: MachineParams | None = None,
    verify: bool = True,
    tracer=None,
    metrics=None,
    faults=None,
    memory_digest: bool = False,
    engine: str | None = None,
    model: str | None = None,
) -> RunResult:
    """Run a Model-1 (SPLASH) workload on the intra-block machine.

    ``tracer``/``metrics`` attach :mod:`repro.obs` sinks to the machine;
    both are bit-identical-neutral and the metrics snapshot rides along in
    the returned :class:`RunResult`.  ``faults`` arms a
    :class:`repro.faults.model.FaultPlan` for the run (degraded timing,
    identical values); ``memory_digest=True`` fingerprints main memory
    after the run so chaos harnesses can compare images across runs.
    ``model`` selects the registered memory model (:mod:`repro.models`,
    default ``$REPRO_MODEL`` then ``base``).
    """
    if app not in MODEL_ONE:
        raise ConfigError(f"unknown Model-1 workload {app!r}")
    params = machine_params or intra_block_machine(num_threads)
    injector = _make_injector(faults)
    machine = Machine(
        params, config, num_threads=num_threads, tracer=tracer, metrics=metrics,
        faults=injector, engine=engine, model=model,
    )
    workload = MODEL_ONE[app](scale=scale)
    if verify:
        stats = workload.run_on(machine)
    else:
        workload.prepare(machine)
        stats = machine.run()
    return _finish_result(app, config, machine, stats, metrics, injector, memory_digest)


def run_inter(
    app: str,
    config: ExperimentConfig,
    *,
    num_blocks: int = 4,
    cores_per_block: int = 8,
    scale: float = 1.0,
    machine_params: MachineParams | None = None,
    verify: bool = True,
    tracer=None,
    metrics=None,
    faults=None,
    memory_digest: bool = False,
    engine: str | None = None,
    model: str | None = None,
) -> RunResult:
    """Run a Model-2 (NAS/Jacobi) workload on the inter-block machine.

    ``tracer``/``metrics``/``faults``/``memory_digest`` behave as in
    :func:`run_intra`.
    """
    if app not in MODEL_TWO:
        raise ConfigError(f"unknown Model-2 workload {app!r}")
    params = machine_params or inter_block_machine(num_blocks, cores_per_block)
    injector = _make_injector(faults)
    machine = Machine(
        params, config, num_threads=params.num_cores, tracer=tracer,
        metrics=metrics, faults=injector, engine=engine, model=model,
    )
    workload = MODEL_TWO[app](scale=scale)
    if verify:
        stats = workload.run_on(machine)
    else:
        runner = workload.make_runner(machine)
        runner.spawn_all()
        stats = machine.run()
    return _finish_result(app, config, machine, stats, metrics, injector, memory_digest)


def run_litmus(
    name: str,
    config: ExperimentConfig,
    *,
    verify: bool = True,
    tracer=None,
    metrics=None,
    faults=None,
    memory_digest: bool = False,
    engine: str | None = None,
    model: str | None = None,
) -> RunResult:
    """Run one litmus kernel (``repro.workloads.litmus``) as a sweep cell.

    Litmus kernels are tiny targeted programs with self-checking oracles;
    running them through the same RunResult/sweep machinery as the big
    workloads lets the chaos harness fan them out and digest-compare their
    memory images.  ``verify`` applies the kernel's oracle — only for
    determinate kernels (broken kernels intentionally fail theirs; the
    chaos runner detects those through digest divergence instead).
    """
    from repro.workloads.litmus import LITMUS, machine_params, spawn_litmus

    if name not in LITMUS:
        raise ConfigError(f"unknown litmus kernel {name!r}")
    kernel = LITMUS[name]
    params = machine_params(kernel)
    injector = _make_injector(faults)
    machine = Machine(
        params, config, num_threads=kernel.threads, tracer=tracer,
        metrics=metrics, faults=injector, engine=engine, model=model,
    )
    arrs, obs = spawn_litmus(kernel, machine)
    stats = machine.run()
    if verify and kernel.determinate and kernel.check is not None:
        mem = {n: machine.read_array(a) for n, a in arrs.items()}
        kernel.check(obs, mem)
    return _finish_result(name, config, machine, stats, metrics, injector, memory_digest)


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
