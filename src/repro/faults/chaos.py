"""Seeded chaos runner: degraded-mode verification against the HCC oracle.

The resilience claim of the software-coherent hierarchy is that every
degradation the hardware can suffer — MEB overflow, IEB displacement,
ThreadMap eviction, write-buffer drain stalls, NoC jitter, transient link
failures, slow memory write-back paths — is *conservative*: it may cost
cycles but can never change a value.  The chaos runner turns that claim
into an executable experiment:

1. every target (a litmus kernel or a timing-independent workload) runs
   once under hardware MESI (``HCC``) to establish the reference memory
   image digest,
2. once fault-free under its software-coherent configuration (the timing
   baseline),
3. and once per seeded :class:`~repro.faults.model.FaultPlan`.

A run whose final memory digest differs from the HCC reference is a
**divergence** — a value error, the one thing faults must never cause.
Execution times of the degraded runs, normalized to the fault-free
baseline, quantify graceful degradation (see :mod:`repro.faults.report`).

Targets must be **timing-independent**: their final memory must not depend
on lock-acquisition order.  Determinate litmus kernels qualify by
construction (the differential harness already proves their memory
bit-identical across configurations with very different timing), and so do
lock-free SPLASH/NAS kernels with order-independent reductions (``fft``,
``lu_*``, ``is``).  Lock-ordered workloads like ``raytrace`` (whose
per-thread progress counters record which thread won each tile) and
unordered floating-point reductions like ``jacobi``'s residual (the
non-associative sum depends on lock-acquisition order) are deliberately
excluded.

Every run is a plain :class:`~repro.eval.parallel.SweepCell`, so one
:class:`~repro.eval.parallel.SweepExecutor` fans the whole chaos matrix
out over worker processes and the persistent result cache (fault plans are
part of the cache key).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.errors import ConfigError
from repro.common.params import (
    BufferParams,
    CacheParams,
    MachineParams,
    intra_block_machine,
)
from repro.core.config import (
    INTER_ADDR_L,
    INTER_HCC,
    INTRA_BMI,
    INTRA_HCC,
    ExperimentConfig,
)
from repro.eval.parallel import SweepCell
from repro.eval.runner import RunResult
from repro.faults.model import FaultPlan

#: Lock-free (hence timing-independent) workload targets the default chaos
#: sweep uses, besides the determinate litmus kernels.  ``is`` rather than
#: ``jacobi``/``ep``/``cg`` on the inter side: those three fold
#: floating-point partials into an *unordered* reduction, so a reordered
#: lock handoff changes the non-associative FP sum by an ULP — a timing
#: dependence, not a protocol bug, but it fails the bit-for-bit bar.  IS's
#: histogram reduction is all-integer and therefore order-independent.
SAFE_INTRA = ("fft", "lu_cont")
SAFE_INTER = ("is",)

#: Workload scale of a chaos cell unless the caller names one.
CHAOS_SCALE = 0.5

#: Workload-token shorthands accepted by :func:`default_targets`.
TOKEN_LITMUS = "litmus"
TOKEN_TINY = "tiny"


def tiny_pressure_machine() -> MachineParams:
    """A 4-core machine with tiny caches and buffers: maximal fault surface.

    512-byte L1s and L2 banks force dirty evictions and memory write-backs
    *during* the timed run (the default intra machine barely touches memory
    mid-run, so ``mem_wb_delay`` would otherwise never fire), and 4/2-entry
    MEB/IEBs overflow under any real working set.
    """
    base = intra_block_machine(
        4, buffers=BufferParams(meb_entries=4, ieb_entries=2)
    )
    return dataclasses.replace(
        base,
        l1=CacheParams(
            size_bytes=512, assoc=2, line_bytes=base.l1.line_bytes,
            round_trip=base.l1.round_trip,
        ),
        l2_bank=CacheParams(
            size_bytes=512, assoc=2, line_bytes=base.l2_bank.line_bytes,
            round_trip=base.l2_bank.round_trip,
        ),
    )


@dataclass(frozen=True)
class ChaosTarget:
    """One workload the chaos runner degrades and digest-verifies.

    ``kind``/``app``/``kwargs`` name a sweep cell; ``config`` is the
    software-coherent configuration under test and ``reference`` the
    hardware-coherent configuration that produces the value oracle.
    """

    kind: str  # "intra" | "inter" | "litmus"
    app: str
    config: ExperimentConfig
    reference: ExperimentConfig
    kwargs: tuple[tuple[str, Any], ...] = ()
    #: Memory model (:mod:`repro.models`) the software-coherent runs use;
    #: ``None`` leaves the Machine default.  The HCC reference cell never
    #: carries it — hardware-coherent configurations always run MESI.
    model: str | None = None
    #: Simulator core (:mod:`repro.engines`) every run uses, the HCC
    #: reference included; ``None`` leaves the Machine default.
    engine: str | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.app}"

    def cell(self, config: ExperimentConfig, plan: FaultPlan | None) -> SweepCell:
        """The sweep cell for one run of this target."""
        kwargs = dict(self.kwargs)
        if plan is not None:
            kwargs["faults"] = plan
        if self.model is not None and not config.hardware_coherent:
            kwargs["model"] = self.model
        if self.engine is not None:
            kwargs["engine"] = self.engine
        return SweepCell.make(
            self.kind, self.app, config, memory_digest=True, **kwargs
        )


def _litmus_target(name: str, **runs) -> ChaosTarget:
    """Litmus kernel *name* under its machine's default config pair."""
    from repro.workloads.litmus import LITMUS

    if LITMUS[name].model == "inter":
        return ChaosTarget("litmus", name, INTER_ADDR_L, INTER_HCC, **runs)
    return ChaosTarget("litmus", name, INTRA_BMI, INTRA_HCC, **runs)


def default_targets(
    workloads: Sequence[str] | None = None,
    *,
    scale: float = CHAOS_SCALE,
    model: str | None = None,
    engine: str | None = None,
) -> list[ChaosTarget]:
    """Resolve workload tokens into chaos targets.

    Tokens: ``litmus`` (every determinate litmus kernel), ``tiny`` (fft on
    the :func:`tiny_pressure_machine`), a Model-1 or Model-2 workload name,
    or a litmus kernel name.  ``None`` selects the full default matrix:
    litmus + the safe SPLASH/NAS workloads + the pressure target.
    ``model`` selects the memory model the software-coherent runs use,
    ``engine`` the simulator core of every run.
    """
    from repro.workloads import MODEL_ONE, MODEL_TWO
    from repro.workloads.litmus import LITMUS

    if workloads is None:
        workloads = (
            (TOKEN_LITMUS,) + SAFE_INTRA + SAFE_INTER + (TOKEN_TINY,)
        )
    runs = {"model": model, "engine": engine}
    targets: list[ChaosTarget] = []
    for token in workloads:
        if token == TOKEN_LITMUS:
            targets.extend(
                _litmus_target(kernel.name, **runs)
                for kernel in LITMUS.values()
                if kernel.determinate
            )
        elif token == TOKEN_TINY:
            # lu_cont's working set overflows the 512-byte caches even at
            # half scale, so dirty L2 victims spill to memory mid-run.
            targets.append(
                ChaosTarget(
                    "intra", "lu_cont", INTRA_BMI, INTRA_HCC,
                    SweepCell.make(
                        "intra", "lu_cont", INTRA_BMI,
                        num_threads=4,
                        machine_params=tiny_pressure_machine(),
                        scale=scale,
                    ).kwargs,
                    **runs,
                )
            )
        elif token in MODEL_ONE:
            targets.append(
                ChaosTarget(
                    "intra", token, INTRA_BMI, INTRA_HCC,
                    (("scale", scale),), **runs,
                )
            )
        elif token in MODEL_TWO:
            targets.append(
                ChaosTarget(
                    "inter", token, INTER_ADDR_L, INTER_HCC,
                    (("cores_per_block", 4), ("num_blocks", 2), ("scale", scale)),
                    **runs,
                )
            )
        elif token in LITMUS:
            targets.append(_litmus_target(token, **runs))
        else:
            raise ConfigError(f"unknown chaos workload {token!r}")
    return targets


@dataclass
class TargetOutcome:
    """Everything the chaos runner learned about one target."""

    target: ChaosTarget
    reference: RunResult  # HCC run (value oracle)
    baseline: RunResult  # fault-free run under the target config
    runs: list[RunResult]  # one per fault plan, same order as the plans

    def divergent_plans(self, plans: Sequence[FaultPlan]) -> list[str]:
        """Names of plans whose final memory differs from the HCC oracle."""
        oracle = self.reference.memory_digest
        out = []
        if self.baseline.memory_digest != oracle:
            out.append("<baseline>")
        for plan, run in zip(plans, self.runs):
            if run.memory_digest != oracle:
                out.append(plan.name)
        return out


@dataclass
class ChaosResult:
    """The full outcome of one chaos sweep (input to the report layer)."""

    plans: list[FaultPlan]
    outcomes: list[TargetOutcome]

    @property
    def divergences(self) -> dict[str, list[str]]:
        """{target label: divergent plan names}, only targets that diverged."""
        out = {}
        for outcome in self.outcomes:
            bad = outcome.divergent_plans(self.plans)
            if bad:
                out[outcome.target.label] = bad
        return out

    @property
    def clean(self) -> bool:
        return not self.divergences


def chaos_cells(
    targets: Sequence[ChaosTarget], plans: Sequence[FaultPlan]
) -> list[SweepCell]:
    """Lower a chaos matrix to its flat cell list.

    Per target: the HCC reference, the fault-free baseline, then one cell
    per plan — a fixed stride of ``2 + len(plans)`` that
    :func:`assemble_chaos` re-slices.  The ``chaos`` job kind
    (:func:`repro.serve.jobs.compile_job`) lowers to exactly these cells.
    """
    if not targets:
        raise ConfigError("chaos needs at least one target")
    cells: list[SweepCell] = []
    for target in targets:
        cells.append(target.cell(target.reference, None))
        cells.append(target.cell(target.config, None))
        cells.extend(target.cell(target.config, plan) for plan in plans)
    return cells


def assemble_chaos(
    targets: Sequence[ChaosTarget],
    plans: Sequence[FaultPlan],
    results: Sequence[RunResult],
) -> ChaosResult:
    """Fold per-cell results (in :func:`chaos_cells` order) into a result."""
    outcomes = []
    stride = 2 + len(plans)
    for i, target in enumerate(targets):
        chunk = results[i * stride:(i + 1) * stride]
        outcomes.append(
            TargetOutcome(target, chunk[0], chunk[1], list(chunk[2:]))
        )
    return ChaosResult(list(plans), outcomes)
