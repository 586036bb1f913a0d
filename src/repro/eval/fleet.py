"""Scenario fleet: N generated scenarios × configs × engines, auto-checked.

``repro fleet`` is a one-command differential test bed over the generative
traffic engine (:mod:`repro.workloads.gen`).  For every sampled
:class:`~repro.workloads.gen.spec.ScenarioSpec` the fleet runs:

* one hardware-coherent (``HCC``) reference cell — the value oracle,
* one cell per (software-coherent configuration × engine),

all through a single :class:`~repro.eval.parallel.SweepExecutor` call
(parallel + cached; the engine name rides in the cell kwargs so ``ref``
and ``fast`` results cache separately), plus a static lint pass per
(scenario × configuration).  The verdict folds three checks:

* **oracle** — every software-coherent cell's final-memory digest equals
  the HCC reference digest (each cell additionally self-verifies against
  the builder's analytic image while running);
* **engine** — for each (scenario, config), every engine produced
  bit-identical :class:`~repro.sim.stats.MachineStats` *and* digest;
* **lint** — every generated program is clean under the Section IV-A
  analyzer for every configuration it runs.

The verdict is JSON-safe (CI uploads it as an artifact) and ``clean`` is
the exit-code contract: any divergence, mismatch, or lint finding makes
the fleet command exit non-zero.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ConfigError
from repro.core.config import (
    INTRA_BASE,
    INTRA_BMI,
    INTRA_HCC,
    ExperimentConfig,
)
from repro.eval.parallel import SweepCell
from repro.workloads.gen import ScenarioSpec, lint_scenario

#: Software-coherent configurations a fleet sweeps by default — the two
#: ends of the Table II intra spectrum (plain Base and fully buffered).
DEFAULT_FLEET_CONFIGS = (INTRA_BASE, INTRA_BMI)


def fleet_cells(
    specs: Sequence[ScenarioSpec],
    *,
    configs: Sequence[ExperimentConfig] = DEFAULT_FLEET_CONFIGS,
    engines: Sequence[str] = ("ref",),
) -> list[SweepCell]:
    """Lower a fleet to its flat cell list (validating the matrix).

    Per scenario: one HCC reference cell, then one cell per
    (config × engine), giving a fixed stride of
    ``1 + len(configs) * len(engines)`` that :func:`fleet_verdict`
    re-slices.  The ``fleet`` job kind
    (:func:`repro.serve.jobs.compile_job`) lowers to exactly these cells.
    """
    if not specs:
        raise ConfigError("fleet needs at least one scenario")
    if not engines:
        raise ConfigError("fleet needs at least one engine")
    for cfg in configs:
        if cfg.hardware_coherent:
            raise ConfigError(
                "fleet configs must be software-coherent (HCC is implicit)"
            )
    cells: list[SweepCell] = []
    for spec in specs:
        cells.append(
            SweepCell.make(
                "gen", spec.name, INTRA_HCC, spec=spec, memory_digest=True
            )
        )
        for cfg in configs:
            for engine in engines:
                cells.append(
                    SweepCell.make(
                        "gen", spec.name, cfg, spec=spec,
                        memory_digest=True, engine=engine,
                    )
                )
    return cells


def fleet_verdict(
    specs: Sequence[ScenarioSpec],
    results: Sequence,
    *,
    configs: Sequence[ExperimentConfig] = DEFAULT_FLEET_CONFIGS,
    engines: Sequence[str] = ("ref",),
    lint: bool = True,
) -> dict:
    """Fold per-cell results (in :func:`fleet_cells` order) into the verdict."""
    stride = 1 + len(configs) * len(engines)
    details: list[dict] = []
    oracle_divergences = engine_mismatches = lint_violations = 0
    patterns: dict[str, int] = {}
    for i, spec in enumerate(specs):
        chunk = results[i * stride:(i + 1) * stride]
        reference, rest = chunk[0], chunk[1:]
        entry: dict = {
            "scenario": spec.name,
            "pattern": spec.pattern,
            "spec": spec.to_dict(),
            "digest": reference.memory_digest,
            "oracle_ok": True,
            "engine_ok": True,
            "lint_ok": True,
            "cells": {},
        }
        patterns[spec.pattern] = patterns.get(spec.pattern, 0) + 1
        for c, cfg in enumerate(configs):
            per_engine = rest[c * len(engines):(c + 1) * len(engines)]
            for engine, run in zip(engines, per_engine):
                entry["cells"][f"{cfg.name}/{engine}"] = {
                    "exec_time": run.exec_time,
                    "digest": run.memory_digest,
                }
                if run.memory_digest != reference.memory_digest:
                    entry["oracle_ok"] = False
                    oracle_divergences += 1
            first = per_engine[0]
            for run in per_engine[1:]:
                if (
                    run.stats != first.stats
                    or run.memory_digest != first.memory_digest
                ):
                    entry["engine_ok"] = False
                    engine_mismatches += 1
        if lint:
            for cfg in configs:
                report = lint_scenario(spec, cfg)
                if not report.clean:
                    entry["lint_ok"] = False
                    lint_violations += len(report.findings)
                    entry.setdefault("lint_findings", []).extend(
                        f"{cfg.name}: {f.rule_id}" for f in report.findings
                    )
        details.append(entry)

    return {
        "scenarios": len(specs),
        "patterns": patterns,
        "configs": [cfg.name for cfg in configs],
        "engines": list(engines),
        "cells": len(results),
        "lint_checks": (len(specs) * len(configs)) if lint else 0,
        "oracle_divergences": oracle_divergences,
        "engine_mismatches": engine_mismatches,
        "lint_violations": lint_violations,
        "clean": not (oracle_divergences or engine_mismatches or lint_violations),
        "details": details,
    }
