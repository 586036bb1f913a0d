"""Versioned job schema: validate requests, lower them to work units, run them.

A job request is one JSON document::

    {"schema": 2, "kind": "sweep", "client": "alice", "spec": {...}}

``schema`` is the job-schema version (:data:`JOB_SCHEMA`; requests naming a
different version are rejected so clients never silently run under changed
semantics), ``kind`` one of :data:`JOB_KINDS`, ``client`` an optional quota
identity (the ``X-Repro-Client`` header wins when both are present), and
``spec`` the kind-specific parameters documented in ``docs/SERVICE.md``.

:func:`compile_job` is the one place a job kind's spec is validated and
lowered.  It produces a :class:`CompiledJob`: an ordered list of
:class:`Unit` work items — almost always
:class:`~repro.eval.parallel.SweepCell` cells — plus a ``finalize``
callable that folds the unit results into the kind's JSON-safe result
document.  Both transports execute that same object: the job server shards
the units across its worker pool, and the ``repro`` CLI hands the job to
:func:`run_job`, which runs the cells in one cached
:class:`~repro.eval.parallel.SweepExecutor` batch.  Served results therefore
equal local runs by construction.  Validation failures raise
:class:`JobError` with an HTTP-ish status (400).  Size ceilings that only
protect the server's queue (:data:`SERVER_LIMITS`, :data:`MAX_UNITS`) are
checked by :func:`check_admission` on the server's submit path, so the CLI
runs any size the lowering accepts; quota and backpressure are the
server's alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.config import (
    INTER_ADDR_L,
    INTRA_BMI,
    inter_config,
    intra_config,
)
from repro.common.errors import ConfigError
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.workloads import MODEL_ONE, MODEL_TWO

#: Version of the request document this server understands.  Bump on any
#: incompatible change to the payload layout or the per-kind spec fields;
#: requests carrying another version are rejected with a 400.  Version 2:
#: ``sweep``'s ``model`` is the memory model, as in every other kind, and
#: intra- vs inter-block follows from its ``apps``.
JOB_SCHEMA = 2

#: Job kinds the server accepts (each maps to one ``_compile_*`` lowerer).
JOB_KINDS = ("sweep", "gen", "litmus", "chaos", "lint", "fleet")

#: Job lifecycle states (see docs/SERVICE.md).  ``cancelling`` is the
#: transient window between a cancel request and the last in-flight unit
#: draining; the other five are the stable states.
JOB_STATES = (
    "queued", "running", "cancelling", "done", "failed", "cancelled",
)

#: States a job can never leave.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Hard per-job unit ceiling the server admits — admission control guards
#: the queue, this guards a single request from monopolizing it.
MAX_UNITS = 1024

#: Per-field ceilings the server admits.  Like :data:`MAX_UNITS` they
#: guard the queue, not validity, so the CLI is not bound by them.
SERVER_LIMITS: dict[str, dict[str, float]] = {
    "sweep": {
        "scale": 4.0, "num_threads": 64, "num_blocks": 16,
        "cores_per_block": 16,
    },
    "gen": {"threads": 32, "footprint_lines": 64, "rounds": 16},
    "chaos": {"plans": 100, "scale": 4.0},
    "lint": {"scale": 4.0},
    "fleet": {"scenarios": 256},
}

_SENTINEL = object()


class JobError(ValueError):
    """A job request that fails validation (HTTP 400)."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Unit:
    """One schedulable work item of a job.

    Either a sweep ``cell`` (run through a cached
    :class:`~repro.eval.parallel.SweepExecutor`, the common case) or a
    plain ``fn`` returning a JSON-safe dict (static analysis, which has no
    sweep-cell form).  Exactly one of the two is set.
    """

    label: str
    cell: SweepCell | None = None
    fn: Callable[[], dict] | None = None


@dataclass
class CompiledJob:
    """A validated job lowered to work units plus its result assembler.

    ``finalize`` receives the per-unit results in unit order (RunResult
    for cells, dicts for ``fn`` units) and returns the JSON-safe result
    document; on the server it runs on a worker thread, so CPU-bound
    assembly (e.g. the fleet's lint pass) never blocks the event loop.
    """

    kind: str
    spec: dict
    units: list[Unit]
    finalize: Callable[[list], dict]
    description: str = ""


def _expect(cond: bool, message: str) -> None:
    """Raise a 400 :class:`JobError` unless *cond* holds."""
    if not cond:
        raise JobError(message)


def _only(spec: dict, kind: str, fields: Sequence[str]) -> None:
    """Reject any spec key the kind does not define."""
    for key in spec:
        _expect(key in fields, f"spec.{key} is not a {kind} field")


def _get(spec: dict, name: str, default=_SENTINEL, *, types=None):
    """Fetch ``spec[name]`` with a default and an optional type check."""
    value = spec.get(name, default)
    if value is _SENTINEL:
        raise JobError(f"spec.{name} is required")
    if value is not default and types is not None:
        allows_bool = types is bool or (
            isinstance(types, tuple) and bool in types
        )
        if not isinstance(value, types) or (
            isinstance(value, bool) and not allows_bool
        ):
            want = (
                types.__name__
                if isinstance(types, type)
                else "/".join(t.__name__ for t in types)
            )
            raise JobError(
                f"spec.{name} must be {want} (got {type(value).__name__})"
            )
    return value


def _count(spec: dict, name: str, default: int) -> int:
    """A positive int field."""
    value = _get(spec, name, default, types=int)
    _expect(value >= 1, f"spec.{name} must be >= 1")
    return value


def _scale(spec: dict, default: float = 1.0) -> float:
    """A positive ``scale`` field."""
    value = float(_get(spec, "scale", default, types=(int, float)))
    _expect(value > 0.0, "spec.scale must be > 0")
    return value


def _engine(spec: dict) -> str | None:
    from repro.engines import available_engines

    engine = _get(spec, "engine", None, types=str)
    if engine is not None:
        _expect(
            engine in available_engines(),
            f"spec.engine must be {'|'.join(available_engines())}",
        )
    return engine


def _model(spec: dict, *, software: bool = False) -> str | None:
    """The optional ``model`` field; *software* excludes the HCC model."""
    from repro.models import available_models, software_models

    model = _get(spec, "model", None, types=str)
    if model is not None:
        names = software_models() if software else available_models()
        _expect(model in names, f"spec.model must be one of {'|'.join(names)}")
    return model


def _name_list(spec: dict, name: str, *, default=None) -> list[str]:
    values = _get(spec, name, default, types=list)
    if values is None:
        return []
    _expect(
        bool(values) and all(isinstance(v, str) for v in values),
        f"spec.{name} must be a non-empty list of names",
    )
    return list(values)


def _configs(names: Sequence[str], kind: str) -> list:
    """Resolve Table II config names of the ``intra`` or ``inter`` machine.

    Unknown names are a :class:`~repro.common.errors.ConfigError`.
    """
    lookup = intra_config if kind == "intra" else inter_config
    return [lookup(name) for name in names]


# -- per-kind lowerers -------------------------------------------------------


def _sweep_kind(apps: Sequence[str]) -> str:
    """``intra`` (Model-1 apps) or ``inter`` (Model-2): never both."""
    kinds = {}
    for app in apps:
        _expect(
            app in MODEL_ONE or app in MODEL_TWO,
            f"unknown workload {app!r} (try `repro list`)",
        )
        kinds.setdefault("intra" if app in MODEL_ONE else "inter", app)
    _expect(
        len(kinds) == 1,
        "spec.apps mixes Model-1 and Model-2 workloads "
        f"({kinds.get('intra')!r} is intra-block, "
        f"{kinds.get('inter')!r} is inter-block)",
    )
    [kind] = kinds
    return kind


def _compile_sweep(spec: dict) -> CompiledJob:
    """``sweep``: an (apps × configs) matrix, the paper's figure shape.

    The apps decide the machine: Model-1 (SPLASH) apps sweep the
    intra-block machine, Model-2 (NAS) apps the inter-block one.
    """
    _only(spec, "sweep", (
        "apps", "configs", "scale", "engine", "model", "memory_digest",
        "num_threads", "num_blocks", "cores_per_block",
    ))
    apps = _name_list(spec, "apps", default=_SENTINEL)
    kind = _sweep_kind(apps)
    configs = _configs(_name_list(spec, "configs"), kind)
    kwargs: dict[str, Any] = {"scale": _scale(spec)}
    if kind == "intra":
        kwargs["num_threads"] = _count(spec, "num_threads", 16)
    else:
        kwargs["num_blocks"] = _count(spec, "num_blocks", 4)
        kwargs["cores_per_block"] = _count(spec, "cores_per_block", 8)
    engine = _engine(spec)
    if engine is not None:
        kwargs["engine"] = engine
    model = _model(spec, software=True)
    if model is not None:
        kwargs["model"] = model
    if _get(spec, "memory_digest", False, types=bool):
        kwargs["memory_digest"] = True
    units = [
        Unit(
            f"{kind}:{app}/{cfg.name}",
            cell=SweepCell.make(kind, app, cfg, **kwargs),
        )
        for app in apps
        for cfg in configs
    ]

    def finalize(results: list) -> dict:
        flat = iter(results)
        return {
            "kind": "sweep",
            "matrix": {
                app: {cfg.name: next(flat).to_dict() for cfg in configs}
                for app in apps
            },
        }

    return CompiledJob(
        "sweep", spec, units, finalize,
        f"{kind} sweep: {len(apps)} app(s) x {len(configs)} config(s)",
    )


def _compile_gen(spec: dict) -> CompiledJob:
    """``gen``: one seeded scenario under one or more intra configs."""
    from repro.common.rng import DEFAULT_SEED
    from repro.workloads.gen import PATTERNS, ScenarioSpec

    _only(spec, "gen", (
        "pattern", "seed", "threads", "footprint_lines", "rounds", "skew",
        "configs", "engine",
    ))
    pattern = _get(spec, "pattern", types=str)
    _expect(pattern in PATTERNS, f"spec.pattern must be one of {PATTERNS}")
    sspec = ScenarioSpec(
        pattern=pattern,
        seed=_get(spec, "seed", DEFAULT_SEED, types=int),
        threads=_get(spec, "threads", 4, types=int),
        footprint_lines=_get(spec, "footprint_lines", 4, types=int),
        rounds=_get(spec, "rounds", 2, types=int),
        skew=float(_get(spec, "skew", 1.2, types=(int, float))),
    )
    configs = _configs(_name_list(spec, "configs", default=["B+M+I"]), "intra")
    engine = _engine(spec)
    kwargs: dict[str, Any] = {"spec": sspec, "memory_digest": True}
    if engine is not None:
        kwargs["engine"] = engine
    units = [
        Unit(
            f"{sspec.name}/{cfg.name}",
            cell=SweepCell.make("gen", sspec.name, cfg, **kwargs),
        )
        for cfg in configs
    ]

    def finalize(results: list) -> dict:
        digests = {r.memory_digest for r in results}
        return {
            "kind": "gen",
            "scenario": sspec.to_dict(),
            "digest": results[0].memory_digest,
            # Every config must land on the same image: generated programs
            # are coherent by construction (each cell also self-verified
            # against the analytic oracle while running).
            "coherent": len(digests) == 1,
            "cells": {
                cfg.name: r.to_dict() for cfg, r in zip(configs, results)
            },
        }

    return CompiledJob(
        "gen", spec, units, finalize,
        f"scenario {sspec.name} x {len(configs)} config(s)",
    )


def _compile_litmus(spec: dict) -> CompiledJob:
    """``litmus``: registry kernels under their default chaos configs.

    With ``spec.matrix: true``, instead compile the memory-model
    conformance grid (``repro litmus --matrix``): every selected
    (model × kernel × engine) cell plus the hardware-coherent oracle
    cells, folded into the verdict-grid document of
    :mod:`repro.models.matrix`.
    """
    from repro.workloads.litmus import LITMUS

    if _get(spec, "matrix", False, types=bool):
        return _compile_litmus_matrix(spec)
    _only(spec, "litmus", ("matrix", "all", "kernels", "engine", "model"))
    if _get(spec, "all", False, types=bool):
        kernels = list(LITMUS)
    else:
        kernels = _name_list(spec, "kernels")
    for name in kernels:
        _expect(name in LITMUS, f"unknown litmus kernel {name!r}")
    engine = _engine(spec)
    model = _model(spec)
    units = []
    for name in kernels:
        config = INTER_ADDR_L if LITMUS[name].model == "inter" else INTRA_BMI
        kwargs: dict[str, Any] = {"memory_digest": True}
        if engine is not None:
            kwargs["engine"] = engine
        if model is not None:
            kwargs["model"] = model
        units.append(
            Unit(
                f"litmus:{name}/{config.name}",
                cell=SweepCell.make("litmus", name, config, **kwargs),
            )
        )

    def finalize(results: list) -> dict:
        return {
            "kind": "litmus",
            "kernels": {
                name: r.to_dict() for name, r in zip(kernels, results)
            },
        }

    return CompiledJob(
        "litmus", spec, units, finalize, f"{len(kernels)} litmus kernel(s)"
    )


def _compile_litmus_matrix(spec: dict) -> CompiledJob:
    """``litmus`` + ``matrix: true``: the memory-model verdict grid."""
    from repro.models.matrix import assemble_matrix, matrix_axes, matrix_cells

    _only(spec, "litmus matrix", ("matrix", "models", "engines", "kernels"))
    models, kernels, engines = matrix_axes(
        _name_list(spec, "models"),
        _name_list(spec, "kernels"),
        _name_list(spec, "engines"),
    )
    cells, oracle_idx, grid_idx = matrix_cells(models, kernels, engines)
    units = [
        Unit(
            f"matrix:{cell.app}/{cell.config.name}"
            f"/{dict(cell.kwargs).get('model')}"
            f"/{dict(cell.kwargs).get('engine')}",
            cell=cell,
        )
        for cell in cells
    ]

    def finalize(results: list) -> dict:
        doc = assemble_matrix(
            models, kernels, engines, oracle_idx, grid_idx, results
        )
        doc["kind"] = "litmus"
        return doc

    return CompiledJob(
        "litmus", spec, units, finalize,
        f"model matrix: {len(models)} model(s) x {len(kernels)} "
        f"kernel(s) x {len(engines)} engine(s)",
    )


def _compile_chaos(spec: dict) -> CompiledJob:
    """``chaos``: seeded fault plans over the degraded-verification matrix."""
    from repro.common.rng import DEFAULT_SEED
    from repro.faults.chaos import assemble_chaos, chaos_cells, default_targets
    from repro.faults.model import FaultKind, random_plans
    from repro.faults.report import summarize

    _only(spec, "chaos", (
        "plans", "seed", "faults", "workloads", "scale", "model", "engine",
    ))
    num_plans = _get(spec, "plans", 3, types=int)
    seed = _get(spec, "seed", DEFAULT_SEED, types=int)
    kinds = None
    fault_names = _name_list(spec, "faults")
    if fault_names:
        try:
            kinds = [FaultKind(k) for k in fault_names]
        except ValueError as exc:
            raise JobError(
                f"{exc} (see `repro chaos --list-faults`)"
            ) from None
    targets = default_targets(
        _name_list(spec, "workloads") or None,
        scale=_scale(spec, 0.5),
        model=_model(spec, software=True),
        engine=_engine(spec),
    )
    plans = random_plans(num_plans, seed=seed, kinds=kinds)
    cells = chaos_cells(targets, plans)
    units = [
        Unit(f"chaos:{cell.kind}:{cell.app}/{cell.config.name}", cell=cell)
        for cell in cells
    ]

    def finalize(results: list) -> dict:
        summary = summarize(assemble_chaos(targets, plans, results))
        summary["kind"] = "chaos"
        return summary

    return CompiledJob(
        "chaos", spec, units, finalize,
        f"{len(targets)} target(s) x {num_plans} plan(s)",
    )


def lint_targets(spec: dict) -> list[tuple[str, str, Any]]:
    """Resolve a ``lint`` spec's targets to ``(kind, name, config)``.

    ``kind`` is the sweep kind: ``intra`` (SPLASH), ``inter`` (NAS) or
    ``litmus``; ``config`` is the Table II configuration the target is
    analyzed under (``config`` field, else Base intra / Addr inter — never
    HCC).
    """
    from repro.workloads.litmus import LITMUS

    targets: list[tuple[str, str]] = []
    if _get(spec, "all_workloads", False, types=bool):
        targets += [("intra", n) for n in sorted(MODEL_ONE)]
        targets += [("inter", n) for n in sorted(MODEL_TWO)]
    for name in _name_list(spec, "workloads"):
        if name in MODEL_ONE:
            targets.append(("intra", name))
        elif name in MODEL_TWO:
            targets.append(("inter", name))
        elif name in LITMUS:
            targets.append(("litmus", name))
        else:
            raise JobError(
                f"unknown workload or litmus kernel {name!r} "
                "(try `repro list`)"
            )
    _expect(bool(targets), "spec.workloads or spec.all_workloads required")
    config_name = _get(spec, "config", None, types=str)
    out = []
    for kind, name in targets:
        model = LITMUS[name].model if kind == "litmus" else kind
        [config] = _configs(
            [config_name or ("Base" if model == "intra" else "Addr")], model
        )
        _expect(
            not config.hardware_coherent,
            "HCC keeps the hierarchy coherent in hardware; annotations "
            "are disabled, so there is nothing to lint",
        )
        out.append((kind, name, config))
    return out


#: The small machines lint stages each target kind on.
_LINT_GEOMETRY = {
    "intra": {"num_threads": 4},
    "inter": {"num_blocks": 2, "cores_per_block": 2},
    "litmus": {},
}


def lint_subject(kind: str, name: str, config, scale: float):
    """A fresh machine with one lint target prepared (spawned, not run)."""
    from repro.eval.runner import stage

    return stage(kind, name, config, scale=scale, **_LINT_GEOMETRY[kind]).machine


def _lint_one(kind: str, name: str, config, scale: float, model: str) -> dict:
    """Lint one target; return its report dict.

    Litmus kernels also record their documented ``expected_rules`` and
    whether the findings are ``as_expected`` (broken kernels must be
    flagged with at least those rules, clean kernels with none).
    """
    from repro.analysis import lint_machine
    from repro.workloads.litmus import LITMUS

    report = lint_machine(
        lint_subject(kind, name, config, scale),
        name=name, config=config.name, model=model,
    )
    doc = report.to_dict()
    doc["clean"] = report.clean
    if kind == "litmus":
        expect = set(LITMUS[name].expect_rules)
        got = {f.rule_id for f in report.findings}
        doc["expected_rules"] = sorted(expect)
        doc["as_expected"] = expect <= got and (bool(expect) or report.clean)
    return doc


def _compile_lint(spec: dict) -> CompiledJob:
    """``lint``: the Section IV-A static analyzer over named targets."""
    from functools import partial

    _only(spec, "lint", (
        "workloads", "all_workloads", "config", "scale", "model",
    ))
    targets = lint_targets(spec)
    scale = _scale(spec, 0.5)
    model = _model(spec, software=True) or "base"
    units = [
        Unit(
            f"lint:{name}/{config.name}",
            fn=partial(_lint_one, kind, name, config, scale, model),
        )
        for kind, name, config in targets
    ]

    def finalize(results: list) -> dict:
        return {
            "kind": "lint",
            "clean": all(doc["clean"] for doc in results),
            "reports": {
                name: doc for (_, name, _), doc in zip(targets, results)
            },
        }

    return CompiledJob(
        "lint", spec, units, finalize, f"{len(targets)} lint target(s)"
    )


def _compile_fleet(spec: dict) -> CompiledJob:
    """``fleet``: N sampled scenarios × configs × engines, verdict-gated."""
    from repro.common.rng import DEFAULT_SEED
    from repro.engines import available_engines
    from repro.eval.fleet import fleet_cells, fleet_verdict
    from repro.workloads.gen import sample_specs

    _only(spec, "fleet", ("scenarios", "seed", "configs", "engines", "lint"))
    num = _get(spec, "scenarios", 8, types=int)
    seed = _get(spec, "seed", DEFAULT_SEED, types=int)
    configs = _configs(
        _name_list(spec, "configs", default=["Base", "B+M+I"]), "intra"
    )
    engines = _name_list(spec, "engines", default=["ref"])
    for engine in engines:
        _expect(
            engine in available_engines(),
            f"spec.engines must be {'|'.join(available_engines())}",
        )
    lint = _get(spec, "lint", True, types=bool)
    specs = sample_specs(num, seed=seed)
    cells = fleet_cells(specs, configs=configs, engines=engines)
    units = [
        Unit(f"fleet:{cell.app}/{cell.config.name}", cell=cell)
        for cell in cells
    ]

    def finalize(results: list) -> dict:
        verdict = fleet_verdict(
            specs, results, configs=configs, engines=engines, lint=lint
        )
        verdict["kind"] = "fleet"
        return verdict

    return CompiledJob(
        "fleet", spec, units, finalize,
        f"{num} scenario(s) x {len(configs)} config(s) x "
        f"{len(engines)} engine(s)",
    )


_COMPILERS: dict[str, Callable[[dict], CompiledJob]] = {
    "sweep": _compile_sweep,
    "gen": _compile_gen,
    "litmus": _compile_litmus,
    "chaos": _compile_chaos,
    "lint": _compile_lint,
    "fleet": _compile_fleet,
}


def compile_job(payload: Any) -> CompiledJob:
    """Validate one request document and lower it to a :class:`CompiledJob`.

    Raises :class:`JobError` (status 400) on any validation failure:
    malformed document, unknown/mismatched schema version, unknown kind,
    a spec field the kind does not define, bad field values (including
    every :class:`~repro.common.errors.ConfigError` the lowering raises),
    or a job that compiles to zero units.
    """
    _expect(isinstance(payload, dict), "request body must be a JSON object")
    schema = payload.get("schema", JOB_SCHEMA)
    _expect(
        schema == JOB_SCHEMA,
        f"unsupported job schema {schema!r} (server speaks {JOB_SCHEMA})",
    )
    kind = payload.get("kind")
    _expect(kind in JOB_KINDS, f"kind must be one of {JOB_KINDS}")
    spec = payload.get("spec", {})
    _expect(isinstance(spec, dict), "spec must be a JSON object")
    try:
        job = _COMPILERS[kind](spec)
    except ConfigError as exc:
        raise JobError(str(exc)) from None
    _expect(bool(job.units), "job compiled to zero work units")
    return job


def check_admission(job: CompiledJob) -> None:
    """Reject (400) a valid job too large for the server to queue."""
    for name, hi in SERVER_LIMITS.get(job.kind, {}).items():
        value = job.spec.get(name)
        _expect(
            value is None or value <= hi,
            f"spec.{name} must be at most {hi:g} on the server",
        )
    _expect(
        len(job.units) <= MAX_UNITS,
        f"job compiles to {len(job.units)} units (max {MAX_UNITS})",
    )


def run_job(job: CompiledJob, executor: SweepExecutor | None = None) -> dict:
    """Run every unit of *job* locally and return its result document.

    Cell units go through one :meth:`SweepExecutor.run_cells` batch (so the
    executor's worker count and result cache apply); ``fn`` units run
    in-process.  The document is exactly what the job server returns as
    the job's ``result`` for the same request.
    """
    executor = executor or SweepExecutor()
    results: list = [None] * len(job.units)
    cell_idx = [i for i, u in enumerate(job.units) if u.cell is not None]
    ran = executor.run_cells([job.units[i].cell for i in cell_idx])
    for i, result in zip(cell_idx, ran):
        results[i] = result
    for i, unit in enumerate(job.units):
        if unit.fn is not None:
            results[i] = unit.fn()
    return job.finalize(results)
