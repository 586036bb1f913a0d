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
equal local runs by construction.

Each kind's spec fields are declared once, as :class:`Field` rows
(:func:`spec_fields`): name, type, default, lower bound, server ceiling,
CLI flag and help.  The lowerers read a spec through :func:`read_spec`, the
``repro`` CLI builds its flags and specs from the same rows, and
docs/SERVICE.md's field tables are generated from them.  Validation
failures raise :class:`JobError` with an HTTP-ish status (400) naming the
field.  Size ceilings that only protect the server's queue (each field's
``ceiling`` and :data:`MAX_UNITS`) are checked by :func:`check_admission`
on the server's submit path, so the CLI runs any size the lowering
accepts; quota and backpressure are the server's alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
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


# -- spec fields -------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One spec field of a job kind, stated once for both transports.

    :meth:`read` is how the lowering gets it: a field the spec leaves out
    (or sets to ``null`` when it has no default) takes ``default``; a given
    value must have ``type`` (``list`` is a non-empty list of names), lie
    in ``choices()`` and clear ``low`` (``>= low`` for an int, ``> low``
    for a float).  ``ceiling`` is the largest value the server admits
    (:func:`check_admission`).  The CLI declares ``flag`` (an option such
    as ``--plans``, or a positional's name) with the argparse keywords in
    ``cli`` and default ``None``, so an unset flag leaves the field out of
    the spec; ``from_cli`` turns a set flag's value into the field's.
    """

    name: str
    type: type
    help: str
    default: Any = None
    required: bool = False
    low: float | None = None
    ceiling: float | None = None
    choices: Callable[[], Sequence[str]] | None = None
    flag: str | None = None
    cli: dict = field(default_factory=dict)
    from_cli: Callable[[Any], Any] | None = None

    def read(self, spec: dict) -> Any:
        """This field's value in *spec*, checked, or its default."""
        where, value = f"spec.{self.name}", spec.get(self.name)
        if value is None and (self.name not in spec or self.default is None):
            _expect(not self.required, f"{where} is required")
            value = self.default
            return list(value) if isinstance(value, list) else value
        if self.type is list:
            _expect(
                isinstance(value, list) and bool(value)
                and all(isinstance(v, str) for v in value),
                f"{where} must be a non-empty list of names",
            )
        else:
            want = (int, float) if self.type is float else self.type
            _expect(
                isinstance(value, want)
                and (self.type is bool or not isinstance(value, bool)),
                f"{where} must be "
                f"{'int/float' if self.type is float else self.type.__name__}"
                f" (got {type(value).__name__})",
            )
        if self.type is float:
            value = float(value)
            _expect(self.low is None or value > self.low,
                    f"{where} must be > {self.low:g}")
        elif self.low is not None:
            _expect(value >= self.low, f"{where} must be >= {self.low}")
        if self.choices is not None:
            names = self.choices()
            for v in value if self.type is list else (value,):
                _expect(v in names, f"{where} must be one of {'|'.join(names)}")
        return list(value) if self.type is list else value


# ``Field.from_cli`` converters.  Each docstring is the converter's entry
# in docs/SERVICE.md's generated flag table.


def _one(value: str) -> list[str]:
    """a one-element list"""
    return [value]


def _csv(value: str) -> list[str] | None:
    """split at commas"""
    return [n for n in value.split(",") if n] or None


def _given(values: list[str]) -> list[str] | None:
    """left out when empty"""
    return values or None


def _off(_: bool) -> bool:
    """false"""
    return False


@cache
def _field_tables() -> dict[str, tuple[Field, ...]]:
    """Every job kind's spec fields, in the order the CLI lists their flags.

    ``litmus matrix`` is a ``litmus`` spec with ``matrix: true``, which
    takes its own fields.  Built on first use: the choices and some
    defaults live in modules a plain import of this one should not load.
    """
    from repro.common.rng import DEFAULT_SEED
    from repro.engines import available_engines
    from repro.faults.chaos import CHAOS_SCALE
    from repro.models import available_models, software_models
    from repro.workloads.gen import PATTERNS, ScenarioSpec

    seed = partial(Field, "seed", int, default=DEFAULT_SEED, flag="--seed")
    scale = partial(Field, "scale", float, low=0.0, ceiling=4.0, flag="--scale")
    model = partial(Field, "model", str, choices=software_models, flag="--model")
    names = partial(Field, type=list, cli={"metavar": "NAME,NAME"},
                    from_cli=_csv)

    def engine(help: str) -> Field:
        return Field("engine", str, f"{help} (default: $REPRO_ENGINE or ref)",
                     choices=available_engines, flag="--engine")

    kernels = Field(
        "kernels", list, "litmus kernel names (default: every registered "
        "kernel)", flag="kernel", cli={"nargs": "*"}, from_cli=_given,
    )
    matrix = Field("matrix", bool, "compile the (model x kernel x engine) "
                   "conformance grid instead", False, flag="--matrix")
    return {
        "sweep": (
            Field("apps", list, "workloads: all Model-1 (the intra-block "
                  "machine) or all Model-2 (the inter-block one)",
                  required=True, flag="workload", from_cli=_one),
            Field("configs", list, "Table II configs of that machine (the "
                  "CLI's default: B+M+I or Addr+L)", required=True,
                  flag="--config", from_cli=_one),
            scale("workload scale", 1.0),
            Field("num_threads", int, "intra-block threads", 16, low=1,
                  ceiling=64),
            Field("num_blocks", int, "inter-block blocks", 4, low=1,
                  ceiling=16),
            Field("cores_per_block", int, "inter-block cores per block", 8,
                  low=1, ceiling=16),
            engine("simulator core of every cell"),
            model("memory model for the software-coherent cells (default: "
                  "base; HCC cells always run MESI); the result cache keys "
                  "on it"),
            Field("memory_digest", bool, "record each cell's final-memory "
                  "digest", False),
        ),
        "gen": (
            Field("pattern", str, "sharing pattern (see --list-patterns)",
                  required=True, choices=lambda: PATTERNS, flag="pattern",
                  cli={"nargs": "?"}),
            seed("scenario seed"),
            Field("threads", int, "threads", ScenarioSpec.threads, low=2,
                  ceiling=32, flag="--threads"),
            Field("footprint_lines", int, "shared-data footprint in cache "
                  "lines", ScenarioSpec.footprint_lines, low=1, ceiling=64,
                  flag="--footprint", cli={"metavar": "LINES"}),
            Field("rounds", int, "rounds", ScenarioSpec.rounds, low=1,
                  ceiling=16, flag="--rounds"),
            Field("skew", float, "Zipf exponent for zipf_hot",
                  ScenarioSpec.skew, low=0.0, flag="--skew"),
            Field("configs", list, "Table II intra configs (--config names "
                  "one)", ["B+M+I"], flag="--config", from_cli=_one),
            engine("simulator core"),
        ),
        "litmus": (
            matrix,
            kernels,
            Field("all", bool, "run every registered kernel, as when none "
                  "is named", False),
            model("memory model for direct runs (default: base)",
                  choices=available_models),
            engine("simulator core for direct runs"),
        ),
        "litmus matrix": (
            matrix,
            kernels,
            names("models", help="the grid's model axis (default: every "
                  "registered model)", flag="--models"),
            names("engines", help="the grid's engine axis (default: every "
                  "registered engine)", flag="--engines"),
        ),
        "chaos": (
            Field("workloads", list, "chaos targets: a workload or "
                  "litmus-kernel name, 'litmus' for every determinate "
                  "kernel, or 'tiny' for the small-cache pressure target "
                  "(default: litmus + fft + lu_cont + is + tiny)",
                  flag="--workload",
                  cli={"action": "append", "metavar": "NAME"}),
            Field("plans", int, "number of seeded random fault plans", 3,
                  low=1, ceiling=100, flag="--plans"),
            seed("root seed for plan generation; the whole sweep "
                 "reproduces from this one value"),
            names("faults", help="restrict plans to these fault kinds (see "
                  "--list-faults; default: all kinds)", flag="--faults",
                  cli={"metavar": "KIND,KIND"}),
            scale("workload scale of every chaos cell", CHAOS_SCALE),
            engine("simulator core of every chaos cell, the HCC reference "
                   "included"),
            model("memory model for the software-coherent chaos cells "
                  "(default: base); HCC reference cells are unaffected"),
        ),
        "lint": (
            Field("workloads", list, "workload or litmus-kernel names (see "
                  "`repro list`)", flag="workload", cli={"nargs": "*"},
                  from_cli=_given),
            Field("all_workloads", bool, "lint every shipped SPLASH/NAS "
                  "workload", False, flag="--all-workloads"),
            Field("config", str, "Table II config to analyze under "
                  "(default: Base intra, Addr inter; HCC is rejected — "
                  "nothing to lint)", flag="--config"),
            model("memory model whose lint profile parameterizes the rule "
                  "catalog: findings of rules that model discharges in the "
                  "protocol are waived (litmus expectations are documented "
                  "for base)", "base"),
            scale("workload scale", 0.5),
        ),
        "fleet": (
            Field("scenarios", int, "number of sampled scenarios", 8, low=1,
                  ceiling=256, flag="--scenarios", cli={"metavar": "N"}),
            seed("root seed for scenario sampling; the whole fleet "
                 "reproduces from this one value"),
            names("engines", help="simulator cores to cross-check",
                  default=["ref"], choices=available_engines,
                  flag="--engines"),
            names("configs", help="software-coherent Table II intra "
                  "configs; the HCC reference is implicit",
                  default=["Base", "B+M+I"], flag="--configs"),
            Field("lint", bool, "run the static Section IV-A lint pass "
                  "(--no-lint skips it)", True, flag="--no-lint",
                  from_cli=_off),
        ),
    }


def spec_fields(kind: str) -> tuple[Field, ...]:
    """The spec fields of *kind* (a :data:`JOB_KINDS` name or ``litmus matrix``)."""
    return _field_tables()[kind]


def read_spec(kind: str, spec: dict) -> dict[str, Any]:
    """Every field of *kind* read from *spec* by :meth:`Field.read`.

    A key the kind does not define is a 400 naming it.
    """
    fields = spec_fields(kind)
    known = {f.name for f in fields}
    for key in spec:
        _expect(key in known, f"spec.{key} is not a {kind} field")
    return {f.name: f.read(spec) for f in fields}


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
    v = read_spec("sweep", spec)
    apps = v["apps"]
    kind = _sweep_kind(apps)
    configs = _configs(v["configs"], kind)
    machine = ("num_threads",) if kind == "intra" else (
        "num_blocks", "cores_per_block",
    )
    kwargs: dict[str, Any] = {"scale": v["scale"]}
    kwargs.update((k, v[k]) for k in machine)
    kwargs.update((k, v[k]) for k in ("engine", "model") if v[k] is not None)
    if v["memory_digest"]:
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
    from repro.workloads.gen import ScenarioSpec

    v = read_spec("gen", spec)
    sspec = ScenarioSpec(
        pattern=v["pattern"],
        seed=v["seed"],
        threads=v["threads"],
        footprint_lines=v["footprint_lines"],
        rounds=v["rounds"],
        skew=v["skew"],
    )
    configs = _configs(v["configs"], "intra")
    kwargs: dict[str, Any] = {"spec": sspec, "memory_digest": True}
    if v["engine"] is not None:
        kwargs["engine"] = v["engine"]
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

    if spec.get("matrix") is True:
        return _compile_litmus_matrix(spec)
    v = read_spec("litmus", spec)
    kernels = list(LITMUS) if v["all"] else v["kernels"] or list(LITMUS)
    for name in kernels:
        _expect(name in LITMUS, f"unknown litmus kernel {name!r}")
    kwargs: dict[str, Any] = {"memory_digest": True}
    kwargs.update((k, v[k]) for k in ("engine", "model") if v[k] is not None)
    units = []
    for name in kernels:
        config = INTER_ADDR_L if LITMUS[name].model == "inter" else INTRA_BMI
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

    v = read_spec("litmus matrix", spec)
    models, kernels, engines = matrix_axes(
        v["models"], v["kernels"], v["engines"]
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
    from repro.faults.chaos import assemble_chaos, chaos_cells, default_targets
    from repro.faults.model import FaultKind, random_plans
    from repro.faults.report import summarize

    v = read_spec("chaos", spec)
    kinds = None
    if v["faults"]:
        try:
            kinds = [FaultKind(k) for k in v["faults"]]
        except ValueError as exc:
            raise JobError(
                f"{exc} (see `repro chaos --list-faults`)"
            ) from None
    targets = default_targets(
        v["workloads"], scale=v["scale"], model=v["model"], engine=v["engine"],
    )
    plans = random_plans(v["plans"], seed=v["seed"], kinds=kinds)
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
        f"{len(targets)} target(s) x {len(plans)} plan(s)",
    )


def lint_targets(v: dict) -> list[tuple[str, str, Any]]:
    """Resolve a read ``lint`` spec's targets to ``(kind, name, config)``.

    *v* is ``read_spec("lint", spec)``.  ``kind`` is the sweep kind:
    ``intra`` (SPLASH), ``inter`` (NAS) or ``litmus``; ``config`` is the
    Table II configuration the target is analyzed under (``config`` field,
    else Base intra / Addr inter — never HCC).
    """
    from repro.workloads.litmus import LITMUS

    targets: list[tuple[str, str]] = []
    if v["all_workloads"]:
        targets += [("intra", n) for n in sorted(MODEL_ONE)]
        targets += [("inter", n) for n in sorted(MODEL_TWO)]
    for name in v["workloads"] or ():
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
    out = []
    for kind, name in targets:
        model = LITMUS[name].model if kind == "litmus" else kind
        [config] = _configs(
            [v["config"] or ("Base" if model == "intra" else "Addr")], model
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
    v = read_spec("lint", spec)
    targets = lint_targets(v)
    units = [
        Unit(
            f"lint:{name}/{config.name}",
            fn=partial(_lint_one, kind, name, config, v["scale"], v["model"]),
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
    from repro.eval.fleet import fleet_cells, fleet_verdict
    from repro.workloads.gen import sample_specs

    v = read_spec("fleet", spec)
    configs = _configs(v["configs"], "intra")
    engines = v["engines"]
    specs = sample_specs(v["scenarios"], seed=v["seed"])
    cells = fleet_cells(specs, configs=configs, engines=engines)
    units = [
        Unit(f"fleet:{cell.app}/{cell.config.name}", cell=cell)
        for cell in cells
    ]

    def finalize(results: list) -> dict:
        verdict = fleet_verdict(
            specs, results, configs=configs, engines=engines, lint=v["lint"]
        )
        verdict["kind"] = "fleet"
        return verdict

    return CompiledJob(
        "fleet", spec, units, finalize,
        f"{len(specs)} scenario(s) x {len(configs)} config(s) x "
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
    for f in spec_fields(job.kind):
        value = job.spec.get(f.name)
        if f.ceiling is not None and value is not None:
            _expect(
                value <= f.ceiling,
                f"spec.{f.name} must be at most {f.ceiling:g} on the server",
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
