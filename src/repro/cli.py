"""Command-line interface: run experiments and regenerate paper artifacts.

Usage (also via ``python -m repro``)::

    repro list                              # workloads and configurations
    repro run fft --config B+M+I            # one intra-block run
    repro run cg --config Addr+L --scale .5 # one inter-block run
    repro fig9 [--scale S] [--jobs N]       # regenerate a figure/table
    repro fig10 | fig11 | fig12 | table1 | table3 | storage
    repro trace fft --config B+M+I --out t.jsonl   # traced replay of a cell
    repro gen zipf_hot --seed 7 --config B+M+I     # one generated scenario
    repro replay t.jsonl --roundtrip        # trace -> workload -> re-trace
    repro fleet --scenarios 32 --engines ref,fast  # auto-checked scenario fleet
    repro lint --all-workloads              # static WB/INV annotation check
    repro lint missing_annotations --fix    # auto-insert + verify vs HCC
    repro litmus mp_flag --model rc         # one litmus kernel, one model
    repro litmus --matrix --json            # model x kernel x engine grid
    repro chaos --plans 100 --seed 7        # seeded fault-injection sweep
    repro chaos --list-faults               # injectable fault catalog
    repro serve --port 8787 --workers 8     # HTTP/JSON job server (SERVICE.md)
    repro serve --journal j/ --resume       # durable: WAL + crash recovery
    repro serve --chaos-kill                # SIGKILL/corrupt/resume drill
    repro cache stats | verify | gc         # result-cache integrity tooling

Engine selection: ``--engine NAME`` picks the registered simulator core —
``ref`` is the dict-based reference, ``fast`` the packed-array core (see
``repro.engines``).  Both are bit-identical by contract.  The flag is the
job spec's ``engine`` field, so it reaches every cell (worker processes
included) as a cell argument; without it, ``$REPRO_ENGINE`` (else
``ref``) is the process default.  The CLI never writes that variable.

Memory-model selection: ``--model NAME`` picks the registered consistency
backend (``base``, ``rc``, ``sisd``) for software-coherent configurations
(see ``repro.models``; hardware-coherent Table II configs always run
directory MESI).  It is the spec's ``model`` field; ``base`` is the
default.  Models are *not* bit-identical in
timing, so the result cache keys on the effective model id.
``repro litmus --matrix`` is the conformance grid over every registered
model.

One job definition: ``fig9``–``fig12``, ``run`` and ``trace`` build a
``sweep`` job (intra- or inter-block follows from its apps), and
``gen``, ``litmus``, ``chaos``, ``lint`` and ``fleet`` the job server's
kinds of the same names.  Their job flags are built from the kind's field
table (:func:`repro.serve.jobs.spec_fields`) and default to unset, so an
unset flag leaves its field out of the spec and the kind's own default
applies.  Each command turns its flags into that kind's spec
dict, lowers it with :func:`repro.serve.jobs.compile_job` (the only place
a spec is validated — a spec it rejects is a usage error here, exit 2,
named by its flag; the server's queue-size ceilings do not apply), runs
the units locally with :func:`repro.serve.jobs.run_job`, and renders the
result document.  ``--json`` prints that document exactly as the server
returns it; the text output is rendered from it.  CLI-only extras
(``run --staleness``, ``lint --fix``/``--dump-cfg``, the program digest
and lint line of ``gen``) are thin additions on top.

Sweeps fan out over ``--jobs`` worker processes (default: CPU count) and
reuse verified results from the persistent cache under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-sweeps``); ``--no-cache``
forces fresh simulation and ``--clear-cache`` empties the cache first.

Observability: ``--trace DIR`` / ``--metrics PATH`` on the figure commands
run the same compiled sweep job's cells serially in-process, each with
per-operation event tracing and a metrics registry attached, then fold
them with the job's own finalizer.  Tracing is bit-identical-neutral, so
the printed table does not change.  ``repro trace`` does the same for a
one-cell sweep and can also emit a Chrome ``trace_event`` file for
chrome://tracing.

Every ``run`` is functionally verified before its statistics print, exactly
like the test suite.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.params import inter_block_machine, intra_block_machine
from repro.core.config import (
    INTER_CONFIGS,
    INTRA_CONFIGS,
    inter_config,
    intra_config,
)
from repro.eval import report as rpt
from repro.eval.storage import storage_report
from repro.sim.stats import StallCat
from repro.workloads import MODEL_ONE, MODEL_TWO


def _cmd_list(_args) -> int:
    from repro.workloads.litmus import LITMUS

    print("Model-1 workloads (intra-block, SPLASH-2):")
    for name, cls in sorted(MODEL_ONE.items()):
        print(f"  {name:14s} main: {', '.join(cls.main_patterns)}")
    print("Model-2 workloads (inter-block, NAS/Jacobi):")
    for name in sorted(MODEL_TWO):
        print(f"  {name}")
    print("Litmus kernels (repro lint --litmus / tests/coherence):")
    for name, kernel in LITMUS.items():
        tag = "ok" if kernel.lint_clean else ",".join(kernel.expect_rules)
        print(f"  {name:34s} [{kernel.model}] {tag}")
    print("Intra configs: " + ", ".join(c.name for c in INTRA_CONFIGS))
    print("Inter configs: " + ", ".join(c.name for c in INTER_CONFIGS))
    return 0


def _cmd_run(args) -> int:
    """One verified (workload, config) cell: a one-cell ``sweep`` job.

    A failed verify prints one ``APP under CFG: verify FAILED (msg)``
    verdict line and exits 1 on both paths.
    """
    from repro.eval.parallel import SweepExecutor
    from repro.eval.runner import RunResult
    from repro.serve.jobs import run_job

    app = args.workload
    job = _compile("sweep", spec_from_args("sweep", args))
    [unit] = job.units
    cell = unit.cell
    if args.staleness:
        from repro.eval.runner import stage

        # The job's one cell, staged with the stale-read detector on.
        staged = stage(
            cell.kind, app, cell.config, detect_staleness=True,
            **dict(cell.kwargs),
        )
        # The detector's report is printed whatever the verifier finds.
        staged.run(verify=False)
        machine = staged.machine
        failure = None
        try:
            staged.check(machine, staged.handle)
        except AssertionError as exc:
            failure = exc
        verdict = "verified OK" if failure is None else f"verify FAILED ({failure})"
        n = len(machine.stale_reads)
        print(f"{app} under {cell.config.name}: {verdict}, "
              f"{n} stale read(s) detected")
        for event in machine.stale_reads[:10]:
            print(f"  {event!r}")
        return 0 if n == 0 and failure is None else 1
    try:
        doc = run_job(job, SweepExecutor(jobs=1))
    except AssertionError as exc:
        print(f"{app} under {cell.config.name}: verify FAILED ({exc})")
        return 1
    [row] = doc["matrix"].values()
    [entry] = row.values()
    result = RunResult.from_dict(entry)
    stats = result.stats
    print(f"{app} under {result.config}: verified OK")
    print(f"  exec time     {stats.exec_time} cycles")
    for cat in StallCat:
        print(f"  {cat.value:14s}{stats.breakdown()[cat.value]:12.0f}")
    print(f"  traffic       {stats.total_flits} flits "
          + str({c.value: v for c, v in stats.traffic.items()}))
    s = stats.summary()
    print(f"  loads/stores  {s['loads']}/{s['stores']}  "
          f"L1 miss rate {s['l1_misses'] / max(1, s['loads'] + s['stores']):.3f}")
    if stats.global_wb_lines or stats.local_wb_lines:
        print(f"  WB lines      global {stats.global_wb_lines}, "
              f"local {stats.local_wb_lines}")
        print(f"  INV lines     global {stats.global_inv_lines}, "
              f"local {stats.local_inv_lines}")
    return 0


_PAPER_INTER_APPS = ["cg", "ep", "is", "jacobi"]

#: Each paper figure's sweep — (apps, Table II configs, renderer) — run by
#: the figure commands.
_FIGURES = {
    "fig9": (
        sorted(MODEL_ONE), [c.name for c in INTRA_CONFIGS], rpt.render_fig9,
    ),
    "fig10": (sorted(MODEL_ONE), ["HCC", "B+M+I"], rpt.render_fig10),
    "fig11": (_PAPER_INTER_APPS, ["Addr", "Addr+L"], rpt.render_fig11),
    "fig12": (
        _PAPER_INTER_APPS, [c.name for c in INTER_CONFIGS], rpt.render_fig12,
    ),
}


def _sweep_executor(args):
    """Build the SweepExecutor a figure command asked for on its flags."""
    from repro.eval.cache import ResultCache
    from repro.eval.parallel import SweepExecutor

    cache = None if args.no_cache else ResultCache()
    if args.clear_cache:
        n = (cache or ResultCache()).clear()
        print(f"cache cleared ({n} entries)", file=sys.stderr)
    return SweepExecutor(jobs=args.jobs, cache=cache)


def spec_from_args(kind: str, args) -> dict:
    """The *kind* job spec of the parsed flags: one entry per flag set.

    *kind* names a field table (:func:`repro.serve.jobs.spec_fields`).  An
    unset flag is ``None`` and stays out of the spec, so the kind's own
    default applies.
    """
    from repro.serve.jobs import spec_fields

    spec = {}
    for f in spec_fields(kind):
        if f.flag is None:
            continue
        value = getattr(args, f.flag.lstrip("-").replace("-", "_"), None)
        if value is not None and f.from_cli is not None:
            value = f.from_cli(value)
        if value is not None:
            spec[f.name] = value
    return spec


def _compile(kind: str, spec: dict):
    """Lower a *kind* spec (a field-table name) through the shared job schema.

    A spec the lowering rejects is a usage error here, reported against
    the flag rather than the spec field it set.
    """
    import re

    from repro.common.errors import ConfigError
    from repro.serve.jobs import JobError, compile_job, spec_fields

    try:
        return compile_job({"kind": kind.split()[0], "spec": spec})
    except JobError as exc:
        flags = {
            f.name: f.flag if f.flag.startswith("-") else f.flag.upper()
            for f in spec_fields(kind) if f.flag is not None
        }
        message = re.sub(
            r"spec\.(\w+)",
            lambda m: flags.get(m.group(1), m.group(0)),
            str(exc),
        )
        raise ConfigError(message) from None


def _run(kind: str, spec: dict, args=None):
    """Compile one job and run its units locally; return (document, executor).

    The executor honours the sweep flags on *args* (``--jobs``,
    ``--no-cache``, ``--clear-cache``); without *args* it is serial and
    uncached.  The document is exactly the served job's ``result``.
    """
    from repro.eval.parallel import SweepExecutor
    from repro.serve.jobs import run_job

    job = _compile(kind, spec)
    ex = SweepExecutor(jobs=1) if args is None else _sweep_executor(args)
    return run_job(job, ex), ex


def _cmd_figure(args) -> int:
    """``fig9``–``fig12``: run the figure's sweep job and render its table.

    Plain runs fan out through the worker pool and the persistent cache.
    With ``--trace``/``--metrics`` the same compiled job's cells run
    serially in-process instead (tracers do not cross process
    boundaries); tracing is bit-identical-neutral, so both paths render
    the same table.
    """
    from repro.eval.runner import RunResult

    apps, configs, render = _FIGURES[args.command]
    spec = {**spec_from_args("sweep", args), "apps": apps, "configs": configs}
    if args.trace is None and args.metrics is None:
        doc, ex = _run("sweep", spec, args)
        print(ex.stats.summary(), file=sys.stderr)
    else:
        from repro.obs.replay import run_traced_job

        doc = run_traced_job(
            _compile("sweep", spec),
            trace_dir=args.trace, metrics_path=args.metrics,
        )
        if args.trace is not None:
            print(f"traces written under {args.trace}", file=sys.stderr)
        if args.metrics is not None:
            print(f"metrics written to {args.metrics}", file=sys.stderr)
    print(render({
        app: {cfg: RunResult.from_dict(d) for cfg, d in row.items()}
        for app, row in doc["matrix"].items()
    }))
    return 0


def _cmd_trace(args) -> int:
    """Replay one (workload, config) cell with tracing and metrics on."""
    import json
    import pathlib

    from repro.obs.replay import cell_trace_name, run_traced

    [unit] = _compile("sweep", spec_from_args("sweep", args)).units
    result, tracer, metrics = run_traced(unit.cell)
    out = pathlib.Path(args.out or cell_trace_name(args.workload, result.config))
    tracer.write_jsonl(out)
    print(f"{args.workload} under {result.config}: verified OK, "
          f"{len(tracer.events)} events -> {out}")
    if args.chrome is not None:
        tracer.write_chrome(args.chrome)
        print(f"chrome trace -> {args.chrome}  "
              "(open chrome://tracing and load it)")
    if args.metrics is not None:
        pathlib.Path(args.metrics).write_text(
            json.dumps(metrics.snapshot(), indent=1, sort_keys=True)
        )
        print(f"metrics -> {args.metrics}")
    print(f"  exec time     {result.exec_time} cycles")
    for name in ("proto.lines_written_back", "proto.lines_invalidated",
                 "proto.stale_reads", "mesi.dir_invalidations"):
        if name in metrics.counters:
            print(f"  {name:26s}{metrics.counters[name]:10d}")
    return 0


def _cmd_gen(args) -> int:
    """Build, run, and verify one generated scenario (the ``gen`` job)."""
    from repro.workloads.gen import (
        PATTERNS,
        ScenarioSpec,
        build_scenario,
        lint_scenario,
    )

    if args.list_patterns:
        print("Generator patterns (repro.workloads.gen):")
        for name in PATTERNS:
            print(f"  {name}")
        return 0
    if args.pattern is None:
        print("repro gen: name a pattern (see --list-patterns)", file=sys.stderr)
        return 2
    doc, _ = _run("gen", spec_from_args("gen", args))
    [(config_name, cell)] = doc["cells"].items()
    config = intra_config(config_name)
    spec = ScenarioSpec.from_dict(doc["scenario"])
    scenario = build_scenario(spec)
    ops = sum(len(p) for p in scenario.programs)
    print(f"{spec.name} under {config.name}: verified OK")
    print(f"  spec digest    {spec.digest()}")
    print(f"  program digest {scenario.program_digest()}")
    print(f"  macros         {ops} across {spec.threads} thread(s)")
    print(f"  exec time      {cell['stats']['exec_time']} cycles")
    print(f"  memory digest  {doc['digest']}")
    if not config.hardware_coherent:
        report = lint_scenario(spec, config)
        verdict = "clean" if report.clean else ", ".join(
            f.rule_id for f in report.findings
        )
        print(f"  lint           {verdict}")
        return 0 if report.clean else 1
    return 0


def _cmd_replay(args) -> int:
    """Replay a recorded JSONL trace as a first-class workload."""
    from repro.common.errors import ConfigError
    from repro.obs.schema import TraceSchemaError
    from repro.obs.trace import Tracer
    from repro.workloads.replay import (
        infer_num_threads,
        load_events,
        programs_by_core,
        run_replay,
    )

    try:
        events = load_events(args.trace)
    except (OSError, TraceSchemaError) as exc:
        raise ConfigError(f"cannot replay {args.trace}: {exc}") from None
    streams = programs_by_core(events)
    num_threads = args.threads or infer_num_threads(streams)
    name = args.config or ("B+M+I" if args.model == "intra" else "Addr+L")
    config = intra_config(name) if args.model == "intra" else inter_config(name)
    params = None
    if args.model == "inter":
        params = inter_block_machine(args.blocks, args.cores_per_block)
    tracer = Tracer() if (args.out or args.roundtrip) else None
    result = run_replay(
        events, config, machine_params=params, num_threads=num_threads,
        tracer=tracer, memory_digest=True, engine=args.engine,
    )
    nops = sum(len(s) for s in streams.values())
    print(f"replay of {args.trace} under {config.name}: "
          f"{nops} op(s) on {num_threads} thread(s)")
    print(f"  exec time     {result.exec_time} cycles")
    print(f"  memory digest {result.memory_digest}")
    if args.out:
        tracer.write_jsonl(args.out)
        print(f"  re-recorded   {len(tracer.events)} event(s) -> {args.out}")
    if args.roundtrip:
        if tracer.events == events:
            print(f"  round-trip    bit-identical ({len(events)} events)")
        else:
            diffs = sum(
                1 for a, b in zip(tracer.events, events) if a != b
            ) + abs(len(tracer.events) - len(events))
            print(f"  round-trip    FAILED: {diffs} differing event(s) "
                  f"({len(events)} recorded, {len(tracer.events)} replayed)")
            return 1
    return 0


def _cmd_fleet(args) -> int:
    """N generated scenarios × configs × engines (the ``fleet`` job)."""
    import json
    import pathlib

    verdict, ex = _run("fleet", spec_from_args("fleet", args), args)
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(verdict, indent=1, sort_keys=True)
        )
        print(f"fleet verdict -> {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(verdict, indent=1, sort_keys=True))
    else:
        print(f"fleet: {verdict['scenarios']} scenario(s) "
              f"({', '.join(f'{k}={v}' for k, v in sorted(verdict['patterns'].items()))})")
        print(f"  configs  {', '.join(verdict['configs'])}  "
              f"engines {', '.join(verdict['engines'])}  "
              f"cells {verdict['cells']}")
        print(f"  oracle divergences  {verdict['oracle_divergences']}")
        print(f"  engine mismatches   {verdict['engine_mismatches']}")
        print(f"  lint violations     {verdict['lint_violations']} "
              f"({verdict['lint_checks']} check(s))")
        print(f"  {ex.stats.summary()}")
        print("  verdict: CLEAN" if verdict["clean"] else "  verdict: DIRTY")
    return 0 if verdict["clean"] else 1


def _cmd_lint(args) -> int:
    """Static WB/INV annotation check (the ``lint`` job) plus CLI extras."""
    import json

    from repro.analysis import render_report
    from repro.common.errors import ConfigError
    from repro.workloads.litmus import LITMUS

    spec = spec_from_args("lint", args)
    given = [flag for flag, on in (("--all-workloads", args.all_workloads),
                                   ("--litmus", args.litmus)) if on]
    given += spec.get("workloads", [])
    if len(given) > 1 and (args.all_workloads or args.litmus):
        raise ConfigError(
            f"{' and '.join(given)}: lint takes named targets, "
            "--all-workloads or --litmus, only one of them"
        )
    if args.litmus:
        spec["workloads"] = list(LITMUS)
    elif not given:
        raise ConfigError(
            "nothing to lint: name a workload/litmus kernel, or pass "
            "--all-workloads / --litmus"
        )
    if args.dump_cfg:
        from repro.analysis import extract
        from repro.analysis.cfg import build_cfgs, render_cfg
        from repro.serve.jobs import lint_subject, lint_targets, read_spec

        _compile("lint", spec)  # validate exactly as a lint run would
        v = read_spec("lint", spec)
        for kind, name, config in lint_targets(v):
            trace = extract(lint_subject(kind, name, config, v["scale"]))
            for cfg_ in build_cfgs(trace):
                print(render_cfg(cfg_))
        return 0
    doc, _ = _run("lint", spec)
    worst = 0
    for name, entry in doc["reports"].items():
        litmus = "expected_rules" in entry  # only litmus reports carry it
        if not args.json:
            print(render_report(entry))
            if args.litmus:
                verdict = "as expected" if entry["as_expected"] else (
                    "UNEXPECTED (wanted "
                    + (", ".join(entry["expected_rules"]) or "clean") + ")"
                )
                print(f"  -> {verdict}")
        errors = entry["summary"]["errors"]
        fixed: int | None = None
        if args.fix and errors:
            if not litmus:
                print(f"{name}: --fix supports litmus kernels only",
                      file=sys.stderr)
                return 2
            lookup = (
                intra_config if LITMUS[name].model == "intra" else inter_config
            )
            fixed = _run_fix(name, lookup(entry["config"]), args.json)
        if args.litmus:
            # Cross-validation mode: broken kernels are *supposed* to be
            # flagged, so the exit status tracks expectation mismatches.
            if not entry["as_expected"]:
                worst = max(worst, 1)
        elif fixed is not None:
            worst = max(worst, fixed)
        elif errors:
            worst = max(worst, 1)
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    return worst


def _run_fix(name: str, config, as_json: bool) -> int:
    """Verify ``--fix`` on one litmus kernel; returns the exit status."""
    from repro.analysis import lint_machine
    from repro.analysis.fix import apply_fixes, plan_fixes, render_plan
    from repro.core.config import INTER_HCC, INTRA_HCC
    from repro.eval.runner import stage
    from repro.workloads.litmus import LITMUS

    kernel = LITMUS[name]
    hcc = INTRA_HCC if kernel.model == "intra" else INTER_HCC

    def staged(cfg, plan=None):
        subject = stage("litmus", name, cfg)
        if plan:
            apply_fixes(subject.machine, plan)
        return subject

    def outcome(cfg, plan=None):
        subject = staged(cfg, plan)
        subject.run(verify=False)
        arrs, obs = subject.handle
        return obs, {n: subject.machine.read_array(a) for n, a in arrs.items()}

    planner = staged(config).machine
    plan = plan_fixes(
        lint_machine(planner, name=name, config=config.name), planner
    )
    if not as_json:
        print(render_plan(plan))
    fixed = outcome(config, plan)
    reference = outcome(hcc)
    relint_machine = staged(config, plan).machine
    relint = lint_machine(relint_machine, name=name, config=config.name)
    ok = fixed == reference and relint.errors == 0
    if not as_json:
        if ok:
            print(f"  fix verified: {name} under {config.name} now matches "
                  "the HCC reference bit-for-bit and re-lints clean")
        else:
            print(f"  FIX FAILED for {name} under {config.name}: "
                  f"fixed={fixed} reference={reference}, "
                  f"{relint.errors} residual error(s)")
    return 0 if ok else 1


def _cmd_litmus(args) -> int:
    """Run litmus kernels directly, or the memory-model matrix (--matrix)."""
    import json
    import pathlib

    from repro.workloads.litmus import LITMUS

    if args.matrix:
        from repro.models.matrix import render_matrix

        doc, ex = _run(
            "litmus matrix", spec_from_args("litmus matrix", args), args
        )
        if args.out:
            pathlib.Path(args.out).write_text(
                json.dumps(doc, indent=1, sort_keys=True)
            )
            print(f"matrix -> {args.out}", file=sys.stderr)
        if args.json:
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            print(render_matrix(doc, ex.stats.summary()))
        return 0 if doc["ok"] else 1

    # Direct mode: run each kernel once under the selected model; every
    # determinate kernel's self-checking oracle runs inside its cell.
    from repro.serve.jobs import run_job

    ex = _sweep_executor(args)
    spec = spec_from_args("litmus", args)

    def litmus_job(job_spec):
        return run_job(_compile("litmus", job_spec), ex)

    try:
        doc = litmus_job(spec)
    except AssertionError:
        # The batch stops at the first failing oracle: rerun kernel by
        # kernel so every failure is named and the rest still run.
        worst = 0
        rest = {k: v for k, v in spec.items() if k not in ("all", "kernels")}
        for name in args.kernel or list(LITMUS):
            try:
                doc = litmus_job({**rest, "kernels": [name]})
            except AssertionError as exc:
                print(f"{name:36s} [{LITMUS[name].model}] "
                      f"ORACLE FAILED: {exc}",
                      file=sys.stderr if args.json else sys.stdout)
                worst = 1
                continue
            if not args.json:
                _print_litmus(doc)
        return worst
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        _print_litmus(doc)
    return 0


def _print_litmus(doc: dict) -> None:
    """One line per kernel of a direct ``litmus`` job document."""
    from repro.workloads.litmus import LITMUS

    for name, cell in doc["kernels"].items():
        kernel = LITMUS[name]
        tag = (
            "verified" if kernel.determinate and kernel.check
            else "ran (no oracle)"
        )
        print(f"{name:36s} [{kernel.model}] {tag}  "
              f"exec {cell['stats']['exec_time']} cycles  "
              f"digest {cell['memory_digest']}")


def _cmd_chaos(args) -> int:
    """Seeded fault-injection sweep (the ``chaos`` job)."""
    from repro.faults import report as frpt
    from repro.faults.model import FAULT_CATALOG, FaultKind

    if args.list_faults:
        print("Fault kinds (repro.faults):")
        for kind in FaultKind:
            print(f"  {kind.value:22s}{FAULT_CATALOG[kind]}")
        return 0
    doc, ex = _run("chaos", spec_from_args("chaos", args), args)
    if args.json:
        print(frpt.render_json(doc), end="")
    else:
        print(frpt.render_text(doc, ex.stats.summary()), end="")
    return 0 if doc["clean"] else 1


#: ``repro serve`` flags that only configure the chaos drill:
#: (flag, argparse dest, ``chaos_drill`` parameter).
_DRILL_FLAGS = (
    ("--jobs-count", "jobs_count", "jobs"),
    ("--kills", "kills", "kills"),
    ("--corrupt", "corrupt", "corrupt"),
    ("--concurrency", "concurrency", "concurrency"),
    ("--scale", "scale", "scale"),
    ("--out", "out", "out"),
    ("--work-dir", "work_dir", "work_dir"),
)


def _cmd_serve(args) -> int:
    """Run the job server — or, with ``--chaos-kill``, the chaos drill."""
    from repro.common.errors import ConfigError
    from repro.common.rng import DEFAULT_SEED
    from repro.serve import ServerConfig, WorkerFaultPlan
    from repro.serve import server as serve_server

    # The drill flags given; an unset one leaves chaos_drill's own
    # default, the one place the drill's defaults are stated.
    given = [
        (flag, param, getattr(args, dest))
        for flag, dest, param in _DRILL_FLAGS
        if getattr(args, dest) is not None
    ]
    if args.chaos_kill:
        from repro.serve.drill import chaos_drill

        drill = {param: value for _, param, value in given}
        if args.workers is not None:
            drill["workers"] = args.workers
        doc = chaos_drill(
            seed=DEFAULT_SEED if args.fault_seed is None else args.fault_seed,
            **drill,
        )
        print(f"chaos drill: {doc['completed']}/{doc['jobs']} jobs done "
              f"across {doc['kills']} SIGKILL/restart cycle(s) "
              f"({doc['incarnations']} incarnations, {doc['seconds']}s)")
        print(f"  corruption: {doc['corrupted_files']} file(s) corrupted -> "
              f"{doc['corrupt_healed']} healed, "
              f"{doc['corrupt_quarantined']} quarantined, "
              f"{doc['corrupt_undetected']} undetected")
        print(f"  recovery: {doc['recovered_jobs_observed']} job(s) "
              f"recovered, {doc['deduped_jobs_observed']} deduped, "
              f"{doc['retries']} client retries, "
              f"{doc['resubmissions']} resubmissions")
        print(f"  divergences {doc['divergences']}  "
              f"failures {doc['failures']}  "
              f"-> {'OK' if doc['ok'] else 'FAILED'}")
        return 0 if doc["ok"] else 1
    if given:
        raise ConfigError(f"{given[0][0]} only applies with --chaos-kill")
    faults = None
    if args.fault_rate:
        faults = WorkerFaultPlan(
            rate=args.fault_rate,
            kind=args.fault_kind,
            seed=DEFAULT_SEED if args.fault_seed is None else args.fault_seed,
        )
    chosen = {
        name: getattr(args, name)
        for name in ("workers", "quota", "queue_limit", "retries")
        if getattr(args, name) is not None
    }
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            timeout=args.timeout,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            faults=faults,
            journal_dir=args.journal,
            resume=args.resume,
            **chosen,
        )
    except ConfigError as exc:
        # ServerConfig names the field; the user typed its flag.
        field, rest = str(exc).split(" ", 1)
        raise ConfigError(f"--{field.replace('_', '-')} {rest}") from None
    return serve_server.run(config)


def _cmd_cache(args) -> int:
    """Inspect, verify, or garbage-collect the persistent result cache."""
    import json as _json

    from repro.eval.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        doc = cache.stats()
    elif args.action == "verify":
        doc = cache.verify(repair=not args.no_repair)
    else:
        doc = cache.gc()
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
    elif args.action == "stats":
        print(f"cache {doc['root']}: {doc['entries']} entries, "
              f"{doc['bytes']} bytes (schema {doc['schema']}, "
              f"version {doc['version']})")
        for tag in sorted(doc["by_schema"]):
            print(f"  schema {tag}: {doc['by_schema'][tag]} entries")
        print(f"  quarantined files: {doc['quarantined_files']}")
    elif args.action == "verify":
        print(f"verified {doc['checked']} entries: {doc['ok']} ok, "
              f"{doc['stale']} stale, {doc['corrupt']} corrupt "
              f"({doc['repaired']} quarantined)")
        for path in doc["corrupt_paths"]:
            print(f"  corrupt: {path}")
    else:
        print(f"gc: removed {doc['stale_removed']} stale entries, "
              f"{doc['quarantine_removed']} quarantined files "
              f"({doc['corrupt_quarantined']} newly quarantined); "
              f"kept {doc['kept']}")
    if args.action == "verify":
        return 1 if doc["corrupt"] else 0
    return 0


def _cmd_table1(_args) -> int:
    print(rpt.render_table1())
    return 0


def _cmd_table3(args) -> int:
    machine = (
        inter_block_machine() if args.machine == "inter" else intra_block_machine()
    )
    print(rpt.render_table3(machine))
    return 0


def _cmd_storage(_args) -> int:
    print(rpt.render_storage(storage_report()))
    return 0


def _add_spec_flags(p, *kinds: str, only: tuple[str, ...] = ()) -> None:
    """Add the flags of *kinds*' spec fields (those in *only*, if given).

    Each flag comes from its :class:`repro.serve.jobs.Field` row and
    defaults to ``None`` (see :func:`spec_from_args`); a field the tables
    share (``litmus`` and ``litmus matrix``) gets one flag.
    """
    from repro.serve.jobs import spec_fields

    added = set()
    for kind in kinds:
        for f in spec_fields(kind):
            if f.flag is None or f.flag in added or (only and f.name not in only):
                continue
            added.add(f.flag)
            shown = f.default
            if isinstance(shown, list):
                shown = ",".join(shown)
            help = f.help
            if shown is not None and f.type is not bool:
                help += f" (default: {shown})"
            kwargs = {"default": None, "help": help.replace("%", "%%")}
            if f.type is bool:
                kwargs["action"] = "store_true"
            elif f.type is not list:
                kwargs["type"] = f.type
            if f.type is str and f.choices and f.flag.startswith("-"):
                kwargs["choices"] = f.choices()
            p.add_argument(f.flag, **kwargs, **f.cli)


def _add_sweep_flags(p) -> None:
    """``--jobs``/``--no-cache``/``--clear-cache``: the executor's knobs."""
    p.add_argument(
        "--jobs", type=int, default=None,
        help="parallel sweep workers (default: CPU count; 1 = serial)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; do not read or write the result cache",
    )
    p.add_argument(
        "--clear-cache", action="store_true",
        help="empty the result cache ($REPRO_CACHE_DIR or "
        "~/.cache/repro-sweeps) before running",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser (one subcommand per artifact)."""
    from repro.engines import available_engines
    from repro.serve.server import ServerConfig

    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and configurations").set_defaults(
        fn=_cmd_list
    )

    p_run = sub.add_parser("run", help="run one verified (workload, config)")
    _add_spec_flags(p_run, "sweep")
    p_run.add_argument(
        "--staleness",
        action="store_true",
        help="run with the stale-read detector; "
        "exit 1 if any read returned stale data",
    )
    p_run.set_defaults(fn=_cmd_run)

    for name, fn, needs_scale, blurb in (
        ("fig9", _cmd_figure, True,
         "regenerate fig9: intra-block config sweep (exec-time breakdown)"),
        ("fig10", _cmd_figure, True,
         "regenerate fig10: software coherence (B+M+I) vs hardware MESI"),
        ("fig11", _cmd_figure, True,
         "regenerate fig11: inter-block locality (Addr vs Addr+L)"),
        ("fig12", _cmd_figure, True,
         "regenerate fig12: inter-block config sweep (NoC traffic)"),
        ("table1", _cmd_table1, False,
         "regenerate table1: WB/INV annotation rules"),
        ("storage", _cmd_storage, False,
         "regenerate the per-structure storage-overhead report"),
    ):
        p = sub.add_parser(name, help=blurb)
        if needs_scale:
            _add_spec_flags(p, "sweep", only=("scale", "engine", "model"))
            _add_sweep_flags(p)
            p.add_argument(
                "--trace", metavar="DIR", default=None,
                help="replay the sweep serially with event tracing on; "
                "write one JSONL trace per cell under DIR",
            )
            p.add_argument(
                "--metrics", metavar="PATH", default=None,
                help="replay the sweep serially with a metrics registry "
                "attached; write {app: {config: snapshot}} JSON to PATH",
            )
        p.set_defaults(fn=fn)

    p_tr = sub.add_parser(
        "trace", help="replay one (workload, config) cell with tracing on"
    )
    _add_spec_flags(p_tr, "sweep", only=("apps", "configs", "scale"))
    p_tr.add_argument("--out", metavar="PATH", default=None,
                      help="JSONL trace path (default: <app>-<cfg>.trace.jsonl)")
    p_tr.add_argument("--chrome", metavar="PATH", default=None,
                      help="also write a Chrome trace_event JSON file")
    p_tr.add_argument("--metrics", metavar="PATH", default=None,
                      help="also write the metrics snapshot as JSON")
    p_tr.set_defaults(fn=_cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection with degraded-mode verification",
        description=(
            "Run timing-independent workloads (determinate litmus kernels, "
            "lock-free SPLASH/NAS kernels, and a tiny-cache pressure "
            "target) under N seeded fault plans, and verify every degraded "
            "run's final memory bit-for-bit against the hardware-coherent "
            "(HCC) reference.  Faults may only cost cycles, never change a "
            "value: exit 1 on any divergence, 0 when clean, 2 on usage "
            "errors.  See docs/RESILIENCE.md."
        ),
    )
    _add_spec_flags(p_chaos, "chaos")
    _add_sweep_flags(p_chaos)
    p_chaos.add_argument(
        "--json", action="store_true",
        help="emit the chaos report as JSON instead of text",
    )
    p_chaos.add_argument(
        "--list-faults", action="store_true",
        help="list the injectable fault kinds and exit",
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_lit = sub.add_parser(
        "litmus",
        help="run litmus kernels; --matrix is the memory-model "
        "conformance grid",
        description=(
            "Run targeted litmus kernels through one cached sweep batch.  "
            "Without --matrix, run the named kernels (default: all) once "
            "under the selected memory model and apply each kernel's "
            "self-checking oracle.  With --matrix, run every selected "
            "(model x kernel x engine) cell through one cached sweep "
            "batch, digest-compare each cell against the hardware-"
            "coherent oracle, and print the verdict grid; exit 1 on any "
            "verdict that disagrees with the documented expectation "
            "table (docs/MEMORY_MODELS.md)."
        ),
    )
    _add_spec_flags(p_lit, "litmus", "litmus matrix")
    _add_sweep_flags(p_lit)
    p_lit.add_argument(
        "--json", action="store_true",
        help="print the result document (the grid with --matrix) as JSON "
        "instead of text",
    )
    p_lit.add_argument(
        "--out", metavar="PATH", default=None,
        help="matrix: also write the grid JSON to PATH (the CI artifact)",
    )
    p_lit.set_defaults(fn=_cmd_litmus)

    p_gen = sub.add_parser(
        "gen",
        help="run one seeded generative traffic scenario, oracle-verified",
        description=(
            "Deterministically expand a ScenarioSpec (pattern, seed, "
            "threads, footprint, rounds, skew) into a sharing-pattern "
            "program, run it, and verify the final memory word-for-word "
            "against the analytically computed oracle.  Generated programs "
            "are coherent by construction, so any Table II configuration "
            "must produce the HCC image.  See docs/ARCHITECTURE.md."
        ),
    )
    _add_spec_flags(p_gen, "gen")
    p_gen.add_argument("--list-patterns", action="store_true",
                       help="list the generator patterns and exit")
    p_gen.set_defaults(fn=_cmd_gen)

    p_rp = sub.add_parser(
        "replay",
        help="re-execute a recorded JSONL trace as a first-class workload",
        description=(
            "Partition a trace (the `repro trace` JSONL schema) into "
            "per-core program-order streams, rebuild each CPU-issued event "
            "as an ISA operation, and run the reconstructed program on the "
            "simulator.  Hardware-generated events (fills, evictions, "
            "grants) are skipped — the machine regenerates them.  "
            "--roundtrip re-records the replay and exits 1 unless it is "
            "bit-identical to the input trace."
        ),
    )
    p_rp.add_argument("trace", help="JSONL trace path (repro trace schema)")
    p_rp.add_argument("--model", choices=("intra", "inter"), default="intra",
                      help="machine model the trace was recorded on")
    p_rp.add_argument("--config", default=None,
                      help="Table II name (default: B+M+I or Addr+L)")
    p_rp.add_argument("--threads", type=int, default=None,
                      help="thread count (default: inferred from the trace)")
    p_rp.add_argument("--blocks", type=int, default=4,
                      help="inter-block model: number of blocks (default: 4)")
    p_rp.add_argument("--cores-per-block", type=int, default=8,
                      help="inter-block model: cores per block (default: 8)")
    p_rp.add_argument("--engine", choices=available_engines(), default=None,
                      help="simulator core (default: $REPRO_ENGINE or ref)")
    p_rp.add_argument("--out", metavar="PATH", default=None,
                      help="write the re-recorded replay trace to PATH")
    p_rp.add_argument(
        "--roundtrip", action="store_true",
        help="verify record -> replay -> re-record is bit-identical; "
        "exit 1 on any differing event",
    )
    p_rp.set_defaults(fn=_cmd_replay)

    p_fleet = sub.add_parser(
        "fleet",
        help="auto-checked scenario fleet: N generated scenarios × "
        "configs × engines",
        description=(
            "Sample N ScenarioSpecs across every generator pattern and run "
            "each under every requested (software-coherent config × "
            "engine) plus an implicit hardware-coherent reference cell, "
            "all through the parallel cached sweep executor.  The verdict "
            "checks three oracles — final-memory digest vs the HCC "
            "reference, bit-identical stats+digest across engines, and "
            "Section IV-A lint cleanliness — and the command exits 1 on "
            "any divergence, mismatch, or finding."
        ),
    )
    _add_spec_flags(p_fleet, "fleet")
    _add_sweep_flags(p_fleet)
    p_fleet.add_argument(
        "--json", action="store_true",
        help="print the full verdict document as JSON",
    )
    p_fleet.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the verdict JSON to PATH (the CI artifact)",
    )
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_srv = sub.add_parser(
        "serve",
        help="HTTP/JSON job server over the sweep engine (simulation "
        "as a service); --chaos-kill runs the durability drill",
        description=(
            "Serve sweep/gen/litmus/chaos/lint/fleet jobs over HTTP: "
            "requests are validated against the versioned job schema, "
            "sharded across a bounded worker pool, and fronted by the "
            "persistent result cache so identical submissions from any "
            "number of clients simulate once.  Admission control: a "
            "per-client active-job quota and a global queue ceiling, both "
            "answered with HTTP 429.  SIGINT/SIGTERM drain gracefully.  "
            "With --chaos-kill, instead run the durability drill against "
            "a journaled server subprocess (docs/RESILIENCE.md).  API "
            "reference: docs/SERVICE.md."
        ),
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8787,
                       help="TCP port; 0 picks an ephemeral port "
                       "(default: 8787)")
    # --workers/--quota/--queue-limit/--retries default to None: an unset
    # one keeps ServerConfig's (or, for --workers, chaos_drill's) default.
    p_srv.add_argument("--workers", type=int, default=None,
                       help=f"worker pool width (default: "
                       f"{ServerConfig.workers}; chaos drill: its server's "
                       "width, default: 8)")
    p_srv.add_argument("--quota", type=int, default=None,
                       help="max active jobs per client "
                       f"(default: {ServerConfig.quota})")
    p_srv.add_argument("--queue-limit", type=int, default=None,
                       help="max queued+in-flight work units before "
                       f"submissions get 429 (default: {ServerConfig.queue_limit})")
    p_srv.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-unit wall-clock budget in seconds "
                       "(default: none)")
    p_srv.add_argument("--retries", type=int, default=None,
                       help="per-unit retry budget "
                       f"(default: {ServerConfig.retries})")
    p_srv.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent result cache")
    p_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory (default: "
                       "$REPRO_CACHE_DIR or ~/.cache/repro-sweeps)")
    p_srv.add_argument("--journal", default=None, metavar="DIR",
                       help="write-ahead journal directory: every job "
                       "lifecycle transition is fsync'd there before the "
                       "client sees the response (docs/RESILIENCE.md)")
    p_srv.add_argument("--resume", action="store_true",
                       help="replay the journal at startup: requeue "
                       "interrupted jobs under their original ids and "
                       "dedupe idempotent resubmissions")
    p_srv.add_argument("--fault-rate", type=float, default=0.0,
                       metavar="P",
                       help="inject seeded worker faults with per-attempt "
                       "probability P (resilience testing; default: 0)")
    p_srv.add_argument("--fault-kind", choices=("crash", "stall"),
                       default="crash",
                       help="injected fault mode (default: crash)")
    p_srv.add_argument("--fault-seed", type=int, default=None,
                       help="fault-stream seed (default: the repo-wide seed)")
    p_srv.add_argument("--chaos-kill", action="store_true",
                       help="run the durability chaos drill instead of "
                       "serving: SIGKILL a real server subprocess "
                       "mid-flight, corrupt random cache files, resume "
                       "from the journal, and prove zero loss / zero "
                       "divergence")
    # The drill flags default to None: chaos_drill states the defaults.
    p_srv.add_argument("--jobs-count", type=int, default=None, metavar="N",
                       help="chaos drill: jobs submitted (default: 120)")
    p_srv.add_argument("--concurrency", type=int, default=None,
                       help="chaos drill: concurrent client threads "
                       "(default: 16)")
    p_srv.add_argument("--scale", type=float, default=None,
                       help="chaos drill: workload scale per cell "
                       "(default: 0.3)")
    p_srv.add_argument("--out", metavar="PATH", default=None,
                       help="chaos drill: verdict JSON path "
                       "(default: BENCH_chaos_drill.json)")
    p_srv.add_argument("--kills", type=int, default=None,
                       help="chaos drill: SIGKILL/restart cycles "
                       "(default: 3)")
    p_srv.add_argument("--corrupt", type=int, default=None, metavar="N",
                       help="chaos drill: cache files corrupted per cycle "
                       "(default: 6)")
    p_srv.add_argument("--work-dir", default=None, metavar="DIR",
                       help="chaos drill: pin the scratch dir (journal, "
                       "caches, server log) instead of a temp dir — CI "
                       "uploads the journal from here")
    p_srv.set_defaults(fn=_cmd_serve)

    p_cache = sub.add_parser(
        "cache",
        help="inspect / verify / garbage-collect the persistent "
        "result cache",
        description=(
            "Integrity tooling for the content-addressed sweep-result "
            "cache.  Every entry embeds a sha256 payload checksum "
            "(verified on load; corrupt entries are quarantined and "
            "recomputed, never served).  `stats` summarises the store, "
            "`verify` checks every entry (exit 1 if any is corrupt), "
            "`gc` reclaims stale-schema entries and the quarantine "
            "directory.  Details: docs/RESILIENCE.md."
        ),
    )
    p_cache.add_argument("action", choices=("stats", "verify", "gc"),
                         help="what to do")
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR "
                         "or ~/.cache/repro-sweeps)")
    p_cache.add_argument("--no-repair", action="store_true",
                         help="verify: report corrupt entries without "
                         "quarantining them")
    p_cache.add_argument("--json", action="store_true",
                         help="emit the raw JSON report")
    p_cache.set_defaults(fn=_cmd_cache)

    p_t3 = sub.add_parser("table3", help="print the architecture table")
    p_t3.add_argument("--machine", choices=("intra", "inter"), default="inter")
    p_t3.set_defaults(fn=_cmd_table3)

    p_lint = sub.add_parser(
        "lint",
        help="statically check WB/INV annotations (Section IV-A rules)",
        description=(
            "Extract each target's per-thread operation streams (without "
            "running the cache simulator), derive the cross-thread "
            "producer-consumer edges, and check every Table I annotation "
            "rule.  Exit 1 on any error finding (or, for litmus kernels, "
            "any deviation from the kernel's documented expectation).  "
            "Rules are documented in docs/ANNOTATIONS.md."
        ),
    )
    _add_spec_flags(p_lint, "lint")
    p_lint.add_argument(
        "--litmus", action="store_true",
        help="lint every litmus kernel and cross-validate against its "
        "documented expectation (broken kernels must be flagged)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit the report(s) as JSON instead of text",
    )
    p_lint.add_argument(
        "--fix", action="store_true",
        help="for litmus kernels with errors: insert the missing "
        "level-adaptive WB/INV ops, re-run on the simulator, and verify "
        "bit-identical observations+memory against the HCC reference",
    )
    p_lint.add_argument(
        "--dump-cfg", action="store_true",
        help="print each thread's control-flow graph instead of linting",
    )
    p_lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.common.errors import ConfigError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "trace") and args.config is None:
        args.config = "B+M+I" if args.workload in MODEL_ONE else "Addr+L"
    try:
        return args.fn(args)
    except ConfigError as exc:
        # Bad --jobs / --config / workload parameters: a usage error, not a
        # crash — print the message without a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; the convention
        # is to die quietly with SIGPIPE's exit status.
        sys.stderr.close()  # suppress the 'lost sys.stderr' warning
        return 128 + 13


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
