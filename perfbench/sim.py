"""The three simulation workloads: the fig9 and fig12 matrices, and fig9 under rc/sisd.

Every cell builds a fresh :class:`~repro.core.machine.Machine`, so the
modelled caches start empty, as in the paper's runs.  Cells run serially
in this process on the ``fast`` engine with no result cache.  Each cell
is timed from outside, layer by layer, through the public calls
``Machine(...)``, ``workload.prepare``, ``Machine.run`` and
``workload.verify``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

from measure import (
    Spans,
    ThreadProfiler,
    fingerprint,
    geomean,
    latency_summary,
    nominal,
    reference_time,
)
from report import Outcome

from repro.common.params import inter_block_machine, intra_block_machine
from repro.core.config import INTER_CONFIGS, INTRA_CONFIGS, ExperimentConfig
from repro.core.machine import Machine
from repro.sim.stats import StallCat
from repro.workloads import MODEL_ONE, MODEL_TWO
from repro.workloads.nas import build_cg, build_ep, build_is, build_jacobi
from repro.workloads.nas.ep import build_ep_hier

ENGINE = "fast"

#: Figure 12's apps plus the hierarchical-reduction EP rewrite.
NAS_APPS = ("cg", "ep", "ep_hier", "is", "jacobi")

#: The NAS builders at the registry classes' scale-1.0 sizes, with the
#: input seed exposed.  Seed 0 reproduces fig12's inputs exactly (the
#: classes build with ``seed=None``, which the builders read as 0).
NAS_BUILDERS: dict[str, Callable[[int], tuple]] = {
    "cg": lambda seed: build_cg(n=128, seed=seed),
    "ep": lambda seed: build_ep(pairs=1024, batches=2, seed=seed),
    "ep_hier": lambda seed: build_ep_hier(
        pairs=1024, batches=2, num_blocks=4, seed=seed),
    "is": lambda seed: build_is(nkeys=8192, seed=seed),
    "jacobi": lambda seed: build_jacobi(rows=258, cols=32, iters=4, seed=seed),
}

#: Software-coherent configuration compared against HCC in ``sim_norm_exec``.
NORM_CONFIG = {"intra": "B+M+I", "inter": "Addr+L"}

#: Paper figure each ``sim_norm_exec`` is printed beside.
PAPER_NOTE = {
    "splash_fig9": "paper Fig. 9: B+M+I within 2% of HCC (1.02)",
    "nas_fig12": "paper Fig. 12: Addr+L within 5% of HCC",
    "models_fig9": "no paper figure: rc/sisd are later protocols",
}

#: Highest tail percentile reported.  ``nas_fig12`` gets the one two passes
#: support.  ``models_fig9`` supports p90, but its cells there are the long
#: rc/sisd fft and water cells, whose host time swung by 15-20% between runs
#: of the same code; its p75 is as far into the tail as stays steady.
TAIL_CEILING = {"splash_fig9": 90.0, "nas_fig12": 75.0, "models_fig9": 75.0}

#: Verifier failures that are known defects, not benchmark errors.  They
#: still count as failed operations; an unlisted failure makes the run
#: incorrect.
KNOWN_FAILURES = {
    "raytrace/Base/sisd": "progress total 145 != 128",
    "raytrace/B+M/sisd": "progress total 145 != 128",
}

#: Simulated per-layer counts, in report order.
COUNT_NAMES = (
    "sim.events", "sim.cycles", "sim.mem_ops", "isa.wb_ops", "isa.inv_ops",
    "coherence.lines_written_back", "coherence.lines_invalidated",
    "coherence.global_wb_lines", "coherence.global_inv_lines",
    "coherence.dir_invalidations", "coherence.dir_forwards",
    "coherence.meb_overflows", "coherence.ieb_evictions",
    "models.rc_region_wb_lines", "models.sisd_self_invalidations",
    "noc.flits",
) + tuple(f"stall.{cat.value}" for cat in StallCat)

#: Per-layer metrics only ``serve_mix`` exercises.
SERVE_LAYERS = (
    "serve.submit_ms", "serve.queue_wait_ms", "serve.unit_ms_hit",
    "serve.unit_ms_miss", "serve.notify_ms", "eval.cache_hit_ratio",
    "serve.retries", "serve.rejected",
)


@dataclass(frozen=True)
class Cell:
    """One (app, config, model) simulation: one benchmark operation."""

    kind: str  # "intra" | "inter"
    app: str
    config: ExperimentConfig
    model: str
    seed: int = 0

    @property
    def id(self) -> str:
        return f"{self.app}/{self.config.name}/{self.model}"


@dataclass
class CellRun:
    """What one run of a cell produced."""

    cell: Any  # a Cell, or a serve_mix GenJob: anything with an ``id``
    seconds: float
    nominal_s: float = 0.0  # ``seconds`` on the nominal host (untraced runs)
    stats: Any = None  # MachineStats, when the simulation finished
    events: int = 0
    error: str | None = None


def cells(workload: str, seed: int) -> list[Cell]:
    """The workload's matrix, in run order."""
    if workload == "splash_fig9":
        return [Cell("intra", app, cfg, "base")
                for app in sorted(MODEL_ONE) for cfg in INTRA_CONFIGS]
    if workload == "models_fig9":
        return [Cell("intra", app, cfg, model)
                for model in ("rc", "sisd")
                for app in sorted(MODEL_ONE) for cfg in INTRA_CONFIGS]
    if workload == "nas_fig12":
        return [Cell("inter", app, cfg, "base", seed)
                for app in NAS_APPS for cfg in INTER_CONFIGS]
    raise ValueError(f"unknown simulation workload {workload!r}")


def seeded_nas(app: str, seed: int):
    """The registry's Model-2 workload *app* with inputs drawn from *seed*."""
    workload = MODEL_TWO[app]()
    workload.build = lambda: NAS_BUILDERS[app](seed)
    return workload


def new_machine(cell: Cell) -> Machine:
    """A fresh (empty-cache) machine for *cell*."""
    if cell.kind == "intra":
        params, threads = intra_block_machine(16), 16
    else:
        params = inter_block_machine(4, 8)
        threads = params.num_cores
    return Machine(params, cell.config, num_threads=threads,
                   engine=ENGINE, model=cell.model)


def run_cell(cell: Cell, spans: Spans) -> CellRun:
    """Build, prepare, simulate and verify one cell, one span per layer.

    Any exception is caught and reported as the cell's error so that the
    rest of the matrix still runs.
    """
    run = CellRun(cell, 0.0)
    t0 = time.perf_counter()
    try:
        with spans.span("cell", cell.id):
            with spans.span("core.build"):
                machine = new_machine(cell)
            with spans.span("workloads.prepare"):
                if cell.kind == "intra":
                    workload = MODEL_ONE[cell.app]()
                    workload.prepare(machine)
                    handle = machine
                else:
                    workload = seeded_nas(cell.app, cell.seed)
                    handle = workload.prepare(machine)
            with spans.span("sim.run"):
                run.stats = machine.run()
            run.events = machine.engine.events_scheduled
            with spans.span("workloads.verify"):
                workload.verify(handle)
    except Exception as exc:  # noqa: BLE001 - one failed cell must not stop the matrix
        run.error = f"{type(exc).__name__}: {exc}"
    run.seconds = time.perf_counter() - t0
    return run


def run_pass(matrix: list[Cell], spans: Spans,
             calibrate: bool = True) -> list[CellRun]:
    """Run every cell of *matrix* once, in order.

    With *calibrate*, the reference loop runs between cells, so each cell's
    time converts to nominal seconds with the host speed measured right
    around it.
    """
    runs = []
    before = reference_time() if calibrate else 0.0
    for cell in matrix:
        run = run_cell(cell, spans)
        if calibrate:
            after = reference_time()
            run.nominal_s = nominal(run.seconds, before, after)
            before = after
        runs.append(run)
    return runs


def stats_by_cell(runs: list[CellRun]) -> dict[str, Any]:
    """``{cell id: MachineStats.to_dict()}`` (or the error, if it never finished)."""
    return {
        r.cell.id: r.stats.to_dict() if r.stats is not None else {"error": r.error}
        for r in runs
    }


def norm_exec(runs: list[CellRun]) -> float:
    """Geomean over (app, model) of exec_time(software config) / exec_time(HCC)."""
    exec_of = {(r.cell.app, r.cell.model, r.cell.config.name): r.stats.exec_time
               for r in runs if r.stats is not None and r.error is None}
    ratios = []
    for r in runs:
        c = r.cell
        if c.config.name != NORM_CONFIG[c.kind]:
            continue
        num = exec_of.get((c.app, c.model, c.config.name))
        base = exec_of.get((c.app, c.model, "HCC"))
        if num and base:
            ratios.append(num / base)
    return geomean(ratios)


def sim_counts(runs: list[CellRun]) -> dict[str, int]:
    """Simulated counts summed over the cells of one pass."""
    out = dict.fromkeys(COUNT_NAMES, 0)
    for r in runs:
        if r.stats is None:
            continue
        s = r.stats
        summ = s.summary()
        out["sim.events"] += r.events
        out["sim.cycles"] += s.exec_time
        out["sim.mem_ops"] += summ["loads"] + summ["stores"]
        out["isa.wb_ops"] += summ["wb_ops"]
        out["isa.inv_ops"] += summ["inv_ops"]
        for key in ("lines_written_back", "lines_invalidated",
                    "global_wb_lines", "global_inv_lines",
                    "dir_invalidations", "dir_forwards"):
            out[f"coherence.{key}"] += summ[key]
        out["coherence.meb_overflows"] += s.meb_overflow_events
        out["coherence.ieb_evictions"] += s.ieb_evictions
        out["models.rc_region_wb_lines"] += s.rc_region_wb_lines
        out["models.sisd_self_invalidations"] += s.sisd_self_invalidations
        out["noc.flits"] += s.total_flits
        for cat in StallCat:
            out[f"stall.{cat.value}"] += s.stall_total(cat)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload's matrix for about *seconds* and report on it.

    Untraced, whole passes repeat while the next one is expected to end
    within *seconds* (at least one pass).  Traced, one pass records spans
    and a second runs under cProfile for self time.
    """
    matrix = cells(workload, seed)
    spans = Spans(enabled=trace)
    passes: list[list[CellRun]] = []
    walls: list[float] = []
    profiler = None
    while True:
        if trace and passes:
            with ThreadProfiler() as profiler:
                runs = run_pass(matrix, Spans(enabled=False), calibrate=False)
        else:
            runs = run_pass(matrix, spans, calibrate=not trace)
        passes.append(runs)
        walls.append(sum(r.seconds for r in runs))
        if trace:
            if len(passes) == 2:
                break
        elif sum(walls) + median(walls) > seconds:
            break

    first = passes[0]
    first_stats = stats_by_cell(first)
    failures: dict[str, str] = {}
    for runs in passes:
        for r in runs:
            if r.error is not None:
                failures.setdefault(r.cell.id, r.error)
        for cid, st in stats_by_cell(runs).items():
            if st != first_stats[cid]:
                failures.setdefault(
                    cid, "simulated statistics differ from the first pass")

    norm = norm_exec(first)
    outcome = Outcome(workload, attempted=len(matrix), failures=failures,
                      known=KNOWN_FAILURES)
    outcome.fingerprint = fingerprint(first_stats)
    outcome.notes += [
        f"{len(matrix)} cells x {len(passes)} pass(es); every cell builds a "
        "fresh machine, so the modelled caches start empty",
        f"sim_norm_exec = {norm:.6f} (simulated time); {PAPER_NOTE[workload]}",
    ]
    if workload != "nas_fig12":
        outcome.notes.append(
            f"seed {seed} recorded, inert: SPLASH inputs are fixed per kernel")
    if trace:
        outcome.per_layer = layer_metrics(spans, first, profiler, walls)
        # The job server is not on this workload's path.
        outcome.per_layer.update(dict.fromkeys(SERVE_LAYERS, 0.0))
        outcome.spans = spans
        return outcome

    def per_cell_median(attr):
        # Each cell at its median over passes: steadier than the median
        # pass when interference comes and goes within a pass.
        return sum(median(getattr(r, attr) for r in runs_of_cell)
                   for runs_of_cell in zip(*passes))

    every = [r.nominal_s for runs in passes for r in runs]
    lat = latency_summary(every, TAIL_CEILING[workload])
    wall = per_cell_median("nominal_s")
    outcome.end_to_end = {
        "wall_s": wall,
        "jobs_per_s": len(every) / sum(every),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "sim_norm_exec": norm,
    }
    outcome.notes += [
        f"latency: per-cell host time, tail = p{lat['tail_pct']:g} over "
        f"{lat['samples']} samples",
        f"host times in nominal seconds; measured wall_s = "
        f"{per_cell_median('seconds'):.3f} s (host at "
        f"{per_cell_median('seconds') / wall:.2f}x nominal)",
    ]
    return outcome


def layer_metrics(spans: Spans, runs: list[CellRun], profiler: ThreadProfiler,
                  walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Span totals and simulated counts cover *runs* (one pass, timed with
    spans), self time the profiled pass, and ``trace_overhead`` is the
    profiled pass's wall time over the first pass's.
    """
    counts = sim_counts(runs)
    run_s = spans.total("sim.run")
    layer = {
        "core.build_s": spans.total("core.build"),
        "workloads.prepare_s": spans.total("workloads.prepare"),
        "sim.run_s": run_s,
        "workloads.verify_s": spans.total("workloads.verify"),
        "sim.host_us_per_event": run_s / counts["sim.events"] * 1e6,
        "sim.mops_per_s": counts["sim.mem_ops"] / run_s / 1e6,
        "trace_overhead": walls[-1] / walls[0],
    }
    layer.update({f"self_s.{k}": v for k, v in profiler.self_seconds().items()})
    layer.update(counts)
    return layer


def first_machine(workload: str) -> Machine:
    """Build the workload's first machine (the end of set-up)."""
    return new_machine(cells(workload, 0)[0])
