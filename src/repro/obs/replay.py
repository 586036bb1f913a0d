"""Traced replay of sweep cells.

The figure sweeps run with tracing off (fanned out over worker processes
and served from the persistent cache); when an anomaly needs per-operation
visibility, these helpers replay the cells of a compiled job in-process
with a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.Metrics` registry attached.  Because tracing is
bit-identical-neutral, a traced replay reproduces exactly the statistics
the untraced sweep reported.

Used by ``repro trace`` and by the ``--trace``/``--metrics`` flags of the
``fig9``–``fig12`` commands.
"""

from __future__ import annotations

import json
import pathlib

from repro.eval.parallel import SweepCell, _run_cell
from repro.eval.runner import RunResult
from repro.obs.metrics import Metrics
from repro.obs.trace import Tracer


def run_traced(cell: SweepCell) -> tuple[RunResult, Tracer, Metrics]:
    """Run one sweep cell of any kind in-process, traced and metered."""
    tracer = Tracer()
    metrics = Metrics()
    traced = SweepCell.make(
        cell.kind, cell.app, cell.config,
        **dict(cell.kwargs), tracer=tracer, metrics=metrics,
    )
    return _run_cell(traced), tracer, metrics


def cell_trace_name(app: str, config_name: str) -> str:
    """File-system-safe trace file name for one cell."""
    safe_cfg = config_name.replace("+", "")
    return f"{app}-{safe_cfg}.trace.jsonl"


def run_traced_job(job, *, trace_dir=None, metrics_path=None) -> dict:
    """Run every cell of a compiled job serially with tracing on.

    Writes one JSONL trace per cell under *trace_dir* (created if needed)
    and, when *metrics_path* is given, one JSON file mapping
    ``{app: {config: metrics snapshot}}``.  Returns the job's result
    document, exactly as :func:`repro.serve.jobs.run_job` would apart from
    the metrics snapshot each cell carries.
    """
    if trace_dir is not None:
        trace_dir = pathlib.Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    results: list[RunResult] = []
    all_metrics: dict[str, dict[str, dict]] = {}
    for unit in job.units:
        cell = unit.cell
        result, tracer, _ = run_traced(cell)
        results.append(result)
        all_metrics.setdefault(cell.app, {})[cell.config.name] = result.metrics
        if trace_dir is not None:
            tracer.write_jsonl(
                trace_dir / cell_trace_name(cell.app, cell.config.name)
            )
    if metrics_path is not None:
        metrics_path = pathlib.Path(metrics_path)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(json.dumps(all_metrics, indent=1, sort_keys=True))
    return job.finalize(results)
