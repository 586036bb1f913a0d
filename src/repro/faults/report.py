"""Chaos report: degradation statistics over a :class:`ChaosResult`.

Summarizes one chaos sweep into (a) the verdict — did any fault plan ever
change a value? — and (b) the degradation profile: p50/p99 slowdown of the
degraded runs over their fault-free baselines, per-fault-kind attribution
(opportunities seen, faults fired, extra cycles charged), and the MEB/IEB
degradation counters the hardware itself reports (overflow events, WB-ALL
tag-walk fallbacks, IEB displacements and the redundant re-invalidations
they cause).  Text for humans, JSON for CI.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.faults.chaos import ChaosResult
from repro.faults.model import FaultKind


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (q in [0, 100])."""
    vals = sorted(values)
    if not vals:
        return 0.0
    if len(vals) == 1:
        return float(vals[0])
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    frac = pos - lo
    return float(vals[lo] * (1.0 - frac) + vals[hi] * frac)


def summarize(result: ChaosResult) -> dict:
    """The JSON-safe summary of one chaos sweep."""
    slowdowns: list[float] = []
    kinds = {
        k.value: {"opportunities": 0, "fires": 0, "extra_cycles": 0}
        for k in FaultKind
    }
    buffers = {
        "meb_overflow_events": 0,
        "meb_wb_fallbacks": 0,
        "ieb_evictions": 0,
        "ieb_redundant_invalidations": 0,
    }
    targets = []
    for outcome in result.outcomes:
        base = outcome.baseline.exec_time or 1
        runs = []
        for plan, run in zip(result.plans, outcome.runs):
            slowdown = run.exec_time / base
            slowdowns.append(slowdown)
            fires = 0
            if run.faults is not None:
                fires = run.faults["total_fires"]
                for kind, counters in run.faults["kinds"].items():
                    agg = kinds[kind]
                    for key in agg:
                        agg[key] += counters[key]
            for key in buffers:
                buffers[key] += getattr(run.stats, key)
            runs.append(
                {
                    "plan": plan.name,
                    "seed": plan.seed,
                    "exec_time": run.exec_time,
                    "slowdown": round(slowdown, 4),
                    "fires": fires,
                    "diverged": run.memory_digest
                    != outcome.reference.memory_digest,
                }
            )
        targets.append(
            {
                "target": outcome.target.label,
                "config": outcome.target.config.name,
                "reference_digest": outcome.reference.memory_digest,
                "baseline_exec": outcome.baseline.exec_time,
                "worst_slowdown": round(
                    max((r["slowdown"] for r in runs), default=1.0), 4
                ),
                "divergent_plans": outcome.divergent_plans(result.plans),
                "runs": runs,
            }
        )
    return {
        "targets": len(result.outcomes),
        "plans": len(result.plans),
        "runs": len(slowdowns),
        "divergences": result.divergences,
        "clean": result.clean,
        "slowdown_p50": round(percentile(slowdowns, 50), 4),
        "slowdown_p99": round(percentile(slowdowns, 99), 4),
        "slowdown_max": round(max(slowdowns, default=1.0), 4),
        "kinds": kinds,
        "buffers": buffers,
        "per_target": targets,
    }


def render_text(summary: dict, sweep: str = "") -> str:
    """Human-readable chaos report over a :func:`summarize` dict.

    *sweep*, when given, closes the report (the executor's run summary).
    """
    lines = [
        "Chaos sweep: "
        f"{summary['targets']} target(s) x {summary['plans']} plan(s) "
        f"({summary['runs']} degraded run(s))",
        "",
    ]
    verdict = (
        "PASS: no fault plan changed a single memory value"
        if summary["clean"]
        else "FAIL: value divergence from the HCC reference"
    )
    lines.append(verdict)
    for label, plans in summary["divergences"].items():
        lines.append(f"  {label}: diverged under {', '.join(plans)}")
    lines += [
        "",
        "Degradation (exec time / fault-free baseline):",
        f"  p50 {summary['slowdown_p50']:.3f}x   "
        f"p99 {summary['slowdown_p99']:.3f}x   "
        f"max {summary['slowdown_max']:.3f}x",
        "",
        "Fault attribution:",
        f"  {'kind':<22}{'opportunities':>14}{'fires':>10}{'extra cycles':>14}",
    ]
    for kind, agg in summary["kinds"].items():
        lines.append(
            f"  {kind:<22}{agg['opportunities']:>14}{agg['fires']:>10}"
            f"{agg['extra_cycles']:>14}"
        )
    buf = summary["buffers"]
    lines += [
        "",
        "Buffer degradation across degraded runs:",
        f"  MEB overflow events        {buf['meb_overflow_events']}",
        f"  WB-ALL tag-walk fallbacks  {buf['meb_wb_fallbacks']}",
        f"  IEB displacements          {buf['ieb_evictions']}",
        f"  redundant re-invalidations {buf['ieb_redundant_invalidations']}",
        "",
        "Worst slowdown per target:",
    ]
    for t in sorted(
        summary["per_target"], key=lambda t: -t["worst_slowdown"]
    ):
        flag = "" if not t["divergent_plans"] else "  DIVERGED"
        lines.append(
            f"  {t['target']:<34}{t['worst_slowdown']:>8.3f}x{flag}"
        )
    if sweep:
        lines += ["", sweep]
    return "\n".join(lines) + "\n"


def render_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"
