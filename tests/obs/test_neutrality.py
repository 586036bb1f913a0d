"""Tracing must be bit-identical-neutral: observing a run never changes it.

The acceptance bar for the observability subsystem: with tracing/metrics
off, nothing in the sweep results moves (they are literally the same
numbers), and with tracing on, the *simulated* statistics still match the
untraced run exactly — the tracer records, it never perturbs.
"""

from __future__ import annotations

import pytest

from repro.core.config import (
    INTER_ADDR_L,
    INTER_HCC,
    INTRA_BMI,
    INTRA_HCC,
)
from repro.eval import report as rpt
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.eval.runner import RunResult, run_inter, run_intra
from repro.obs.replay import run_traced, run_traced_job
from repro.serve.jobs import compile_job, run_job

INTRA_KW = dict(num_threads=4, scale=0.5)
INTER_KW = dict(num_blocks=2, cores_per_block=2, scale=0.25)


@pytest.mark.parametrize("config", [INTRA_BMI, INTRA_HCC],
                         ids=lambda c: c.name)
def test_intra_stats_identical_with_and_without_tracing(config):
    plain = run_intra("volrend", config, **INTRA_KW)
    traced, tracer, metrics = run_traced(
        SweepCell.make("intra", "volrend", config, **INTRA_KW)
    )
    assert traced.stats.to_dict() == plain.stats.to_dict()
    assert len(tracer.events) > 0
    assert metrics.counters  # something was recorded, yet nothing changed


@pytest.mark.parametrize("config", [INTER_ADDR_L, INTER_HCC],
                         ids=lambda c: c.name)
def test_inter_stats_identical_with_and_without_tracing(config):
    plain = run_inter("ep", config, **INTER_KW)
    traced, tracer, metrics = run_traced(
        SweepCell.make("inter", "ep", config, **INTER_KW)
    )
    assert traced.stats.to_dict() == plain.stats.to_dict()
    assert len(tracer.events) > 0


def test_traced_sweep_renders_the_same_fig9_table():
    """The traced path folds the same job's cells into the same document."""
    job = compile_job({"kind": "sweep", "spec": {
        "apps": ["volrend"], "configs": ["HCC", "B+M+I"], **INTRA_KW}})
    plain = run_job(job, SweepExecutor(jobs=1))
    traced = run_traced_job(job)
    for row in traced["matrix"].values():
        for cell in row.values():
            assert cell.pop("metrics")  # the only addition tracing makes
    assert traced == plain

    def table(doc):
        return rpt.render_fig9({
            app: {cfg: RunResult.from_dict(d) for cfg, d in row.items()}
            for app, row in doc["matrix"].items()
        })

    assert table(traced) == table(plain)
