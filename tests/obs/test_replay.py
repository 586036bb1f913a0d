"""Tests for traced replay helpers and metrics riding inside RunResult."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.common.errors import ConfigError
from repro.core.config import INTRA_BMI
from repro.eval.parallel import SweepCell, _run_cell
from repro.eval.runner import RunResult, run_intra
from repro.obs import validate_jsonl
from repro.obs.replay import cell_trace_name, run_traced, run_traced_job
from repro.serve.jobs import compile_job
from repro.workloads.gen import ScenarioSpec

KW = dict(num_threads=4, scale=0.5)


def test_run_traced_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        run_traced(SweepCell.make("diagonal", "volrend", INTRA_BMI))


@pytest.mark.parametrize("cell", [
    SweepCell.make("litmus", "mp_flag", INTRA_BMI),
    SweepCell.make(
        "gen", "migratory", INTRA_BMI,
        spec=ScenarioSpec(pattern="migratory", seed=3),
    ),
], ids=lambda c: c.kind)
def test_run_traced_handles_every_cell_kind(cell):
    traced, tracer, metrics = run_traced(cell)
    assert traced.stats == _run_cell(cell).stats
    assert tracer.events and traced.metrics == metrics.snapshot()


def test_cell_trace_name_is_filesystem_safe():
    assert cell_trace_name("fft", "B+M+I") == "fft-BMI.trace.jsonl"
    assert "/" not in cell_trace_name("ep", "Addr+L")


def test_run_result_carries_metrics_snapshot():
    result, _tracer, metrics = run_traced(
        SweepCell.make("intra", "volrend", INTRA_BMI, **KW)
    )
    assert result.metrics == metrics.snapshot()
    d = result.to_dict()
    assert d["metrics"] == result.metrics
    # JSON round trip (the persistent cache path) preserves the snapshot.
    restored = RunResult.from_dict(json.loads(json.dumps(d)))
    assert restored == result
    # Pickle round trip (the process-pool path) too.
    assert pickle.loads(pickle.dumps(result)) == result


def test_plain_runs_keep_dict_form_unchanged():
    plain = run_intra("volrend", INTRA_BMI, **KW)
    assert plain.metrics is None
    assert "metrics" not in plain.to_dict()  # old cache entries stay valid
    assert RunResult.from_dict(plain.to_dict()) == plain


def test_traced_sweep_writes_traces_and_metrics(tmp_path):
    trace_dir = tmp_path / "traces"
    metrics_path = tmp_path / "metrics.json"
    job = compile_job({"kind": "sweep", "spec": {
        "apps": ["volrend"], "configs": ["HCC", "B+M+I"], **KW}})
    doc = run_traced_job(job, trace_dir=trace_dir, metrics_path=metrics_path)
    assert set(doc["matrix"]["volrend"]) == {"HCC", "B+M+I"}
    for cfg in ("HCC", "BMI"):
        path = trace_dir / f"volrend-{cfg}.trace.jsonl"
        assert validate_jsonl(path) > 0
    per_cell = json.loads(metrics_path.read_text())
    assert set(per_cell["volrend"]) == {"HCC", "B+M+I"}
    assert (
        per_cell["volrend"]["B+M+I"]
        == doc["matrix"]["volrend"]["B+M+I"]["metrics"]
    )
