"""Chaos runner: target resolution, digest verification, divergence path.

Sweeps run as ``chaos`` jobs: :func:`repro.serve.jobs.compile_job` lowers
the spec, :func:`repro.serve.jobs.run_job` runs it on a local executor and
returns the :func:`repro.faults.report.summarize` document.
"""

import pytest

from repro.common.errors import ConfigError
from repro.eval.parallel import SweepExecutor
from repro.faults.chaos import (
    assemble_chaos,
    chaos_cells,
    default_targets,
    tiny_pressure_machine,
)
from repro.faults.model import FaultKind, random_plans
from repro.faults.report import percentile, render_json, render_text
from repro.serve.jobs import compile_job, run_job


def run_chaos(workloads, plans, seed, executor=None):
    """Run one ``chaos`` job and return its summary document."""
    job = compile_job({"kind": "chaos", "spec": {
        "workloads": workloads, "plans": plans, "seed": seed,
    }})
    return run_job(job, executor or SweepExecutor(jobs=1))


def test_default_targets_cover_both_models_and_pressure():
    targets = default_targets()
    kinds = {t.kind for t in targets}
    assert kinds == {"litmus", "intra", "inter"}
    apps = {t.app for t in targets}
    # the paper workloads riding along with the litmus registry
    assert {"fft", "lu_cont", "is"} <= apps
    # only timing-independent kernels are valid chaos targets
    from repro.workloads.litmus import LITMUS

    for t in targets:
        if t.kind == "litmus":
            assert LITMUS[t.app].determinate


def test_default_targets_tokens():
    assert len(default_targets(["fft"])) == 1
    assert default_targets(["mp_flag"])[0].kind == "litmus"
    tiny = default_targets(["tiny"])[0]
    kwargs = dict(tiny.kwargs)
    assert kwargs["machine_params"] == tiny_pressure_machine()
    with pytest.raises(ConfigError):
        default_targets(["no_such_workload"])


def test_chaos_clean_on_determinate_kernels():
    plans = random_plans(2, seed=5)
    result = run_chaos(["mp_flag", "lock_counter"], 2, seed=5)
    assert result["clean"]
    assert result["divergences"] == {}
    assert len(result["per_target"]) == 2
    for outcome in result["per_target"]:
        assert outcome["reference_digest"] is not None
        # the fault-free baseline matched the HCC reference too
        assert outcome["divergent_plans"] == []
        assert [r["plan"] for r in outcome["runs"]] == [p.name for p in plans]
        for run in outcome["runs"]:
            assert not run["diverged"]
    # The summary cannot tell "no injector" from "armed, never fired", so
    # check the per-run results of the same cells the job lowers to.
    targets = default_targets(["mp_flag", "lock_counter"])
    cells = SweepExecutor(jobs=1).run_cells(chaos_cells(targets, plans))
    raw = assemble_chaos(targets, plans, cells)
    assert raw.clean
    for outcome in raw.outcomes:
        assert outcome.baseline.memory_digest == outcome.reference.memory_digest
        assert len(outcome.runs) == len(plans)
        for run in outcome.runs:
            assert run.memory_digest == outcome.reference.memory_digest
            assert run.faults is not None


def test_chaos_detects_a_value_divergence():
    # The deliberately broken handoff kernel loses an update under B+M+I:
    # its *baseline* memory already diverges from the HCC oracle, which is
    # exactly the failure mode the digest comparison must catch.
    result = run_chaos(["lock_handoff_three_threads_broken"], 1, seed=5)
    assert not result["clean"]
    bad = result["divergences"]["litmus:lock_handoff_three_threads_broken"]
    assert "<baseline>" in bad


def test_run_chaos_requires_targets():
    with pytest.raises(ConfigError):
        chaos_cells([], random_plans(1))


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0], 100) == 2.0


def test_summarize_and_render():
    summary = run_chaos(["lock_multiline_sweep"], 2, seed=9)
    assert summary["clean"]
    assert summary["plans"] == 2
    assert summary["runs"] == 2
    assert summary["slowdown_p50"] >= 1.0 or summary["slowdown_p50"] > 0
    assert set(summary["kinds"]) == {k.value for k in FaultKind}
    text = render_text(summary)
    assert "PASS" in text
    assert "lock_multiline_sweep" in text
    import json

    assert json.loads(render_json(summary))["clean"] is True


def test_chaos_cells_hit_the_result_cache(tmp_path):
    from repro.eval.cache import ResultCache

    ex1 = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
    first = run_chaos(["mp_flag"], 1, seed=4, executor=ex1)
    assert ex1.stats.cache_hits == 0
    ex2 = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
    second = run_chaos(["mp_flag"], 1, seed=4, executor=ex2)
    assert ex2.stats.cache_hits == ex1.stats.cells
    assert first == second
