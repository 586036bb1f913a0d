"""Unit tests for the auto-checked scenario fleet (repro.eval.fleet).

Fleets run as ``fleet`` jobs: :func:`repro.serve.jobs.compile_job` lowers
the spec, :func:`repro.serve.jobs.run_job` runs it on a local executor.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError
from repro.core.config import INTRA_HCC
from repro.eval.fleet import fleet_cells
from repro.eval.parallel import SweepExecutor
from repro.serve.jobs import JobError, compile_job, run_job
from repro.workloads.gen import sample_specs


def _specs(n=2, seed=123):
    return sample_specs(n, seed=seed)


def run_fleet(executor=None, **spec):
    """Run one ``fleet`` job (default seed 123) and return its verdict."""
    spec.setdefault("seed", 123)
    job = compile_job({"kind": "fleet", "spec": spec})
    return run_job(job, executor or SweepExecutor(jobs=1))


def test_fleet_verdict_is_clean_and_complete():
    specs = _specs(3)
    verdict = run_fleet(
        scenarios=3, configs=["Base", "B+M+I"], engines=["ref", "fast"],
    )
    assert verdict["clean"] is True
    assert verdict["scenarios"] == 3
    assert verdict["cells"] == 3 * (1 + 2 * 2)
    assert verdict["lint_checks"] == 3 * 2
    assert verdict["oracle_divergences"] == 0
    assert verdict["engine_mismatches"] == 0
    assert verdict["lint_violations"] == 0
    assert sum(verdict["patterns"].values()) == 3
    assert len(verdict["details"]) == 3
    for entry, spec in zip(verdict["details"], specs):
        assert entry["scenario"] == spec.name
        assert entry["oracle_ok"] and entry["engine_ok"] and entry["lint_ok"]
        assert len(entry["cells"]) == 4
        for cell in entry["cells"].values():
            assert cell["digest"] == entry["digest"]


def test_fleet_verdict_is_json_serializable():
    verdict = run_fleet(scenarios=1, configs=["B+M+I"])
    again = json.loads(json.dumps(verdict, sort_keys=True))
    assert again["clean"] is True


def test_fleet_lint_can_be_skipped():
    verdict = run_fleet(scenarios=1, configs=["B+M+I"], lint=False)
    assert verdict["lint_checks"] == 0
    assert verdict["lint_violations"] == 0
    assert verdict["clean"] is True


def test_fleet_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="at least one scenario"):
        fleet_cells([])
    with pytest.raises(ConfigError, match="at least one engine"):
        fleet_cells(_specs(1), engines=())
    with pytest.raises(ConfigError, match="software-coherent"):
        fleet_cells(_specs(1), configs=(INTRA_HCC,))
    # The job lowering surfaces the same checks as 400s.
    with pytest.raises(JobError, match="software-coherent"):
        run_fleet(scenarios=1, configs=["HCC"])
    with pytest.raises(JobError, match="scenarios"):
        run_fleet(scenarios=0)
    with pytest.raises(JobError, match="engines"):
        run_fleet(scenarios=1, engines=[])


def test_run_default_fleet_samples_reproducibly():
    a = run_fleet(scenarios=2, seed=99, configs=["B+M+I"])
    b = run_fleet(scenarios=2, seed=99, configs=["B+M+I"])
    assert a["details"][0]["digest"] == b["details"][0]["digest"]
    assert [d["scenario"] for d in a["details"]] == [
        d["scenario"] for d in b["details"]
    ]


def test_fleet_detects_a_divergent_cell(monkeypatch):
    """A corrupted digest must flip the verdict dirty (oracle + engine)."""
    real_run_cells = SweepExecutor.run_cells

    def corrupt(self, cells):
        results = real_run_cells(self, cells)
        # Corrupt the last software-coherent cell's digest.
        bad = results[-1]
        results[-1] = type(bad)(
            bad.app, bad.config, bad.stats, bad.metrics, bad.faults,
            "0" * 64,
        )
        return results

    monkeypatch.setattr(SweepExecutor, "run_cells", corrupt)
    verdict = run_fleet(
        scenarios=1, configs=["B+M+I"], engines=["ref", "fast"], lint=False,
    )
    assert verdict["oracle_divergences"] == 1
    assert verdict["engine_mismatches"] == 1
    assert verdict["clean"] is False
    assert verdict["details"][0]["oracle_ok"] is False
    assert verdict["details"][0]["engine_ok"] is False


def test_gen_cells_cache_per_engine(tmp_path):
    """ref and fast results occupy distinct cache entries (engine kwarg)."""
    from repro.eval.cache import ResultCache

    cache = ResultCache(tmp_path)
    spec = {"scenarios": 1, "seed": 2, "configs": ["B+M+I"],
            "engines": ["ref", "fast"], "lint": False}
    ex = SweepExecutor(jobs=1, cache=cache)
    run_fleet(ex, **spec)
    assert len(cache) == 3  # HCC reference + one per engine
    assert ex.stats.cache_misses == 3
    ex2 = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
    run_fleet(ex2, **spec)
    assert ex2.stats.cache_hits == 3
    assert ex2.stats.simulated == 0
