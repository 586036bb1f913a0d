"""Tests for the parallel sweep executor."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import intra_block_machine
from repro.core.config import INTER_CONFIGS, INTRA_BMI, INTRA_HCC
from repro.eval.cache import ResultCache
from repro.eval.parallel import (
    SweepCell,
    SweepExecutor,
    _run_cell,
    sweep_matrix,
)

SMALL = dict(num_threads=4, scale=0.5, machine_params=intra_block_machine(4))


def small_cells(apps=("volrend", "raytrace"), configs=(INTRA_HCC, INTRA_BMI)):
    return [SweepCell.make("intra", a, c, **SMALL) for a in apps for c in configs]


def flatten(results):
    return {
        (app, cfg): (r.exec_time, tuple(sorted(r.breakdown().items())))
        for app, per_cfg in results.items()
        for cfg, r in per_cfg.items()
    }


class TestSweepCell:
    def test_make_canonicalizes_kwargs(self):
        a = SweepCell.make("intra", "fft", INTRA_HCC, scale=0.5, num_threads=4)
        b = SweepCell.make("intra", "fft", INTRA_HCC, num_threads=4, scale=0.5)
        assert a == b

    def test_run_cell_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            _run_cell(SweepCell.make("sideways", "fft", INTRA_HCC))


class TestSweepExecutor:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            SweepExecutor(jobs=0)

    def test_default_jobs_is_cpu_count(self):
        import os

        assert SweepExecutor().jobs == (os.cpu_count() or 1)

    def test_serial_preserves_cell_order(self):
        ex = SweepExecutor(jobs=1)
        cells = small_cells()
        results = ex.run_cells(cells)
        assert [(r.app, r.config) for r in results] == [
            (c.app, c.config.name) for c in cells
        ]
        assert ex.stats.cells == 4 and ex.stats.simulated == 4

    def test_parallel_matches_serial_bitwise(self):
        apps, configs = ["volrend", "raytrace"], [INTRA_HCC, INTRA_BMI]
        serial = sweep_matrix(
            "intra", apps, configs, SweepExecutor(jobs=1), **SMALL
        )
        parallel = sweep_matrix(
            "intra", apps, configs, SweepExecutor(jobs=2), **SMALL
        )
        assert flatten(serial) == flatten(parallel)

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        from repro.eval import parallel as mod

        def broken_pool(*a, **k):
            raise OSError("no semaphores here")

        monkeypatch.setattr(mod.futures, "ProcessPoolExecutor", broken_pool)
        ex = SweepExecutor(jobs=2)
        results = ex.run_cells(small_cells())
        assert len(results) == 4 and all(r.exec_time > 0 for r in results)
        assert ex.stats.pool_fallbacks == 1

    def test_cache_hits_skip_simulation(self, tmp_path):
        cells = small_cells()
        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        first = warm.run_cells(cells)
        assert warm.stats.cache_misses == 4 and warm.stats.simulated == 4

        hot = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        second = hot.run_cells(cells)
        assert hot.stats.cache_hits == 4 and hot.stats.simulated == 0
        for a, b in zip(first, second):
            assert a.exec_time == b.exec_time
            assert a.stats.summary() == b.stats.summary()

    def test_stats_summary_mentions_cache(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        ex.run_cells(small_cells(apps=("volrend",)))
        text = ex.stats.summary()
        assert "2 cell(s)" in text and "miss(es)" in text


class TestSweepWrappers:
    def test_sweep_matrix_shape(self):
        out = sweep_matrix(
            "intra", ["volrend"], [INTRA_HCC, INTRA_BMI],
            SweepExecutor(jobs=1), **SMALL,
        )
        assert set(out) == {"volrend"}
        assert set(out["volrend"]) == {"HCC", "B+M+I"}

    def test_sweep_inter_wrapper_parallel(self):
        from repro.core.config import INTER_ADDR_L, INTER_HCC

        kw = dict(num_blocks=2, cores_per_block=2, scale=0.25)
        configs = [INTER_HCC, INTER_ADDR_L]
        serial = sweep_matrix("inter", ["ep"], configs, SweepExecutor(jobs=1), **kw)
        parallel = sweep_matrix(
            "inter", ["ep"], configs, SweepExecutor(jobs=2), **kw
        )
        assert flatten(serial) == flatten(parallel)


class TestCpuLoops:
    """``SweepStats.cpu_loops`` counts simulated cells per CPU loop taken.

    A vacuity guard: ``fast`` must really take the fused loop through the
    job path, or a ref-vs-fast comparison compares ``ref`` with itself.
    """

    @staticmethod
    def fig12_loops(**spec):
        from repro.serve.jobs import compile_job, run_job

        job = compile_job({"kind": "sweep", "spec": {
            "apps": ["cg", "ep", "is", "jacobi"],
            "configs": [c.name for c in INTER_CONFIGS],
            "scale": 0.1, **spec,
        }})
        executor = SweepExecutor(jobs=1)
        run_job(job, executor)
        return executor.stats.cpu_loops

    def test_empty_env_takes_the_reference_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "")
        monkeypatch.setenv("REPRO_MODEL", "")
        assert self.fig12_loops() == {"reference": 16}  # 4 apps x 4 configs

    def test_fast_engine_takes_the_fused_loop(self):
        assert self.fig12_loops(engine="fast", model="sisd") == {"fused": 16}
