"""Unit tests for the litmus-matrix harness (`repro.models.matrix`).

The grid runs as a ``litmus`` job with ``matrix: true``:
:func:`repro.serve.jobs.compile_job` lowers it and
:func:`repro.serve.jobs.run_job` returns the grid document.
"""

import pytest

from repro.eval.parallel import SweepExecutor
from repro.models.matrix import (
    EXPECTED_DIVERGENCES,
    MatrixCell,
    matrix_axes,
    matrix_cells,
    render_matrix,
)
from repro.serve.jobs import JobError, compile_job, run_job

KERNELS = ("mp_flag", "lock_handoff_three_threads_broken")


def run_matrix(models, kernels, engines, executor=None):
    """Run one matrix job and return its grid document."""
    job = compile_job({"kind": "litmus", "spec": {
        "matrix": True, "models": models, "kernels": kernels,
        "engines": engines,
    }})
    return run_job(job, executor or SweepExecutor(cache=None))


@pytest.fixture(scope="module")
def small_matrix():
    return run_matrix(["base", "rc", "sisd"], list(KERNELS), ["ref"])


class TestCellLowering:
    def test_oracle_dedupes_against_grid_hcc_ref(self):
        with_hcc, o1, g1 = matrix_cells(["base", "hcc"], KERNELS, ["ref"])
        without, o2, g2 = matrix_cells(["base"], KERNELS, ["ref"])
        # hcc/ref grid cells ARE the oracle cells: 2 models x 2 kernels
        # collapses to 2 base cells + 2 shared oracle cells.
        assert len(with_hcc) == 4
        assert len(without) == 4
        for k in KERNELS:
            assert o1[k] == g1[("hcc", k, "ref")]

    def test_every_grid_point_is_indexed(self):
        models, engines = ("base", "rc"), ("ref", "fast")
        cells, oracle_idx, grid_idx = matrix_cells(models, KERNELS, engines)
        assert set(grid_idx) == {
            (m, k, e) for m in models for k in KERNELS for e in engines
        }
        assert set(oracle_idx) == set(KERNELS)
        assert all(0 <= i < len(cells) for i in grid_idx.values())

    def test_hcc_cells_use_hardware_coherent_configs(self):
        cells, oracle_idx, _ = matrix_cells(["base"], ["mp_flag"], ["ref"])
        oracle = cells[oracle_idx["mp_flag"]]
        assert oracle.config.hardware_coherent
        grid_cell = [c for c in cells if not c.config.hardware_coherent]
        assert len(grid_cell) == 1


class TestRunMatrix:
    def test_small_grid_is_clean(self, small_matrix):
        assert small_matrix["ok"]
        assert small_matrix["unexpected"] == []

    def test_expected_divergence_is_present(self, small_matrix):
        broken = "lock_handoff_three_threads_broken"
        grid = small_matrix["grid"]
        for model in ("base", "rc"):
            c = grid[model][broken]["ref"]
            assert c["verdict"] == "diverge" and not c["unexpected"]
        assert grid["sisd"][broken]["ref"]["verdict"] == "match"

    def test_to_dict_grid_shape(self, small_matrix):
        doc = small_matrix
        assert doc["ok"] is True
        assert set(doc["grid"]) == {"base", "rc", "sisd"}
        assert set(doc["grid"]["base"]) == set(KERNELS)
        assert set(doc["model_exec_medians"]) == {"base", "rc", "sisd"}
        assert set(doc["oracle"]) == set(KERNELS)

    def test_render_glyphs(self, small_matrix):
        text = render_matrix(small_matrix)
        assert "all verdicts as expected" in text
        # base/rc diverge (expected) on the broken kernel; no cell is '!'
        # (the legend line mentions the glyph, so scan data rows only).
        rows = {
            line.split()[0]: line.split()[1:]
            for line in text.splitlines()
            if line.startswith(("mp_flag", "lock_handoff"))
        }
        assert rows["mp_flag"] == ["=", "=", "="]
        assert rows["lock_handoff_three_threads_broken"] == ["x", "x", "="]

    def test_validation_rejects_unknowns(self):
        with pytest.raises(JobError):
            run_matrix(["tso"], ["mp_flag"], ["ref"])
        with pytest.raises(JobError):
            run_matrix(["base"], ["ghost_kernel"], ["ref"])
        with pytest.raises(JobError):
            run_matrix(["base"], ["mp_flag"], ["warp"])
        with pytest.raises(JobError, match="duplicate"):
            run_matrix(["base", "base"], ["mp_flag"], ["ref"])


class TestExpectationTable:
    def test_defaults_cover_every_registered_axis(self):
        from repro.engines import available_engines
        from repro.models import available_models
        from repro.workloads.litmus import LITMUS

        assert matrix_axes(None, None, None) == (
            available_models(), tuple(LITMUS), available_engines()
        )

    def test_table_names_real_cells(self):
        from repro.models import available_models
        from repro.workloads.litmus import LITMUS

        for model, kernel in EXPECTED_DIVERGENCES:
            assert model in available_models()
            assert kernel in LITMUS
            # Only non-determinate kernels may legitimately diverge.
            assert not LITMUS[kernel].determinate

    def test_unexpected_cell_flags(self):
        good = MatrixCell("base", "mp_flag", "ref", "match", "match", 1, "d")
        bad = MatrixCell("base", "mp_flag", "ref", "diverge", "match", 1, "d")
        assert not good.unexpected and bad.unexpected
        assert bad.to_dict()["unexpected"] is True
