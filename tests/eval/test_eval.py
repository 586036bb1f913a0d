"""Tests for the evaluation harness (runner, storage model, reports)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import inter_block_machine, intra_block_machine
from repro.core.config import INTRA_BMI, INTRA_HCC, INTER_ADDR_L, INTER_HCC
from repro.eval.report import (
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
    render_storage,
    render_table1,
    render_table2,
    render_table3,
)
from repro.eval.parallel import sweep_matrix
from repro.eval.runner import (
    normalized_exec,
    run_inter,
    run_intra,
    stall_fractions,
)
from repro.eval.storage import storage_report


class TestStorageModel:
    def test_paper_number_reproduced(self):
        """Section VII-A: the incoherent hierarchy saves about 102 KB."""
        report = storage_report()
        assert 95 <= report.saved_kbytes <= 110

    def test_savings_scale_with_machine(self):
        small = storage_report(inter_block_machine(2, 2))
        big = storage_report(inter_block_machine(4, 8))
        assert big.saved_bits > small.saved_bits

    def test_intra_machine_has_no_l3_directory(self):
        report = storage_report(intra_block_machine(16))
        assert report.coherent_bits > 0
        assert report.saved_bits != 0


class TestRunner:
    def test_run_intra_returns_verified_result(self):
        r = run_intra("volrend", INTRA_BMI, num_threads=4, scale=0.5,
                      machine_params=intra_block_machine(4))
        assert r.app == "volrend" and r.config == "B+M+I"
        assert r.exec_time > 0

    def test_run_inter(self):
        r = run_inter("ep", INTER_ADDR_L, num_blocks=2, cores_per_block=2,
                      scale=0.25)
        assert r.exec_time > 0

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            run_intra("nope", INTRA_HCC)
        with pytest.raises(ConfigError):
            run_inter("nope", INTER_HCC)

    def test_normalized_exec(self):
        results = sweep_matrix(
            "intra",
            ["volrend"],
            [INTRA_HCC, INTRA_BMI],
            num_threads=4,
            scale=0.5,
            machine_params=intra_block_machine(4),
        )
        norm = normalized_exec(results["volrend"])
        assert norm["HCC"] == 1.0
        assert norm["B+M+I"] > 0

    def test_stall_fractions_sum_to_one(self):
        r = run_intra("volrend", INTRA_BMI, num_threads=4, scale=0.5,
                      machine_params=intra_block_machine(4))
        fractions = stall_fractions(r)
        assert abs(sum(fractions.values()) - 1.0) < 1e-6


class TestReports:
    @pytest.fixture(scope="class")
    def small_results(self):
        return sweep_matrix(
            "intra",
            ["volrend", "raytrace"],
            [INTRA_HCC, INTRA_BMI],
            num_threads=4,
            scale=0.5,
            machine_params=intra_block_machine(4),
        )

    def test_table_renderers_nonempty(self):
        assert "cholesky" in render_table1()
        assert "B+M+I" in render_table2()
        t3 = render_table3(inter_block_machine())
        assert "32KB" in t3 and "150-cycle" in t3

    def test_storage_render_mentions_paper(self):
        out = render_storage(storage_report())
        assert "102" in out

    def test_fig9_render(self, small_results):
        out = render_fig9(small_results)
        assert "volrend" in out and "MEAN" in out
        assert "wb_stall" in out

    def test_fig10_render(self, small_results):
        out = render_fig10(small_results)
        assert "linefill" in out

    def test_fig11_and_12_render(self):
        from repro.core.config import INTER_CONFIGS

        results = sweep_matrix(
            "inter", ["ep"], list(INTER_CONFIGS), num_blocks=2, cores_per_block=2,
            scale=0.25,
        )
        assert "ep" in render_fig11(results)
        out12 = render_fig12(results)
        assert "ep" in out12 and "MEAN" in out12
