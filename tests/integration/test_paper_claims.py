"""Integration tests asserting the paper's headline qualitative claims.

These run small-but-representative sweeps and check the *shapes* the
evaluation section reports — configuration orderings, who benefits, and the
storage delta — without pinning fragile absolute numbers.
"""

import pytest

from repro.common.params import inter_block_machine, intra_block_machine
from repro.core.config import (
    INTER_CONFIGS,
    INTRA_BASE,
    INTRA_BI,
    INTRA_BM,
    INTRA_BMI,
    INTRA_HCC,
)
from repro.eval.parallel import sweep_matrix
from repro.eval.runner import run_inter, run_intra
from repro.eval.storage import storage_report
from repro.sim.stats import StallCat, TrafficCat


@pytest.fixture(scope="module")
def raytrace_results():
    """Raytrace — the paper's fine-grain critical-section stress case."""
    out = {}
    for cfg in (INTRA_HCC, INTRA_BASE, INTRA_BM, INTRA_BI, INTRA_BMI):
        out[cfg.name] = run_intra(
            "raytrace",
            cfg,
            num_threads=16,
            scale=0.75,
            machine_params=intra_block_machine(16),
        )
    return out


class TestIntraBlockClaims:
    def test_base_is_the_slowest_incoherent_config(self, raytrace_results):
        base = raytrace_results["Base"].exec_time
        assert base > raytrace_results["B+M"].exec_time
        assert base > raytrace_results["B+M+I"].exec_time

    def test_meb_removes_wb_and_lock_stall(self, raytrace_results):
        """Section VII-B: the MEB "succeeds in eliminating most of the WB
        stall and lock stall" — the lock stall (waiters held up by the
        holder's pre-release WB ALL) is where the effect concentrates."""
        base = raytrace_results["Base"].stats
        bm = raytrace_results["B+M"].stats
        assert bm.stall_total(StallCat.WB) < base.stall_total(StallCat.WB)
        assert bm.stall_total(StallCat.LOCK) < 0.5 * base.stall_total(
            StallCat.LOCK
        )

    def test_ieb_alone_is_not_very_effective(self, raytrace_results):
        """Section VII-B: B+I returns to about Base height."""
        base = raytrace_results["Base"].exec_time
        bi = raytrace_results["B+I"].exec_time
        assert bi > 0.85 * base

    def test_bmi_is_best_incoherent_config(self, raytrace_results):
        bmi = raytrace_results["B+M+I"].exec_time
        for other in ("Base", "B+M", "B+I"):
            assert bmi <= raytrace_results[other].exec_time * 1.02

    def test_bmi_close_to_hcc(self, raytrace_results):
        """The headline: B+M+I within a small factor of hardware coherence."""
        ratio = (
            raytrace_results["B+M+I"].exec_time
            / raytrace_results["HCC"].exec_time
        )
        assert 0.8 <= ratio <= 1.3

    def test_incoherent_has_zero_invalidation_traffic(self, raytrace_results):
        """Section VII-B: 'B+M+I causes no invalidation traffic.'"""
        bmi = raytrace_results["B+M+I"].stats
        assert bmi.traffic[TrafficCat.INVALIDATION] == 0
        hcc = raytrace_results["HCC"].stats
        assert hcc.traffic[TrafficCat.INVALIDATION] > 0

    def test_hcc_executes_no_wbinv(self, raytrace_results):
        hcc = raytrace_results["HCC"].stats
        assert hcc.stall_total(StallCat.WB) == 0
        assert hcc.stall_total(StallCat.INV) == 0


class TestInterBlockClaims:
    @pytest.fixture(scope="class")
    def jacobi_results(self):
        return sweep_matrix(
            "inter", ["jacobi"], INTER_CONFIGS, scale=0.4
        )["jacobi"]

    def test_base_worst_addr_better_addr_l_best(self, jacobi_results):
        base = jacobi_results["Base"].exec_time
        addr = jacobi_results["Addr"].exec_time
        addr_l = jacobi_results["Addr+L"].exec_time
        assert base > addr >= addr_l

    def test_level_adaptive_reduces_global_ops(self, jacobi_results):
        addr = jacobi_results["Addr"].stats
        addr_l = jacobi_results["Addr+L"].stats
        assert addr_l.global_wb_lines < addr.global_wb_lines
        assert addr_l.global_inv_lines < addr.global_inv_lines
        assert addr_l.local_wb_lines > 0  # localized work really happened

    def test_reduction_apps_show_no_level_benefit(self):
        results = sweep_matrix("inter", ["ep"], INTER_CONFIGS, scale=0.25)["ep"]
        addr = results["Addr"].stats
        addr_l = results["Addr+L"].stats
        assert addr_l.global_wb_lines == addr.global_wb_lines
        assert addr_l.global_inv_lines == addr.global_inv_lines


class TestStorageClaim:
    def test_section7a_delta(self):
        report = storage_report(inter_block_machine(4, 8))
        assert 95 <= report.saved_kbytes <= 110  # paper: ~102 KB
        # And it is "a very small savings" relative to the 16 MB L3 alone.
        l3_kb = 16 * 1024
        assert report.saved_kbytes < 0.01 * l3_kb
