"""Figure 11: number of global WBs/INVs — Addr+L normalized to Addr.

Counts WBs that reach the L3 and INVs that reach down to the L2.  Paper
reference: Jacobi drops to ≈25% (boundary exchange localized), CG's INVs to
≈78% (inspector finds same-block producers; WBs stay global), EP and IS stay
at 100% (reductions have no producer-consumer ordering).
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import INTER_SCALE, bench_main, run_once, save_result

from repro.core.config import INTER_ADDR, INTER_ADDR_L
from repro.eval.parallel import sweep_matrix
from repro.eval.report import render_fig11
from repro.workloads import MODEL_TWO


def sweep():
    """The Figure 11 matrix with its localization assertions."""
    apps = ["cg", "ep", "is", "jacobi"]  # the paper's Figure 11 apps
    results = sweep_matrix(
        "inter", apps, [INTER_ADDR, INTER_ADDR_L], scale=INTER_SCALE
    )
    # EP: reductions only — no localization at all.
    ep_a = results["ep"]["Addr"].stats
    ep_l = results["ep"]["Addr+L"].stats
    assert ep_l.global_wb_lines == ep_a.global_wb_lines
    assert ep_l.global_inv_lines == ep_a.global_inv_lines
    # CG: INVs partially localized; WBs unchanged (whole-range WB to L3).
    cg_a = results["cg"]["Addr"].stats
    cg_l = results["cg"]["Addr+L"].stats
    assert cg_l.global_wb_lines == cg_a.global_wb_lines
    assert 0.5 < cg_l.global_inv_lines / cg_a.global_inv_lines < 1.0
    # Jacobi: most boundary traffic becomes intra-block.
    ja_a = results["jacobi"]["Addr"].stats
    ja_l = results["jacobi"]["Addr+L"].stats
    assert ja_l.global_wb_lines / ja_a.global_wb_lines < 0.5
    return results


def test_fig11(benchmark):
    results = run_once(benchmark, sweep)
    save_result("fig11_global_ops", render_fig11(results))


if __name__ == "__main__":
    raise SystemExit(bench_main("fig11_global_ops", sweep))
