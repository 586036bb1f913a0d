"""Figure 12: normalized inter-block execution time (HCC/Base/Addr/Addr+L).

Runs EP, IS, CG, and Jacobi on the 4-block × 8-core machine.  Paper
reference: Base is worst; Addr pays off where addresses are known; Addr+L
adds level adaptivity (≈5% over Addr, ≈31% over Base, ≈5% above HCC on
average); EP/IS see no Addr+L benefit (reductions).
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import INTER_SCALE, run_once, save_result

from repro.core.config import INTER_CONFIGS
from repro.eval.parallel import sweep_matrix
from repro.eval.report import render_fig12
from repro.workloads import MODEL_TWO


def sweep():
    """The Figure 12 matrix with its shape assertions."""
    apps = ["cg", "ep", "is", "jacobi"]  # the paper's Figure 12 apps
    results = sweep_matrix(
        "inter", apps, list(INTER_CONFIGS), scale=INTER_SCALE
    )
    means = {}
    for app, per_cfg in results.items():
        base = per_cfg["HCC"].exec_time
        for cfg, res in per_cfg.items():
            means.setdefault(cfg, []).append(res.exec_time / base)
    avg = {cfg: sum(v) / len(v) for cfg, v in means.items()}
    assert avg["Base"] > avg["Addr"] >= avg["Addr+L"], avg
    assert avg["Addr+L"] < 1.25, "Addr+L must land near HCC (paper: +5%)"
    # Addr+L improves on Base by a large factor (paper: 31%).
    assert (avg["Base"] - avg["Addr+L"]) / avg["Base"] > 0.2
    return results


def test_fig12(benchmark):
    results = run_once(benchmark, sweep)
    save_result("fig12_inter_time", render_fig12(results))
