"""Figure 9: normalized intra-block execution time with stall breakdown.

Runs every SPLASH application under the five upper Table II configurations
on the 16-core block and prints the normalized bars (HCC = 1.0) with the
five-way INV/WB/lock/barrier/rest split.  Paper reference: Base averages
≈1.20, B+M close to HCC, B+I back near Base, B+M+I ≈1.02.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import INTRA_SCALE, run_once, save_result

from repro.core.config import INTRA_CONFIGS
from repro.eval.parallel import sweep_matrix
from repro.eval.report import render_fig9
from repro.workloads import MODEL_ONE


def sweep():
    """The Figure 9 matrix with its shape assertions; returns the results."""
    results = sweep_matrix(
        "intra", sorted(MODEL_ONE), list(INTRA_CONFIGS), scale=INTRA_SCALE
    )
    # Shape assertions on the mean across applications.
    means = {}
    for app, per_cfg in results.items():
        base = per_cfg["HCC"].exec_time
        for cfg, res in per_cfg.items():
            means.setdefault(cfg, []).append(res.exec_time / base)
    avg = {cfg: sum(v) / len(v) for cfg, v in means.items()}
    assert avg["Base"] > avg["B+M+I"], "Base must be the slowest"
    assert avg["B+M+I"] < 1.25, "B+M+I must be near HCC (paper: +2%)"
    assert avg["B+I"] > avg["B+M"], "IEB alone beats nothing (paper §VII-B)"
    return results


def test_fig9(benchmark):
    results = run_once(benchmark, sweep)
    save_result("fig9_intra_time", render_fig9(results))
