"""Ablation: does B+M+I track HCC as the block scales? (DESIGN.md §6)

The paper evaluates one block size (16 cores).  This sweep runs a
lock-intensive (Volrend) and a barrier-intensive (Ocean) application at
4/8/16 cores and checks that the B+M+I-vs-HCC gap stays bounded as
synchronization frequency per core grows — the scalability argument behind
"about as fast as one with hardware coherence".
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import run_once, save_result

from repro.common.params import intra_block_machine
from repro.core.config import INTRA_BASE, INTRA_BMI, INTRA_HCC
from repro.eval.runner import run_intra

CORE_COUNTS = (4, 8, 16)
APPS = ("volrend", "ocean_cont")


def sweep():
    """The core-count scaling sweep; returns the report text."""
    lines = [f"{'app':12s} {'cores':>5s} {'Base/HCC':>9s} {'B+M+I/HCC':>10s}"]
    worst = 0.0
    for app in APPS:
        for cores in CORE_COUNTS:
            params = intra_block_machine(cores)
            hcc = run_intra(
                app, INTRA_HCC, num_threads=cores, machine_params=params
            ).exec_time
            base = run_intra(
                app, INTRA_BASE, num_threads=cores, machine_params=params
            ).exec_time
            bmi = run_intra(
                app, INTRA_BMI, num_threads=cores, machine_params=params
            ).exec_time
            lines.append(
                f"{app:12s} {cores:5d} {base / hcc:9.3f} {bmi / hcc:10.3f}"
            )
            worst = max(worst, bmi / hcc)
    # The headline claim must survive scaling: B+M+I stays near HCC.
    assert worst < 1.35, f"B+M+I drifted to {worst:.2f}x HCC"
    return "\n".join(lines)


def test_core_count_scaling(benchmark):
    save_result("ablation_scaling", run_once(benchmark, sweep))
