"""Figure 10: network traffic of B+M+I relative to HCC (128-bit flits).

For each application, total flits broken into memory / linefill / writeback
/ invalidation.  Paper reference: B+M+I averages ≈4% *less* traffic than HCC
— no invalidation traffic, no false-sharing ping-pong, dirty-word-only
writebacks — despite imprecise (ALL-based) annotations.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import INTRA_SCALE, run_once, save_result

from repro.core.config import INTRA_BMI, INTRA_HCC
from repro.eval.parallel import sweep_matrix
from repro.eval.report import render_fig10
from repro.sim.stats import TrafficCat
from repro.workloads import MODEL_ONE


def sweep():
    """The Figure 10 matrix with its traffic assertions."""
    results = sweep_matrix(
        "intra", sorted(MODEL_ONE), [INTRA_HCC, INTRA_BMI], scale=INTRA_SCALE
    )
    for app, per_cfg in results.items():
        bmi = per_cfg["B+M+I"].stats
        hcc = per_cfg["HCC"].stats
        # Qualitative claims that hold for every application:
        assert bmi.traffic[TrafficCat.INVALIDATION] == 0, app
        assert hcc.traffic[TrafficCat.INVALIDATION] > 0, app
    return results


def test_fig10(benchmark):
    results = run_once(benchmark, sweep)
    save_result("fig10_traffic", render_fig10(results))
