"""Ablation: hierarchical reductions (the paper's §VII-C suggestion).

"Since a reduction does not have ordering, it is not possible to determine
producer-consumer pairs ... To exploit local communication, one could
re-write the code to have hierarchical reductions, which reduce first
inside the block and then globally."

This bench runs EP flat vs EP rewritten with the two-level reduction under
Addr+L on the 4×8 machine, showing that the rewrite (a) localizes most of
the previously-global WB/INV lines and (b) speeds up execution — the
level-adaptive hardware pays off once the software exposes the hierarchy.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import run_once, save_result

from repro import Machine, inter_block_machine
from repro.core.config import INTER_ADDR_L
from repro.workloads import MODEL_TWO


def run(app: str, **kw) -> dict:
    machine = Machine(inter_block_machine(4, 8), INTER_ADDR_L, num_threads=32)
    stats = MODEL_TWO[app](scale=1.0, **kw).run_on(machine)
    return {
        "exec": stats.exec_time,
        "gwb": stats.global_wb_lines,
        "ginv": stats.global_inv_lines,
        "lwb": stats.local_wb_lines,
        "linv": stats.local_inv_lines,
    }


def sweep():
    """Flat vs hierarchical EP reduction; returns the report text."""
    flat = run("ep")
    hier = run("ep_hier", num_blocks=4)
    lines = [
        "EP under Addr+L, 4 blocks x 8 cores",
        f"  flat reduction:          exec={flat['exec']:8d}  "
        f"global wb/inv lines = {flat['gwb']}/{flat['ginv']}",
        f"  hierarchical reduction:  exec={hier['exec']:8d}  "
        f"global wb/inv lines = {hier['gwb']}/{hier['ginv']}  "
        f"(local = {hier['lwb']}/{hier['linv']})",
        f"  speedup: {flat['exec'] / hier['exec']:.2f}x",
    ]
    assert hier["gwb"] < flat["gwb"]
    assert hier["exec"] < flat["exec"]
    return "\n".join(lines)


def test_hierarchical_reduction_ablation(benchmark):
    save_result("ablation_hier_reduce", run_once(benchmark, sweep))
