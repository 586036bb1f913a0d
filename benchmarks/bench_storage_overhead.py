"""Section VII-A: control and storage overhead of both hierarchies.

The paper's 4-block × 8-core machine: the incoherent hierarchy (valid +
per-word dirty bits, MEB/IEB) uses about 102 KB less storage than the
coherent one (hierarchical full-map directory + MESI state bits).
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import run_once, save_result

from repro.common.params import inter_block_machine
from repro.eval.report import render_storage, render_table3
from repro.eval.storage import storage_report


def build():
    """Render the storage/architecture tables; returns the report text."""
    machine = inter_block_machine(4, 8)
    report = storage_report(machine)
    text = "\n".join(
        [
            render_table3(machine),
            "",
            render_storage(report),
        ]
    )
    assert 95 <= report.saved_kbytes <= 110  # paper: ~102 KB
    return text


def test_storage_overhead(benchmark):
    save_result("storage_overhead", run_once(benchmark, build))
