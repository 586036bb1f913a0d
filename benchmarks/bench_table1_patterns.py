"""Table I: communication patterns observed in the Model-1 applications.

Regenerates the classification table and *validates* it against observed
behavior: a small instrumented run of each application must actually issue
the synchronization operations its declared patterns imply.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import run_once, save_result

from repro import Machine, intra_block_machine
from repro.core.config import INTRA_BASE
from repro.eval.report import render_table1
from repro.isa import ops as isa
from repro.workloads import MODEL_ONE, Pattern


def observed_patterns(app: str) -> set[str]:
    """Run a scaled instance; classify from the sync primitives it touched."""
    machine = Machine(intra_block_machine(4), INTRA_BASE, num_threads=4)
    workload = MODEL_ONE[app](scale=0.4)
    workload.prepare(machine)
    machine.run()
    out: set[str] = set()
    if machine.sync.table.barriers:
        out.add(Pattern.BARRIER)
    if machine.sync.table.locks:
        out.add(Pattern.CRITICAL)
    if machine.sync.table.flags:
        out.add(Pattern.FLAG)
    return out


def build():
    """Render and validate Table I; returns the report text."""
    rows = [render_table1(), "", "validation (observed sync primitives):"]
    for app, cls in sorted(MODEL_ONE.items()):
        declared = set(cls.main_patterns) | set(cls.other_patterns)
        observed = observed_patterns(app)
        # Every observed primitive must be declared (OCC/data-race are
        # annotations on top of locks, not separate primitives).
        base = {
            p
            for p in declared
            if p in (Pattern.BARRIER, Pattern.CRITICAL, Pattern.FLAG)
        }
        ok = observed <= (base | {Pattern.BARRIER})
        rows.append(f"  {app:14s} observed={sorted(observed)} ok={ok}")
        assert observed & base or not base, (app, observed, declared)
    return "\n".join(rows)


def test_table1(benchmark):
    save_result("table1_patterns", run_once(benchmark, build))
