"""Differential acceptance for the generative traffic engine.

Two heavyweight cross-checks over a 64-scenario sample of the generator's
whole parameter space (every pattern, varied seeds/threads/footprints):

* **Engine equivalence** — the packed-array fast engine must reproduce
  the reference engine's MachineStats and final-memory digest
  bit-for-bit on every scenario (the fleet relies on this to treat
  engines as interchangeable cache entries).
* **Chaos survival** — scenarios are timing-independent by construction,
  so a seeded fault plan may cost cycles but can never change the final
  memory: a 5-plan chaos pass over generated targets must report zero
  divergences.
"""

from __future__ import annotations

from repro.core.config import INTRA_BMI, INTRA_HCC
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.faults.chaos import ChaosTarget, assemble_chaos, chaos_cells
from repro.faults.model import random_plans
from repro.workloads.gen import sample_specs

#: One fixed 64-scenario sample; the seed pins the whole matrix.
SPECS = sample_specs(64, seed=20160516)


def test_64_scenarios_ref_vs_fast_bit_identical():
    cells = []
    for spec in SPECS:
        for engine in ("ref", "fast"):
            cells.append(
                SweepCell.make(
                    "gen", spec.name, INTRA_BMI, spec=spec,
                    memory_digest=True, engine=engine,
                )
            )
    results = SweepExecutor().run_cells(cells)
    for i, spec in enumerate(SPECS):
        ref, fast = results[2 * i], results[2 * i + 1]
        assert fast.stats == ref.stats, spec.name
        assert fast.memory_digest == ref.memory_digest, spec.name


def test_generated_scenarios_survive_chaos():
    targets = [
        ChaosTarget("gen", spec.name, INTRA_BMI, INTRA_HCC, (("spec", spec),))
        for spec in SPECS[:12]
    ]
    plans = random_plans(5, seed=20160516)
    # Generated targets have no chaos-job token, so drive the same two
    # halves the ``chaos`` job kind lowers to around one executor batch.
    results = SweepExecutor().run_cells(chaos_cells(targets, plans))
    result = assemble_chaos(targets, plans, results)
    assert result.clean, result.divergences
