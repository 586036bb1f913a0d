"""Bit-identity of the two engines under injected faults.

A :class:`~repro.faults.model.FaultPlan` stretches NoC and memory
latencies, displaces MEB/IEB/ThreadMap entries and stalls the write
buffer, each drawn from the injector's seeded streams.  The fast engine's
fused loop fills plain L1 misses from the home L2 inline
(``IncoherentProtocol.fill_from_l2``), so every latency it charges and
every fault draw it makes must match the reference engine's in value and
order: the :class:`~repro.sim.stats.MachineStats`, the injector's
accounting (``RunResult.faults``) and the final memory must be equal.

Cells: SPLASH apps on the intra-block machine under every software
memory model, and NAS apps on the inter-block machine, each under a few
seeded plans.
"""

from __future__ import annotations

import pytest

from repro.core.config import inter_config, intra_config
from repro.eval.runner import run_inter, run_intra
from repro.faults.model import FaultKind, random_plans

PLANS = random_plans(3, seed=7)


def _outcome(run, *args, **kwargs):
    """Stats, fault accounting and memory digest, or the verifier failure."""
    try:
        result = run(*args, memory_digest=True, scale=0.25, **kwargs)
    except AssertionError as exc:
        return ("AssertionError", str(exc))
    d = result.stats.to_dict()
    d["faults"] = result.faults
    d["memory_digest"] = result.memory_digest
    return d


def _assert_engines_agree(run, app, cfg, **kwargs):
    for plan in PLANS:
        ref = _outcome(run, app, cfg, engine="ref", faults=plan, **kwargs)
        fast = _outcome(run, app, cfg, engine="fast", faults=plan, **kwargs)
        assert fast == ref, plan.name


def test_plans_inject_latency_faults():
    """The plans below stretch NoC latencies, which every L2 fill pays."""
    kinds = {spec.kind for plan in PLANS for spec in plan.specs}
    assert {FaultKind.NOC_JITTER, FaultKind.NOC_LINK_DOWN} <= kinds
    result = run_intra("fft", intra_config("Base"), scale=0.25,
                       engine="fast", faults=PLANS[0])
    assert result.faults["kinds"]["noc_jitter"]["fires"] > 0


@pytest.mark.parametrize("model", ["base", "rc", "sisd"])
@pytest.mark.parametrize("config", ["Base", "B+M+I"])
@pytest.mark.parametrize(
    "app", ["fft", "lu_cont", "ocean_cont", "water_nsq", "barnes"]
)
def test_intra_engines_agree_under_faults(app, config, model):
    _assert_engines_agree(run_intra, app, intra_config(config), model=model)


@pytest.mark.parametrize("config", ["Base", "Addr+L"])
@pytest.mark.parametrize("app", ["cg", "is", "jacobi"])
def test_inter_engines_agree_under_faults(app, config):
    _assert_engines_agree(run_inter, app, inter_config(config))
