"""One way to stage a cell: per-kind layouts, ``stage`` and ``run_subject``.

Every sweep kind states its default machine, spawn and verifier once in
``repro.eval.runner``; the runner, the result-cache key, lint and the CLI
all read them from there.  These tests pin the cache keys the layouts
produce (so moving the defaults changed no key), and check that a Model-2
program is built for the machine it runs on.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.core.config import INTER_ADDR_L, INTRA_BMI, INTRA_HCC
from repro.eval.cache import cell_key
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.eval.runner import run_subject, stage
from repro.faults.chaos import tiny_pressure_machine
from repro.faults.model import FaultKind, FaultPlan, FaultSpec
from repro.serve.jobs import compile_job, run_job
from repro.workloads.gen import ScenarioSpec

SPEC = ScenarioSpec(
    pattern="migratory", seed=7, threads=4, footprint_lines=4, rounds=2,
    skew=1.2,
)
PLAN = FaultPlan(
    "pin", seed=3,
    specs=(FaultSpec(FaultKind.MEM_WB_DELAY, rate=0.1, magnitude=4),),
)

#: One cell per kind plus a faulted one, with the keys they hashed to
#: before the per-kind defaults moved into the layouts.
PINNED = {
    "intra": (
        SweepCell.make(
            "intra", "fft", INTRA_BMI, scale=0.25, num_threads=16,
            model="base",
        ),
        "8f52c032da0c01130b413176c491bb53a6a267c96b62de49858fa5ab73bb6dfa",
    ),
    "inter": (
        SweepCell.make(
            "inter", "ep_hier", INTER_ADDR_L, scale=0.5, num_blocks=2,
            cores_per_block=4, engine="fast", model="rc",
        ),
        "68f4dced5c825dc8e6379a2968133738a3a1b53a3b685c0c858e2cda771842c7",
    ),
    "litmus": (
        SweepCell.make(
            "litmus", "mp_flag", INTRA_BMI, memory_digest=True, model="sisd",
        ),
        "04a9a200ae7ebb900b2e0f96cee1deb821c65b49b5b037e0f9c400f87777d265",
    ),
    "gen": (
        SweepCell.make(
            "gen", SPEC.name, INTRA_HCC, spec=SPEC, memory_digest=True,
        ),
        "1341fe262e0d3431c7dc7e0f27d779e3a3926c688d0150b13d43f1668e2e9619",
    ),
    "faults": (
        SweepCell.make(
            "intra", "lu_cont", INTRA_BMI, num_threads=4,
            machine_params=tiny_pressure_machine(), scale=0.5, faults=PLAN,
            memory_digest=True, model="base",
        ),
        "391d7eb2151747b4f88beee30a20a0dc7855eba324fd849c51f164d1fae62f4c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cell_key_is_pinned(name):
    cell, key = PINNED[name]
    assert cell_key(cell) == key


def test_unknown_kind_and_names_are_config_errors():
    with pytest.raises(ConfigError, match="unknown sweep kind"):
        stage("sideways", "fft", INTRA_BMI)
    with pytest.raises(ConfigError, match="unknown Model-1 workload"):
        stage("intra", "nope", INTRA_BMI)
    with pytest.raises(ConfigError, match="unknown Model-2 workload"):
        stage("inter", "nope", INTER_ADDR_L)
    with pytest.raises(ConfigError, match="unknown litmus kernel"):
        stage("litmus", "nope", INTRA_BMI)


def test_options_of_another_kind_are_rejected():
    with pytest.raises(TypeError, match="num_blocks"):
        stage("intra", "fft", INTRA_BMI, num_blocks=2)


def test_stage_builds_the_kind_default_machine():
    staged = stage("intra", "fft", INTRA_BMI, scale=0.25)
    assert staged.machine.num_threads == 16
    staged = stage("inter", "jacobi", INTER_ADDR_L, scale=0.25)
    assert staged.machine.params.num_blocks == 4
    assert staged.machine.num_threads == 32


def test_staged_run_applies_the_verifier_unless_told_not_to():
    calls = []
    for verify in (True, False):
        staged = stage("litmus", "mp_flag", INTRA_BMI)
        staged.check = lambda machine, handle, v=verify: calls.append(v)
        staged.run(verify)
    assert calls == [True]


def test_model_two_is_built_for_the_machine_it_runs_on():
    """ep_hier's block partials are sized by the machine's block count."""
    result = run_subject(
        "inter", "ep_hier", INTER_ADDR_L, scale=0.25, num_blocks=1,
        cores_per_block=8,
    )
    assert result.exec_time > 0


def test_two_block_ep_hier_sweep_job_verifies():
    """The served sweep of ep_hier on a 2-block machine runs and verifies."""
    job = compile_job({"kind": "sweep", "spec": {
        "apps": ["ep_hier"], "configs": ["Addr+L"], "num_blocks": 2,
        "cores_per_block": 4, "scale": 0.25,
    }})
    doc = run_job(job, SweepExecutor(jobs=1))
    cell = doc["matrix"]["ep_hier"]["Addr+L"]
    assert cell["stats"]["exec_time"] > 0
