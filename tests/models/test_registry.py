"""The model registry: resolution rules, specs, and machine wiring."""

import pytest

from repro.coherence.hierarchy import Hierarchy
from repro.coherence.incoherent import IncoherentProtocol
from repro.coherence.mesi import MESIProtocol
from repro.common.errors import ConfigError
from repro.common.params import intra_block_machine
from repro.core.config import INTRA_BMI, INTRA_HCC
from repro.models import (
    DEFAULT_MODEL,
    available_models,
    resolve_model,
)
from repro.models.rc import RegionalConsistencyProtocol
from repro.models.sisd import SelfInvalidationProtocol
from repro.sim.stats import MachineStats


def _hierarchy():
    machine = intra_block_machine(4)
    return Hierarchy(machine, MachineStats.for_cores(machine.num_cores))


class TestRegistry:
    def test_all_four_models_registered_in_order(self):
        assert available_models() == ("base", "hcc", "rc", "sisd")

    def test_default_resolution(self):
        assert resolve_model(None).name == DEFAULT_MODEL == "base"

    def test_explicit_override(self):
        assert resolve_model("sisd").name == "sisd"

    def test_unknown_model_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown memory model"):
            resolve_model("tso")

    def test_software_flags(self):
        # Only the MESI oracle runs without WB/INV annotations.
        assert [resolve_model(m).software for m in available_models()] == [
            True, False, True, True,
        ]

    def test_factories_build_the_documented_protocols(self):
        expected = {
            "base": IncoherentProtocol,
            "hcc": MESIProtocol,
            "rc": RegionalConsistencyProtocol,
            "sisd": SelfInvalidationProtocol,
        }
        for name, cls in expected.items():
            proto = resolve_model(name).factory(_hierarchy(), INTRA_BMI)
            assert type(proto) is cls, name

    def test_base_factory_honors_config_hardware(self):
        bmi = resolve_model("base").factory(_hierarchy(), INTRA_BMI)
        assert bmi.use_meb and bmi.use_ieb
        # RC/SISD replace the MEB/IEB mechanisms outright.
        for name in ("rc", "sisd"):
            proto = resolve_model(name).factory(_hierarchy(), INTRA_BMI)
            assert not proto.use_meb and not proto.use_ieb, name


class TestMachineWiring:
    def test_run_litmus_selects_the_model(self):
        from repro.eval.runner import run_litmus

        rc = run_litmus("lock_counter", INTRA_BMI, model="rc")
        sisd = run_litmus("lock_counter", INTRA_BMI, model="sisd")
        base = run_litmus("lock_counter", INTRA_BMI)
        # Each model's degradation counters fire only under that model.
        assert rc.stats.rc_lazy_refreshes > 0
        assert rc.stats.sisd_transitions == 0
        assert sisd.stats.sisd_self_invalidations > 0
        assert sisd.stats.rc_lazy_refreshes == 0
        assert base.stats.rc_lazy_refreshes == 0
        assert base.stats.sisd_transitions == 0

    def test_hcc_config_overrides_requested_model(self):
        from repro.core.machine import Machine
        from repro.workloads.litmus import LITMUS, machine_params

        kernel = LITMUS["mp_flag"]
        machine = Machine(
            machine_params(kernel), INTRA_HCC, model="rc"
        )
        assert machine.model_spec.name == "hcc"
        assert type(machine.protocol) is MESIProtocol
