"""Bit-identity of the fast engine against the reference engine.

The packed fast-path core is an *optimization*, not a model: for every
program, every configuration, and every machine family it must produce the
exact :class:`~repro.sim.stats.MachineStats` and the exact final-memory
image of the reference core.  This module enforces that contract on

* every litmus kernel (including the deliberately broken ones — a stale
  read is deterministic in simulation, so even divergent programs must
  diverge *identically* on both engines) under every Table II
  configuration of its machine family, and
* a sample of the real SPLASH-2/NAS workloads at reduced scale, under
  the base model and under the rc and sisd models (whose fast-engine
  hits run through the protocol's fused hooks).

The CI ``fastcore-equivalence`` job runs this file on every push; the full
workload matrix is covered by the figure-golden tests run under
``REPRO_ENGINE=fast``.
"""

from __future__ import annotations

import pytest

from repro.core.config import (
    INTER_CONFIGS,
    INTRA_CONFIGS,
    inter_config,
    intra_config,
)
from repro.eval.runner import run_inter, run_intra, run_litmus
from repro.workloads.litmus import LITMUS


def _result_fingerprint(result):
    """Everything an engine could plausibly get wrong, as one dict."""
    d = result.stats.to_dict()
    d["memory_digest"] = result.memory_digest
    return d


_LITMUS_CELLS = [
    (name, cfg.name)
    for name, kernel in sorted(LITMUS.items())
    for cfg in (INTER_CONFIGS if kernel.model == "inter" else INTRA_CONFIGS)
]


@pytest.mark.parametrize("name,config", _LITMUS_CELLS)
def test_litmus_engine_equivalence(name, config):
    """Both engines agree bit-for-bit on every (kernel, config) cell."""
    kernel = LITMUS[name]
    cfg = (
        inter_config(config) if kernel.model == "inter"
        else intra_config(config)
    )
    # verify=False: broken kernels fail their own oracle by design; the
    # claim under test is ref == fast, not that the kernel is correct.
    ref = run_litmus(name, cfg, verify=False, memory_digest=True, engine="ref")
    fast = run_litmus(name, cfg, verify=False, memory_digest=True, engine="fast")
    assert _result_fingerprint(fast) == _result_fingerprint(ref)


_WORKLOAD_CELLS = [
    ("fft", "HCC"),
    ("fft", "B+M+I"),
    ("volrend", "Base"),
    ("volrend", "B+M+I"),
    ("water_nsq", "B+M"),
]


@pytest.mark.parametrize("app,config", _WORKLOAD_CELLS)
def test_intra_workload_engine_equivalence(app, config):
    cfg = intra_config(config)
    ref = run_intra(app, cfg, scale=0.4, memory_digest=True, engine="ref")
    fast = run_intra(app, cfg, scale=0.4, memory_digest=True, engine="fast")
    assert _result_fingerprint(fast) == _result_fingerprint(ref)


@pytest.mark.parametrize("app,config", [("cg", "Addr+L"), ("jacobi", "Base")])
def test_inter_workload_engine_equivalence(app, config):
    cfg = inter_config(config)
    ref = run_inter(app, cfg, scale=0.4, memory_digest=True, engine="ref")
    fast = run_inter(app, cfg, scale=0.4, memory_digest=True, engine="fast")
    assert _result_fingerprint(fast) == _result_fingerprint(ref)


def _outcome(run, *args, **kwargs):
    """A run's fingerprint, or its verifier failure as (type, message)."""
    try:
        return _result_fingerprint(run(*args, **kwargs))
    except AssertionError as exc:
        return (type(exc).__name__, str(exc))


_MODEL_CELLS = [
    ("intra", "fft", "B+M+I", "rc"),
    ("intra", "water_nsq", "B+M", "rc"),
    ("intra", "volrend", "Base", "sisd"),
    ("intra", "barnes", "B+I", "sisd"),
    ("inter", "cg", "Addr+L", "rc"),
    ("inter", "jacobi", "Base", "sisd"),
]


@pytest.mark.parametrize("kind,app,config,model", _MODEL_CELLS)
def test_model_workload_engine_equivalence(kind, app, config, model):
    """rc/sisd cells: both engines agree, and both pass the verifier."""
    run, cfg = (
        (run_intra, intra_config(config)) if kind == "intra"
        else (run_inter, inter_config(config))
    )
    ref = _outcome(run, app, cfg, scale=0.4, memory_digest=True,
                   engine="ref", model=model)
    fast = _outcome(run, app, cfg, scale=0.4, memory_digest=True,
                    engine="fast", model=model)
    assert isinstance(ref, dict), ref
    assert fast == ref


def test_known_sisd_failure_is_engine_identical():
    """raytrace/Base under sisd fails its verifier (a known model defect,
    see ROADMAP.md); the fused loop must fail it with the same message."""
    cfg = intra_config("Base")
    ref = _outcome(run_intra, "raytrace", cfg, engine="ref", model="sisd")
    fast = _outcome(run_intra, "raytrace", cfg, engine="fast", model="sisd")
    assert ref == ("AssertionError", "progress total 145 != 128")
    assert fast == ref


def test_engine_registry_resolution(monkeypatch):
    """Explicit name > $REPRO_ENGINE > default; unknown names are rejected."""
    from repro.common.errors import ConfigError
    from repro.engines import resolve_engine

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine().name == "ref"
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    assert resolve_engine().name == "fast"
    assert resolve_engine("ref").name == "ref"  # explicit beats env
    monkeypatch.setenv("REPRO_ENGINE", "")
    assert resolve_engine().name == "ref"  # empty means unset
    with pytest.raises(ConfigError):
        resolve_engine("turbo")
