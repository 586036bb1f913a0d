"""Victim paths under cache pressure: both engines, every model, HCC's memory.

The paper-sized caches hold a small-scale workload whole, so the victim
paths only run at full scale.  Here caches of a few lines force them:

* MESI's inclusion recalls, ``_evict_l2_victim`` (both machines) and
  ``_evict_l3_victim`` (the inter-block chip's L3);
* the incoherent protocols' dirty-L2 spill, ``_spill_l2_victim``, to
  memory (intra) and to L3 (inter);
* rc's region write-back to L3, ``wb_all_l3`` (Model-2 WB ALL_L3).

Each cell runs on the reference and the fast engine.  Both must produce
the same statistics, the same final memory, and the same number of
victim-path calls, and that memory must equal the HCC run's.
"""

from __future__ import annotations

import collections
import dataclasses
import functools

import pytest

from repro.coherence.incoherent import IncoherentProtocol
from repro.coherence.mesi import MESIProtocol
from repro.common.params import inter_block_machine, intra_block_machine
from repro.core.config import (
    INTER_CONFIGS,
    INTER_HCC,
    INTRA_CONFIGS,
    INTRA_HCC,
)
from repro.eval.runner import run_subject
from repro.models.rc import RegionalConsistencyProtocol

PATHS = {
    "l2_recall": (MESIProtocol, "_evict_l2_victim"),
    "l3_recall": (MESIProtocol, "_evict_l3_victim"),
    "l2_spill": (IncoherentProtocol, "_spill_l2_victim"),
    "rc_wb_all_l3": (RegionalConsistencyProtocol, "wb_all_l3"),
}


def _tiny(params, *, l3: bool = False):
    """*params* with 2-way caches of a few lines at every level."""
    def shrink(cache, size):
        return dataclasses.replace(cache, size_bytes=size, assoc=2)

    levels = {"l1": shrink(params.l1, 256), "l2_bank": shrink(params.l2_bank, 512)}
    if l3:
        levels["l3_bank"] = shrink(params.l3_bank, 512)
    return dataclasses.replace(params, **levels)


#: (sweep kind, app, options) per machine: lu_cont overflows the tiny
#: intra block; jacobi's grid overflows the tiny 2 x 2 chip down to L3.
SUBJECT = {
    "intra": ("lu_cont", {
        "scale": 0.5, "num_threads": 4,
        "machine_params": _tiny(intra_block_machine(4)),
    }),
    "inter": ("jacobi", {
        "scale": 0.25, "machine_params": _tiny(inter_block_machine(2, 2), l3=True),
    }),
}


def _cells():
    for kind, configs in (("intra", INTRA_CONFIGS), ("inter", INTER_CONFIGS)):
        for config in configs:
            if config.hardware_coherent:
                yield kind, config, None
            else:
                for model in ("base", "rc", "sisd"):
                    yield kind, config, model


def _expected_paths(kind, config, model) -> set[str]:
    if config.hardware_coherent:
        return {"l2_recall", "l3_recall"} if kind == "inter" else {"l2_recall"}
    paths = {"l2_spill"}
    if kind == "inter" and model == "rc" and config.name == "Base":
        paths.add("rc_wb_all_l3")
    return paths


def _run(kind, config, model, engine):
    app, options = SUBJECT[kind]
    return run_subject(
        kind, app, config, memory_digest=True, engine=engine, model=model,
        **options,
    )


@functools.lru_cache(maxsize=None)
def _hcc_digest(kind: str) -> str:
    hcc = INTRA_HCC if kind == "intra" else INTER_HCC
    return _run(kind, hcc, None, "ref").memory_digest


@pytest.fixture
def calls(monkeypatch):
    """Count the calls each victim path takes."""
    counts: collections.Counter = collections.Counter()
    for label, (cls, name) in PATHS.items():
        original = getattr(cls, name)

        def spy(*args, _label=label, _original=original, **kwargs):
            counts[_label] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    return counts


@pytest.mark.parametrize(
    "kind, config, model", list(_cells()),
    ids=lambda v: getattr(v, "name", v),
)
def test_victim_paths_agree_across_engines(kind, config, model, calls):
    hcc_digest = _hcc_digest(kind)
    calls.clear()
    ref = _run(kind, config, model, "ref")
    ref_calls = dict(calls)
    calls.clear()
    fast = _run(kind, config, model, "fast")
    assert fast.cpu_loop == "fused"
    assert ref.stats == fast.stats
    assert ref.memory_digest == fast.memory_digest == hcc_digest
    assert dict(calls) == ref_calls
    for path in _expected_paths(kind, config, model):
        assert ref_calls.get(path, 0) > 0, f"{path} not reached"
