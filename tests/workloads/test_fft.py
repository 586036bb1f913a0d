"""FFT's op stream: pinned per (model, config), one loop op per stage.

FFT is barrier-only (Figure 4a), so its per-thread program is a fixed
sequence of epochs: the bit-reversal permutation, then one epoch per
butterfly stage.  These tests pin what that program issues and what it
computes, independently of how the program spells it.
"""

import hashlib
import json

import pytest

from repro import Machine, intra_block_machine
from repro.core.config import INTRA_BASE, INTRA_CONFIGS
from repro.eval.parallel import SweepCell
from repro.isa import ops as isa
from repro.obs.replay import run_traced
from repro.workloads.splash.fft import FFT, _tables

#: sha256 of ``{"events": trace events, "stats": MachineStats.to_dict()}``
#: (json, sorted keys) for fft on 16 threads at scale 0.7 (256 points,
#: 8 stages), reference engine.  Recorded while each butterfly was still a
#: ``ReadBatch``/``WriteBatch``/``Compute`` triple; they pin that issuing
#: each stage as one ``MapBatch`` moved no access, its order or its cycle.
#: The four incoherent configs share a digest per model: fft has no
#: critical section, so its barriers never engage the MEB or the IEB.
FFT_STREAM_DIGESTS = {
    ("base", "HCC"): "f5d0a51a3d19efb16b97627395f2a6bc28e93f0744168b665ab8b45e3f13db99",
    ("base", "Base"): "f7440dc9d4e7c5a04aaff5597d855a45496d66ffebd3c57ddcec60e49b1c237f",
    ("base", "B+M"): "f7440dc9d4e7c5a04aaff5597d855a45496d66ffebd3c57ddcec60e49b1c237f",
    ("base", "B+I"): "f7440dc9d4e7c5a04aaff5597d855a45496d66ffebd3c57ddcec60e49b1c237f",
    ("base", "B+M+I"): "f7440dc9d4e7c5a04aaff5597d855a45496d66ffebd3c57ddcec60e49b1c237f",
    ("rc", "HCC"): "f5d0a51a3d19efb16b97627395f2a6bc28e93f0744168b665ab8b45e3f13db99",
    ("rc", "Base"): "0d741c29c89fdabf4224c3b1e9edd8539a71c82052ef4ec0cb6ba49b2fc94af1",
    ("rc", "B+M"): "0d741c29c89fdabf4224c3b1e9edd8539a71c82052ef4ec0cb6ba49b2fc94af1",
    ("rc", "B+I"): "0d741c29c89fdabf4224c3b1e9edd8539a71c82052ef4ec0cb6ba49b2fc94af1",
    ("rc", "B+M+I"): "0d741c29c89fdabf4224c3b1e9edd8539a71c82052ef4ec0cb6ba49b2fc94af1",
    ("sisd", "HCC"): "f5d0a51a3d19efb16b97627395f2a6bc28e93f0744168b665ab8b45e3f13db99",
    ("sisd", "Base"): "e4c1da090d8aa5867798b4af36aa54bf09ac89f48f04c4b98d466518e4f8ad02",
    ("sisd", "B+M"): "e4c1da090d8aa5867798b4af36aa54bf09ac89f48f04c4b98d466518e4f8ad02",
    ("sisd", "B+I"): "e4c1da090d8aa5867798b4af36aa54bf09ac89f48f04c4b98d466518e4f8ad02",
    ("sisd", "B+M+I"): "e4c1da090d8aa5867798b4af36aa54bf09ac89f48f04c4b98d466518e4f8ad02",
}


@pytest.mark.parametrize("config", INTRA_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("model", ["base", "rc", "sisd"])
def test_fft_stream_is_pinned(model, config):
    """Every traced access (address, order, cycle) and every statistic."""
    result, tracer, _ = run_traced(SweepCell.make(
        "intra", "fft", config, num_threads=16, scale=0.7,
        engine="ref", model=model,
    ))
    doc = json.dumps(
        {"events": tracer.events, "stats": result.stats.to_dict()},
        sort_keys=True,
    ).encode()
    assert hashlib.sha256(doc).hexdigest() == FFT_STREAM_DIGESTS[(model, config.name)]


def _butterflies(values: list, bits: int) -> list:
    """The radix-2 FFT in plain Python, with fft's float operations."""
    rev, twiddle = _tables(bits)
    x = [values[r] for r in rev]
    for s in range(bits):
        half = 1 << s
        for b in range(len(x) // 2):
            a = (b // half) * (half << 1) + b % half
            va, vb = x[a], x[a + half] * twiddle[s][b % half]
            x[a], x[a + half] = va + vb, va - vb
    return x


@pytest.mark.parametrize("engine", ["ref", "fast"])
def test_fft_values_are_bitwise_the_plain_butterflies(engine):
    """The simulated result equals the plain computation bit for bit."""
    machine = Machine(intra_block_machine(4), INTRA_BASE, num_threads=4,
                      engine=engine)
    fft = FFT(scale=0.6)
    fft.run_on(machine)
    assert machine.read_array(fft.work) == _butterflies(fft.input, fft.bits)


def test_each_fft_stage_is_one_map_batch(monkeypatch):
    """Per thread, the permutation and each butterfly stage are exactly one
    ``MapBatch`` between barriers, with no per-butterfly access or compute
    op."""
    threads = []
    program = FFT._program

    def recording(self, ctx):
        kinds = []
        threads.append(kinds)
        gen = program(self, ctx)
        send = None
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                return
            kinds.append(type(op))
            send = yield op

    monkeypatch.setattr(FFT, "_program", recording)
    machine = Machine(intra_block_machine(4), INTRA_BASE, num_threads=4)
    fft = FFT(scale=0.6)
    fft.run_on(machine)
    assert len(threads) == 4
    per_butterfly = (isa.Read, isa.Write, isa.ReadBatch, isa.WriteBatch,
                     isa.Compute)
    for kinds in threads:
        epochs = [[]]
        for kind in kinds:
            if kind is isa.Barrier:
                epochs.append([])
            else:
                epochs[-1].append(kind)
        # The permutation, then one epoch per stage, then the final INV.
        assert len(epochs) == fft.bits + 2
        for epoch in epochs[:-1]:
            assert epoch.count(isa.MapBatch) == 1
            assert not [k for k in epoch if k in per_butterfly]
