"""The memory-model litmus matrix (``repro litmus --matrix``).

One batch of sweep cells runs every selected litmus kernel under every
registered memory model and every simulator engine, digests final main
memory per cell, and compares each digest against the hardware-coherent
(MESI) oracle run of the same kernel.  The verdict grid is the repo's
*model conformance* artifact: registered software models must be
bit-identical to HCC on every determinate kernel, and the deliberately
broken kernels document exactly which models each bug defeats.

Verdicts compare **final main memory** (the :func:`repro.mem.memory.image_digest`
fingerprint after the end-of-run verification flush), not observed load
values.  That is why three of the four broken kernels converge under every
model: their stale reads corrupt observations, but the closing flush still
pushes each thread's last write down, so the final image matches.  The one
broken kernel whose bug reaches main memory —
``lock_handoff_three_threads_broken``, a lost-update race — diverges under
``base`` and ``rc`` but *matches* under ``sisd``: the first remote touch of
a still-private dirty line triggers SISD's ownership-transition recovery,
which pushes the owner's copy down before the other thread reads it.
:data:`EXPECTED_DIVERGENCES` encodes these empirical facts; any cell whose
verdict disagrees with the table is *unexpected* and fails the matrix.

Every cell flows through one :class:`~repro.eval.parallel.SweepExecutor`
batch, so the matrix inherits process-pool fan-out and
the persistent result cache (which keys on the model id — see
``repro.eval.cache``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ConfigError
from repro.core.config import INTER_ADDR_L, INTER_HCC, INTRA_BMI, INTRA_HCC

#: Grid schema version for the ``--json`` artifact.
MATRIX_SCHEMA = 1

#: (model, kernel) pairs whose final-memory digest is *expected* to diverge
#: from the HCC oracle.  Everything else — determinate kernels under every
#: model, and broken kernels whose damage stays in observed values — is
#: expected to match.  See the module docstring for why the set is so small.
EXPECTED_DIVERGENCES: frozenset[tuple[str, str]] = frozenset(
    {
        ("base", "lock_handoff_three_threads_broken"),
        ("rc", "lock_handoff_three_threads_broken"),
    }
)


@dataclass(frozen=True)
class MatrixCell:
    """One (model × kernel × engine) point of the verdict grid."""

    model: str
    kernel: str
    engine: str
    verdict: str  # "match" | "diverge"
    expected: str  # "match" | "diverge"
    exec_time: int
    digest: str

    @property
    def unexpected(self) -> bool:
        """True when the verdict disagrees with the expectation table."""
        return self.verdict != self.expected

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "expected": self.expected,
            "unexpected": self.unexpected,
            "exec_time": self.exec_time,
            "digest": self.digest,
        }


def matrix_axes(
    models: Sequence[str] | None,
    kernels: Sequence[str] | None,
    engines: Sequence[str] | None,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Validate the grid axes; empty axes default to every registered name.

    Models and engines default to their registries (registration order),
    kernels to the whole litmus registry.  Unknown names and duplicate
    models raise :class:`~repro.common.errors.ConfigError`.
    """
    from repro.engines import available_engines, resolve_engine
    from repro.models import available_models, resolve_model
    from repro.workloads.litmus import LITMUS

    models = tuple(models) if models else available_models()
    for m in models:
        resolve_model(m)  # raises ConfigError on unknown names
    if len(set(models)) != len(models):
        raise ConfigError("duplicate model in matrix axis")
    kernels = tuple(kernels) if kernels else tuple(LITMUS)
    for k in kernels:
        if k not in LITMUS:
            raise ConfigError(f"unknown litmus kernel {k!r}")
    engines = tuple(engines) if engines else available_engines()
    for e in engines:
        resolve_engine(e)
    return models, kernels, engines


def matrix_cells(
    models: Sequence[str],
    kernels: Sequence[str],
    engines: Sequence[str],
):
    """Lower the grid to one deduplicated batch of sweep cells.

    Returns ``(cells, oracle_idx, grid_idx)`` where ``oracle_idx[kernel]``
    and ``grid_idx[(model, kernel, engine)]`` index into ``cells``.  The
    oracle — each kernel under its hardware-coherent configuration on the
    reference engine — rides in the *same* batch (deduplicated against the
    grid's own ``hcc``/``ref`` cells when present), so a cached or pooled
    run prices the whole matrix identically.  The serve layer feeds these
    cells to its own worker pool, the CLI to one
    :class:`~repro.eval.parallel.SweepExecutor` batch, and both fold the
    results via :func:`assemble_matrix`.
    """
    from repro.eval.parallel import SweepCell
    from repro.workloads.litmus import LITMUS

    cells: list = []
    index_of: dict = {}

    def add(cell) -> int:
        if cell not in index_of:
            index_of[cell] = len(cells)
            cells.append(cell)
        return index_of[cell]

    def make(kernel: str, model: str, engine: str):
        inter = LITMUS[kernel].model == "inter"
        if model == "hcc":
            config = INTER_HCC if inter else INTRA_HCC
        else:
            config = INTER_ADDR_L if inter else INTRA_BMI
        return SweepCell.make(
            "litmus",
            kernel,
            config,
            verify=False,
            memory_digest=True,
            model=model,
            engine=engine,
        )

    oracle_idx = {k: add(make(k, "hcc", "ref")) for k in kernels}
    grid_idx = {
        (m, k, e): add(make(k, m, e))
        for m in models
        for k in kernels
        for e in engines
    }
    return cells, oracle_idx, grid_idx


def assemble_matrix(
    models: Sequence[str],
    kernels: Sequence[str],
    engines: Sequence[str],
    oracle_idx: dict,
    grid_idx: dict,
    results: list,
) -> dict:
    """Fold the batch results of :func:`matrix_cells` into the grid document.

    JSON-safe: ``grid[model][kernel][engine]`` holds one
    :meth:`MatrixCell.to_dict`, plus the per-kernel ``oracle`` digests, the
    ``unexpected`` cells, per-model ``model_exec_medians`` (cycles) and the
    overall ``ok`` verdict.
    """
    oracle = {k: results[i].memory_digest for k, i in oracle_idx.items()}
    grid: dict[str, dict[str, dict[str, dict]]] = {}
    unexpected: list[dict] = []
    times: dict[str, list[int]] = {m: [] for m in models}
    for (m, k, e), i in grid_idx.items():
        r = results[i]
        cell = MatrixCell(
            model=m,
            kernel=k,
            engine=e,
            verdict="match" if r.memory_digest == oracle[k] else "diverge",
            expected="diverge" if (m, k) in EXPECTED_DIVERGENCES else "match",
            exec_time=r.exec_time,
            digest=r.memory_digest,
        )
        grid.setdefault(m, {}).setdefault(k, {})[e] = cell.to_dict()
        times[m].append(r.exec_time)
        if cell.unexpected:
            unexpected.append({
                "model": m,
                "kernel": k,
                "engine": e,
                "verdict": cell.verdict,
                "expected": cell.expected,
            })
    return {
        "schema": MATRIX_SCHEMA,
        "models": list(models),
        "kernels": list(kernels),
        "engines": list(engines),
        "grid": grid,
        "oracle": oracle,
        "unexpected": unexpected,
        "model_exec_medians": {
            m: int(statistics.median(t)) for m, t in times.items() if t
        },
        "ok": not unexpected,
    }


def render_matrix(doc: dict, sweep: str = "") -> str:
    """Text grid over an :func:`assemble_matrix` document.

    One row per kernel, one column per model; each cell shows one glyph
    per engine (axis order): ``=`` digest matches the HCC oracle, ``x``
    expected divergence, ``!`` unexpected verdict.  *sweep*, when given,
    is appended as the closing line (the executor's run summary).
    """
    def glyph(cell: dict) -> str:
        if cell["unexpected"]:
            return "!"
        return "=" if cell["verdict"] == "match" else "x"

    models, kernels, engines = doc["models"], doc["kernels"], doc["engines"]
    name_w = max(len("kernel"), max((len(k) for k in kernels), default=0))
    col_w = max(len(engines) + 1, max((len(m) for m in models), default=0) + 1)
    lines = [
        "memory-model litmus matrix "
        f"({len(models)} model(s) x {len(kernels)} kernel(s) "
        f"x {len(engines)} engine(s); "
        f"glyph per engine {'/'.join(engines)}: "
        "'=' match, 'x' expected divergence, '!' unexpected)",
        "kernel".ljust(name_w) + "".join(m.rjust(col_w) for m in models),
    ]
    for k in kernels:
        row = k.ljust(name_w)
        for m in models:
            row += "".join(
                glyph(doc["grid"][m][k][e]) for e in engines
            ).rjust(col_w)
        lines.append(row)
    medians = doc["model_exec_medians"]
    lines.append(
        "median exec (cycles): "
        + ", ".join(f"{m}={medians[m]}" for m in models if m in medians)
    )
    bad = doc["unexpected"]
    if bad:
        lines.append(f"UNEXPECTED verdicts: {len(bad)}")
        for c in bad:
            lines.append(
                f"  {c['model']} x {c['kernel']} x {c['engine']}: "
                f"{c['verdict']} (expected {c['expected']})"
            )
    else:
        lines.append("all verdicts as expected")
    if sweep:
        lines.append(sweep)
    return "\n".join(lines)


def matrix_bench_payload(
    doc: dict, seconds: list[float], *, warmup: int = 0
) -> dict:
    """``BENCH_matrix.json`` payload: wall clock + per-model exec medians."""
    from repro.eval.bench import record

    return record(
        "matrix",
        seconds,
        warmup=warmup,
        extra={
            "models": doc["models"],
            "kernels": len(doc["kernels"]),
            "engines": doc["engines"],
            "cells": len(doc["models"]) * len(doc["kernels"])
            * len(doc["engines"]),
            "model_exec_medians": doc["model_exec_medians"],
            "ok": doc["ok"],
        },
    )
