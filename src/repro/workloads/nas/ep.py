"""NAS EP (Embarrassingly Parallel) kernel.

Generates Gaussian deviate pairs by the Marsaglia polar method from a
preloaded table of uniforms, tallies them into ten concentric square annuli,
and accumulates the deviate sums ``(sx, sy)``.  All cross-thread
communication is one unordered reduction — the canonical case where the
compiler cannot determine producer-consumer pairs, so level-adaptive WB/INV
cannot help (Figure 11: EP's global-op count is unchanged by Addr+L).
"""

from __future__ import annotations

import math
from typing import Any

from repro.common.rng import make_rng
from repro.compiler import ir
from repro.workloads.base import ModelTwoWorkload, register_model_two

#: Annulus bins (NAS EP tallies |max(x,y)| into 10 unit rings).
NUM_BINS = 10
#: Reduction width: 10 bin counts + sx + sy.
WIDTH = NUM_BINS + 2


def _tally(tid: int, n: int, env: dict[str, list[Any]]) -> list[Any]:
    """Marsaglia polar method over this thread's chunk of uniforms."""
    u = env["u"]
    counts = [0] * NUM_BINS
    sx = sy = 0.0
    for k in range(0, len(u) - 1, 2):
        x = 2.0 * u[k] - 1.0
        y = 2.0 * u[k + 1] - 1.0
        t = x * x + y * y
        if 0.0 < t <= 1.0:
            f = math.sqrt(-2.0 * math.log(t) / t)
            gx = x * f
            gy = y * f
            ring = int(max(abs(gx), abs(gy)))
            if ring < NUM_BINS:
                counts[ring] += 1
            sx += gx
            sy += gy
    return [*counts, sx, sy]


def _combine(cur: list[Any], part: list[Any]) -> list[Any]:
    return [c + p for c, p in zip(cur, part)]


def build_ep(
    pairs: int = 1024, batches: int = 1, seed: int | None = None
) -> tuple[ir.IRProgram, dict[str, list[Any]]]:
    nu = 2 * pairs
    tally = ir.ReduceStmt(
        name="ep_tally",
        inputs=(ir.RangeRef("u", 0, nu),),
        result="q",
        width=WIDTH,
        partial_fn=_tally,
        combine_fn=_combine,
        identity=tuple([0] * NUM_BINS + [0.0, 0.0]),
        compute_cycles=64,
    )
    stmts: tuple[ir.Stmt, ...]
    if batches > 1:
        stmts = (ir.Loop(batches, (tally,)),)
    else:
        stmts = (tally,)
    program = ir.IRProgram(
        name="ep",
        arrays={"u": nu, "q": WIDTH + 1},
        stmts=stmts,
    )
    rng = make_rng("ep", seed if seed is not None else 0)
    return program, {"u": rng.random(nu).tolist()}


def build_ep_hier(
    pairs: int = 1024,
    batches: int = 1,
    num_blocks: int = 4,
    seed: int | None = None,
) -> tuple[ir.IRProgram, dict[str, list[Any]]]:
    """EP rewritten with a *hierarchical* reduction (paper §VII-C).

    "To exploit local communication, one could re-write the code to have
    hierarchical reductions, which reduce first inside the block and then
    globally."  Block partial slots are line-padded (16 words each).
    """
    nu = 2 * pairs
    stride = -(-(WIDTH + 1) // 16) * 16
    tally = ir.HierReduceStmt(
        name="ep_tally_hier",
        inputs=(ir.RangeRef("u", 0, nu),),
        blockpart="qblk",
        result="q",
        width=WIDTH,
        partial_fn=_tally,
        combine_fn=_combine,
        identity=tuple([0] * NUM_BINS + [0.0, 0.0]),
        compute_cycles=64,
    )
    stmts: tuple[ir.Stmt, ...]
    if batches > 1:
        stmts = (ir.Loop(batches, (tally,)),)
    else:
        stmts = (tally,)
    program = ir.IRProgram(
        name="ep_hier",
        arrays={"u": nu, "q": WIDTH + 1, "qblk": num_blocks * stride},
        stmts=stmts,
    )
    rng = make_rng("ep", seed if seed is not None else 0)
    return program, {"u": rng.random(nu).tolist()}


@register_model_two
class EP(ModelTwoWorkload):
    """NAS EP: pure reduction communication."""

    name = "ep"
    verify_arrays = ("q",)

    def build(self):
        pairs = max(64, round(1024 * self.scale))
        return build_ep(pairs=pairs, batches=2)


@register_model_two
class EPHierarchical(ModelTwoWorkload):
    """EP with the §VII-C hierarchical-reduction rewrite (ablation)."""

    name = "ep_hier"
    verify_arrays = ("q",)

    def build(self):
        pairs = max(64, round(1024 * self.scale))
        return build_ep_hier(
            pairs=pairs, batches=2, num_blocks=self.num_blocks
        )
