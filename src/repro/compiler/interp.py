"""Reference interpreter for Model-2 IR programs.

Executes an :class:`~repro.compiler.ir.IRProgram` directly on plain Python
lists — no caches, no timing — giving the ground-truth final array contents.
Tests compare simulated runs (any configuration, any placement) against this
interpreter; agreement demonstrates that the inserted WB/INV instrumentation
is *sufficient* for correctness on the incoherent hierarchy.

Each parallel loop reads through per-assignment (coeff, offset) plans, the
same ones the executor's address plans come from (``Index.linear``).  A loop
that never reads an array it writes, with one written array per assignment,
runs each assignment as whole columns (slices in, ``map`` over the
iterations, a slice out), which is exactly its element-by-element result;
any other loop runs element by element in iteration order.  Indirect index
values are range-checked at the access, as in the executor.

Reductions fold partials in thread-ID order; floating-point reassociation in
the simulator (critical-section arrival order) can differ, so comparisons of
float results should use a tolerance.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any

from repro.compiler import ir
from repro.compiler.schedule import chunk_bounds
from repro.common.errors import AddressError, CompilerError


def interpret(
    program: ir.IRProgram,
    nthreads: int,
    initial: dict[str, list[Any]] | None = None,
    *,
    blocks: list[list[int]] | None = None,
) -> dict[str, list[Any]]:
    """Run *program* sequentially; return the final contents of every array.

    ``blocks`` lists the thread IDs of each block (needed only for
    :class:`~repro.compiler.ir.HierReduceStmt`); the default is a single
    block holding every thread.
    """
    mem: dict[str, list[Any]] = {
        name: [0] * size for name, size in program.arrays.items()
    }
    if initial:
        for name, values in initial.items():
            if name not in mem:
                raise CompilerError(f"initial data for undeclared array {name!r}")
            if len(values) != len(mem[name]):
                raise CompilerError(
                    f"initial data for {name!r} has wrong length"
                )
            mem[name] = list(values)
    if blocks is None:
        blocks = [list(range(nthreads))]
    _run_seq(program.stmts, mem, nthreads, blocks)
    return mem


def _run_seq(stmts, mem, nthreads: int, blocks) -> None:
    for stmt in ir.execution_order(stmts):
        if isinstance(stmt, ir.ParallelFor):
            _parallel_for(stmt, mem)
        elif isinstance(stmt, ir.SerialStmt):
            _serial(stmt, mem)
        elif isinstance(stmt, ir.ReduceStmt):
            _reduce(stmt, mem, nthreads)
        else:
            _hier_reduce(stmt, mem, nthreads, blocks)


def _ref_plan(ref: ir.Ref, mem) -> tuple:
    """``(array, values, coeff, offset, index)`` for one rhs ref.

    The ref reads ``values[coeff*i + offset]``, or, when ``index`` (the
    index array's contents) is not None, ``values[index[coeff*i +
    offset]]``.  ``IRProgram`` has already range-checked every position
    but the indirect data values.
    """
    idx = ref.index
    coeff, offset = idx.linear()
    index = mem[idx.index_array] if isinstance(idx, ir.Indirect) else None
    return ref.array, mem[ref.array], coeff, offset, index


def _gather(name: str, values: list, raw: Any) -> Any:
    """``values[raw]`` for an index value read at run time, checked as the
    executor's address lookup checks it."""
    pos = int(raw)
    if 0 <= pos < len(values):
        return values[pos]
    raise AddressError(f"{name}[{pos}] out of range ({len(values)},)")


def _span(coeff: int, offset: int, n: int) -> slice:
    """The positions ``coeff*i + offset`` for ``i in range(n)``, ``coeff != 0``."""
    stop = offset + coeff * n
    return slice(offset, stop if stop >= 0 else None, coeff)


def _column(values: list, coeff: int, offset: int, n: int):
    """``values[coeff*i + offset]`` for ``i in range(n)``."""
    if coeff:
        return values[_span(coeff, offset, n)]
    return repeat(values[offset], n)


def _parallel_for(stmt: ir.ParallelFor, mem) -> None:
    # Loop-carried semantics match the simulator: within one iteration the
    # body assignments run in order; iterations are independent across
    # threads (the analyzable subset has no cross-iteration dependences
    # within one epoch), so plain sequential order is faithful.
    n = stmt.length
    plans = [
        (
            assign.fn,
            mem[assign.lhs.array],
            *assign.lhs.index.linear(),
            [_ref_plan(r, mem) for r in assign.rhs],
        )
        for assign in stmt.body
    ]
    written = stmt.written_arrays()
    read = stmt.read_arrays() | {
        r.index.index_array for a in stmt.body for r in a.rhs if r.is_indirect
    }
    if len(written) == len(plans) and written.isdisjoint(read):
        # No array is both read and written, and each assignment writes its
        # own array: every read sees the loop's input, so each assignment
        # runs as whole columns, in iteration order.
        for fn, out, oc, oo, refs in plans:
            cols = [
                _column(values, c, o, n) if index is None
                else [_gather(name, values, raw)
                      for raw in _column(index, c, o, n)]
                for name, values, c, o, index in refs
            ]
            results = list(map(fn, range(n), *cols))
            if oc:
                out[_span(oc, oo, n)] = results
            else:
                out[oo] = results[-1]
        return
    for i in range(n):
        for fn, out, oc, oo, refs in plans:
            out[oc * i + oo] = fn(i, *[
                values[c * i + o] if index is None
                else _gather(name, values, index[c * i + o])
                for name, values, c, o, index in refs
            ])


def _serial(stmt: ir.SerialStmt, mem) -> None:
    env = {r.array: mem[r.array][r.lo : r.hi] for r in stmt.reads}
    out = stmt.fn(env)
    for w in stmt.writes:
        values = out[w.array]
        if len(values) != w.hi - w.lo:
            raise CompilerError(
                f"serial stmt {stmt.name!r} returned wrong-length {w.array}"
            )
        mem[w.array][w.lo : w.hi] = values


def _reduce(stmt: ir.ReduceStmt, mem, nthreads: int) -> None:
    acc = stmt.identity_values()
    for tid in range(nthreads):
        env: dict[str, list[Any]] = {}
        for r in stmt.inputs:
            lo, hi = chunk_bounds(r.hi - r.lo, nthreads, tid)
            env[r.array] = mem[r.array][r.lo + lo : r.lo + hi]
        partial = stmt.partial_fn(tid, nthreads, env)
        acc = stmt.combine_fn(acc, partial)
    mem[stmt.result][: stmt.width] = acc
    mem[stmt.result][stmt.width] = (
        int(mem[stmt.result][stmt.width]) + nthreads
    )


def _hier_reduce(stmt: ir.HierReduceStmt, mem, nthreads: int, blocks) -> None:
    """Two-level reduction: fold within each block, then across blocks.

    Block slots are line-padded; the stride matches the executor's layout
    (16 words per line).
    """
    wpl = 16
    stride = -(-(stmt.width + 1) // wpl) * wpl
    block_vals = []
    for b, tids in enumerate(blocks):
        acc = stmt.identity_values()
        for tid in tids:
            env: dict[str, list[Any]] = {}
            for r in stmt.inputs:
                lo, hi = chunk_bounds(r.hi - r.lo, nthreads, tid)
                env[r.array] = mem[r.array][r.lo + lo : r.lo + hi]
            acc = stmt.combine_fn(acc, stmt.partial_fn(tid, nthreads, env))
        slot = b * stride
        mem[stmt.blockpart][slot : slot + stmt.width] = acc
        mem[stmt.blockpart][slot + stmt.width] = (
            int(mem[stmt.blockpart][slot + stmt.width]) + len(tids)
        )
        block_vals.append(acc)
    total = stmt.identity_values()
    for vals in block_vals:
        total = stmt.combine_fn(total, vals)
    mem[stmt.result][: stmt.width] = total
    mem[stmt.result][stmt.width] = (
        int(mem[stmt.result][stmt.width]) + len(blocks)
    )
