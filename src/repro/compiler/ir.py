"""Loop-nest IR for Model-2 programs (the mini-ROSE front end).

The paper's second programming model targets compiler-analyzable OpenMP
codes: no pointer aliasing, work-sharing ``for`` loops with static chunk
scheduling, and outermost-loop parallelism only (Section VI).  This IR
captures exactly the information that analysis consumes:

* :class:`ParallelFor` — a statically-chunked parallel loop whose body is a
  list of :class:`Assign` statements with affine (or indirect) array refs;
* :class:`SerialStmt` — a serial section (executed by thread 0) with
  explicit read/write range declarations;
* :class:`ReduceStmt` — an unordered reduction (partial per thread, serial
  combine).  Reductions have no producer→consumer ordering, so
  level-adaptive instructions cannot localize them (Section VII-C);
* :class:`Loop` — a sequential repeat wrapper providing the back edge for
  iterative codes (CG, Jacobi).

Array indices are :class:`Affine` (``coeff*i + offset``; analysis supports
``coeff == 1``), :class:`Indirect` (``index_array[i + offset]``, resolved by
the inspector at run time), or :class:`Fixed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.common.errors import CompilerError

# ---------------------------------------------------------------------------
# index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """Index ``coeff * i + offset`` of the loop variable *i*."""

    coeff: int = 1
    offset: int = 0

    def linear(self) -> tuple[int, int]:
        """``(coeff, offset)`` of the element read at iteration *i*."""
        return self.coeff, self.offset

    def image(self, lo: int, hi: int) -> tuple[int, int]:
        """Element interval [lo', hi') covering iterations [lo, hi).

        For ``coeff > 1`` the interval is the convex hull of the strided
        set — a sound over-approximation (the compiler errs toward extra
        WB/INV, never toward missing one).  Non-positive strides are outside
        the analyzable subset (Section VI applies no loop transformations).
        """
        if self.coeff < 1:
            raise CompilerError(
                f"non-positive stride {self.coeff} is outside the analyzable subset"
            )
        if hi <= lo:
            return (self.offset, self.offset)
        return self.coeff * lo + self.offset, self.coeff * (hi - 1) + self.offset + 1


@dataclass(frozen=True)
class Indirect:
    """Index ``index_array[coeff*i + offset]`` — irregular, inspector territory."""

    index_array: str
    offset: int = 0
    coeff: int = 1

    def linear(self) -> tuple[int, int]:
        """``(coeff, offset)`` of the *index_array* slot read at iteration *i*."""
        return self.coeff, self.offset


@dataclass(frozen=True)
class Fixed:
    """A compile-time-constant index (scalars live in 1-element arrays)."""

    index: int

    def linear(self) -> tuple[int, int]:
        """``(0, index)``: the same element at every iteration."""
        return 0, self.index


Index = Affine | Indirect | Fixed


@dataclass(frozen=True)
class Ref:
    """One array reference ``array[index]`` in a loop body."""

    array: str
    index: Index

    @property
    def is_indirect(self) -> bool:
        return isinstance(self.index, Indirect)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """``lhs[f(i)] = fn(i, rhs0[g0(i)], rhs1[g1(i)], ...)`` per iteration.

    ``fn`` receives the iteration index first, then one value per rhs ref.
    """

    lhs: Ref
    rhs: tuple[Ref, ...]
    fn: Callable[..., Any]

    def __post_init__(self) -> None:
        if self.lhs.is_indirect:
            raise CompilerError("indirect writes are outside the analyzable subset")


@dataclass(frozen=True)
class ParallelFor:
    """``#pragma omp parallel for schedule(static)`` over ``range(length)``."""

    name: str
    length: int
    body: tuple[Assign, ...]
    #: Extra compute cycles charged per iteration (models non-memory work).
    compute_cycles: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise CompilerError(f"loop {self.name!r} must have positive length")
        if not self.body:
            raise CompilerError(f"loop {self.name!r} has an empty body")

    def written_arrays(self) -> set[str]:
        return {a.lhs.array for a in self.body}

    def read_arrays(self) -> set[str]:
        return {r.array for a in self.body for r in a.rhs}


@dataclass(frozen=True)
class RangeRef:
    """A declared element range ``array[lo:hi]`` read/written by a serial stmt."""

    array: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise CompilerError(f"bad range {self.array}[{self.lo}:{self.hi}]")


@dataclass(frozen=True)
class SerialStmt:
    """Serial section executed by thread 0 only.

    ``fn`` receives ``{array_name: list_of_values}`` for every read range and
    returns ``{array_name: list_of_values}`` for every write range.
    """

    name: str
    reads: tuple[RangeRef, ...]
    writes: tuple[RangeRef, ...]
    fn: Callable[[dict[str, list[Any]]], dict[str, list[Any]]]
    compute_cycles: int = 0


@dataclass(frozen=True)
class ReduceStmt:
    """Unordered reduction (OpenMP ``reduction`` clause).

    Each thread computes a width-long partial from its chunk of the input
    ranges (``partial_fn(tid, nthreads, env)``), then folds it into the
    shared ``result`` array inside a critical section
    (``combine_fn(current, partial)``).  An arrival counter stored past the
    result (``result`` is allocated ``width + 1`` elements) resets the
    accumulator to ``identity`` at the start of each dynamic round, so the
    same reduction works inside iterative loops.

    Because the updates are unordered, the compiler cannot determine
    producer-consumer pairs: all instrumentation for the result is global
    (``peer=None``), which is why EP and IS see no benefit from
    level-adaptive instructions (Figure 11, Section VII-C).
    """

    name: str
    inputs: tuple[RangeRef, ...]
    result: str  # array of width + 1 elements (last is the arrival counter)
    width: int
    partial_fn: Callable[[int, int, dict[str, list[Any]]], list[Any]]
    combine_fn: Callable[[list[Any], list[Any]], list[Any]]
    identity: tuple[Any, ...] = ()
    compute_cycles: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise CompilerError(f"reduction {self.name!r} needs width >= 1")
        if self.identity and len(self.identity) != self.width:
            raise CompilerError(
                f"reduction {self.name!r}: identity length != width"
            )

    def identity_values(self) -> list[Any]:
        return list(self.identity) if self.identity else [0] * self.width


@dataclass(frozen=True)
class HierReduceStmt:
    """Hierarchical (two-level) reduction — the paper's §VII-C rewrite.

    "To exploit local communication, one could re-write the code to have
    hierarchical reductions, which reduce first inside the block and then
    globally."  Each thread folds its partial into its *block's* slot of
    ``blockpart`` inside a block-local critical section (intra-block WB/INV
    only), then — after a barrier — one leader thread per block folds the
    block slots into ``result`` globally.  The global critical section sees
    ``num_blocks`` participants instead of ``num_threads``.

    ``blockpart`` must be declared with ``num_blocks * (width + 1)``
    elements, slots padded so different blocks never share a cache line
    (the executor validates sizes at lowering time); ``result`` with
    ``width + 1`` as for :class:`ReduceStmt`.
    """

    name: str
    inputs: tuple[RangeRef, ...]
    blockpart: str  # array of num_blocks * slot_stride elements
    result: str  # array of width + 1 elements
    width: int
    partial_fn: Callable[[int, int, dict[str, list[Any]]], list[Any]]
    combine_fn: Callable[[list[Any], list[Any]], list[Any]]
    identity: tuple[Any, ...] = ()
    compute_cycles: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise CompilerError(f"reduction {self.name!r} needs width >= 1")
        if self.identity and len(self.identity) != self.width:
            raise CompilerError(
                f"reduction {self.name!r}: identity length != width"
            )

    def identity_values(self) -> list[Any]:
        return list(self.identity) if self.identity else [0] * self.width


@dataclass(frozen=True)
class Loop:
    """Sequential repetition of a statement list (iterative solvers)."""

    times: int
    body: tuple["Stmt", ...]

    def __post_init__(self) -> None:
        if self.times <= 0:
            raise CompilerError("Loop.times must be positive")
        if not self.body:
            raise CompilerError("Loop body must be non-empty")


Stmt = ParallelFor | SerialStmt | ReduceStmt | HierReduceStmt | Loop


@dataclass(frozen=True)
class IRProgram:
    """A whole Model-2 program: declarations plus a statement sequence."""

    name: str
    arrays: dict[str, int]  # array name -> element count
    stmts: tuple[Stmt, ...]

    def __post_init__(self) -> None:
        names = set(self.arrays)
        for stmt in iter_stmts(self.stmts):
            for arr in _stmt_arrays(stmt):
                if arr not in names:
                    raise CompilerError(
                        f"statement references undeclared array {arr!r}"
                    )
            for array, lo, hi in _stmt_extents(stmt):
                size = self.arrays[array]
                if lo < 0 or hi > size:
                    raise CompilerError(
                        f"statement {stmt.name!r} accesses {array}[{lo}:{hi}] "
                        f"outside its {size} elements"
                    )


def iter_stmts(stmts: Sequence[Stmt]):
    """Flatten Loop nests, yielding every non-Loop statement once."""
    for stmt in stmts:
        if isinstance(stmt, Loop):
            yield from iter_stmts(stmt.body)
        else:
            yield stmt


def execution_order(stmts: Sequence[Stmt]):
    """Yield every non-Loop statement as it executes: Loop bodies repeat."""
    for stmt in stmts:
        if isinstance(stmt, Loop):
            for _ in range(stmt.times):
                yield from execution_order(stmt.body)
        else:
            yield stmt


def _stmt_arrays(stmt: Stmt) -> set[str]:
    if isinstance(stmt, ParallelFor):
        out = stmt.written_arrays() | stmt.read_arrays()
        for a in stmt.body:
            for r in a.rhs:
                if isinstance(r.index, Indirect):
                    out.add(r.index.index_array)
        return out
    if isinstance(stmt, SerialStmt):
        return {r.array for r in stmt.reads} | {w.array for w in stmt.writes}
    if isinstance(stmt, ReduceStmt):
        return {r.array for r in stmt.inputs} | {stmt.result}
    if isinstance(stmt, HierReduceStmt):
        return {r.array for r in stmt.inputs} | {stmt.blockpart, stmt.result}
    raise CompilerError(f"unexpected statement {stmt!r}")


def _stmt_extents(stmt: Stmt):
    """``(array, lo, hi)`` for every element interval *stmt*'s refs and
    ranges name.

    Affine and fixed refs contribute their image over the whole iteration
    space (any stride sign), indirect refs the slots of their index array
    (the data positions are run-time values, checked at the access).  A
    reduction's result and block slots are sized against the machine by
    the executor.
    """
    if isinstance(stmt, ParallelFor):
        last = stmt.length - 1
        for assign in stmt.body:
            for ref in (assign.lhs, *assign.rhs):
                idx = ref.index
                array = idx.index_array if isinstance(idx, Indirect) else ref.array
                coeff, offset = idx.linear()
                ends = (offset, coeff * last + offset)
                yield array, min(ends), max(ends) + 1
    elif isinstance(stmt, SerialStmt):
        for r in (*stmt.reads, *stmt.writes):
            yield r.array, r.lo, r.hi
    else:
        for r in stmt.inputs:
            yield r.array, r.lo, r.hi
