"""Interprocedural control-flow graph and reachability (Section V-A.1).

The paper's analysis "performs interprocedural control flow analysis to
generate an interprocedural control flow graph", then, "starting from each
*for* loop, traverses the control flow graph to find reachable *for* loops".
Our IR has the call structure already inlined; what remains is statement
sequencing plus the back edges introduced by :class:`repro.compiler.ir.Loop`
(iterative solvers), which is exactly what makes producer→consumer pairs
*across outer iterations* (Jacobi's copy loop feeding next iteration's
stencil) reachable.

Reachability is *kill-aware* when asked about a specific array: a path is
cut by any intermediate statement that completely redefines the array.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.compiler import ir
from repro.common.errors import CompilerError


@dataclass(frozen=True)
class Node:
    """One flattened, uniquely-identified statement."""

    sid: int
    stmt: ir.ParallelFor | ir.SerialStmt | ir.ReduceStmt | ir.HierReduceStmt


class CFG:
    """Flattened statement graph with Loop back edges."""

    def __init__(self, program: ir.IRProgram) -> None:
        self.program = program
        self.nodes: list[Node] = []
        self.graph = nx.DiGraph()
        self._build(program.stmts)
        if not self.nodes:
            raise CompilerError(f"program {program.name!r} has no statements")

    # -- construction -----------------------------------------------------------

    def _build(self, stmts) -> None:
        first, last = self._build_seq(stmts)
        self._entry = first
        self._exit = last

    def _new_node(self, stmt) -> int:
        sid = len(self.nodes)
        node = Node(sid, stmt)
        self.nodes.append(node)
        self.graph.add_node(sid)
        return sid

    def _build_seq(self, stmts) -> tuple[int, int]:
        """Add a statement sequence; return (first sid, last sid)."""
        first = last = -1
        for stmt in stmts:
            if isinstance(stmt, ir.Loop):
                f, l = self._build_seq(stmt.body)
                self.graph.add_edge(l, f)  # back edge
            else:
                f = l = self._new_node(stmt)
            if last >= 0:
                self.graph.add_edge(last, f)
            if first < 0:
                first = f
            last = l
        if first < 0:
            raise CompilerError("empty statement sequence")
        return first, last

    # -- queries ------------------------------------------------------------------

    def node(self, sid: int) -> Node:
        return self.nodes[sid]

    def _writes_all_of(self, stmt, array: str, size: int) -> bool:
        """Does *stmt* completely redefine *array* (a kill)?"""
        if isinstance(stmt, ir.ParallelFor):
            for a in stmt.body:
                if a.lhs.array == array and isinstance(a.lhs.index, ir.Affine):
                    lo, hi = a.lhs.index.image(0, stmt.length)
                    if lo <= 0 and hi >= size:
                        return True
            return False
        if isinstance(stmt, ir.SerialStmt):
            return any(
                w.array == array and w.lo <= 0 and w.hi >= size
                for w in stmt.writes
            )
        if isinstance(stmt, (ir.ReduceStmt, ir.HierReduceStmt)):
            # A reduction round rewrites the whole result (plus its counter).
            return stmt.result == array
        return False

    def reachable_consumers(self, producer_sid: int, array: str) -> list[int]:
        """Statement IDs reachable from *producer* while *array* stays live.

        BFS over successors; a statement that completely redefines *array*
        still *receives* the dataflow query (it may read before writing) but
        does not propagate it further.  The producer itself is reachable via
        a back edge (self-communication across outer iterations).
        """
        size = self.program.arrays[array]
        seen: set[int] = set()
        frontier = list(self.graph.successors(producer_sid))
        out: list[int] = []
        while frontier:
            sid = frontier.pop()
            if sid in seen:
                continue
            seen.add(sid)
            out.append(sid)
            if not self._writes_all_of(self.nodes[sid].stmt, array, size):
                frontier.extend(self.graph.successors(sid))
        return sorted(out)
