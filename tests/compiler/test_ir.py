"""Tests for the Model-2 loop-nest IR."""

import re

import pytest

from repro.common.errors import CompilerError
from repro.compiler import ir


class TestAffine:
    def test_at_and_image(self):
        idx = ir.Affine(1, 3)
        assert idx.linear() == (1, 3)  # element coeff*i + offset
        assert idx.image(0, 10) == (3, 13)

    def test_strided_image_is_hull(self):
        idx = ir.Affine(4, 1)
        assert idx.image(2, 5) == (9, 18)  # covers {9, 13, 17}

    def test_empty_iteration_range(self):
        assert ir.Affine(1, 3).image(5, 5) == (3, 3)

    def test_non_positive_stride_rejected(self):
        with pytest.raises(CompilerError):
            ir.Affine(0, 0).image(0, 4)
        with pytest.raises(CompilerError):
            ir.Affine(-1, 0).image(0, 4)


class TestStatements:
    def test_indirect_write_rejected(self):
        with pytest.raises(CompilerError):
            ir.Assign(
                lhs=ir.Ref("a", ir.Indirect("idx")),
                rhs=(),
                fn=lambda i: 0,
            )

    def test_parallel_for_validation(self):
        body = (ir.Assign(ir.Ref("a", ir.Affine()), (), lambda i: i),)
        with pytest.raises(CompilerError):
            ir.ParallelFor("p", 0, body)
        with pytest.raises(CompilerError):
            ir.ParallelFor("p", 4, ())

    def test_parallel_for_array_sets(self):
        pf = ir.ParallelFor(
            "p",
            4,
            (
                ir.Assign(
                    ir.Ref("out", ir.Affine()),
                    (ir.Ref("a", ir.Affine()), ir.Ref("b", ir.Affine(1, 1))),
                    lambda i, a, b: a + b,
                ),
            ),
        )
        assert pf.written_arrays() == {"out"}
        assert pf.read_arrays() == {"a", "b"}

    def test_range_ref_validation(self):
        with pytest.raises(CompilerError):
            ir.RangeRef("a", 3, 3)
        with pytest.raises(CompilerError):
            ir.RangeRef("a", -1, 2)

    def test_reduce_stmt_validation(self):
        with pytest.raises(CompilerError):
            ir.ReduceStmt(
                "r", (), "res", 0, lambda t, n, e: [], lambda c, p: c
            )
        with pytest.raises(CompilerError):
            ir.ReduceStmt(
                "r", (), "res", 2, lambda t, n, e: [], lambda c, p: c,
                identity=(0,),
            )

    def test_reduce_identity_defaults_to_zeros(self):
        r = ir.ReduceStmt(
            "r", (), "res", 3, lambda t, n, e: [], lambda c, p: c
        )
        assert r.identity_values() == [0, 0, 0]

    def test_loop_validation(self):
        body = (
            ir.ParallelFor(
                "p", 2, (ir.Assign(ir.Ref("a", ir.Affine()), (), lambda i: i),)
            ),
        )
        with pytest.raises(CompilerError):
            ir.Loop(0, body)
        with pytest.raises(CompilerError):
            ir.Loop(2, ())


class TestProgram:
    def test_undeclared_array_rejected(self):
        pf = ir.ParallelFor(
            "p", 2, (ir.Assign(ir.Ref("ghost", ir.Affine()), (), lambda i: i),)
        )
        with pytest.raises(CompilerError):
            ir.IRProgram("bad", {"a": 4}, (pf,))

    def test_indirect_index_array_must_be_declared(self):
        pf = ir.ParallelFor(
            "p",
            2,
            (
                ir.Assign(
                    ir.Ref("a", ir.Affine()),
                    (ir.Ref("a", ir.Indirect("ghost")),),
                    lambda i, v: v,
                ),
            ),
        )
        with pytest.raises(CompilerError):
            ir.IRProgram("bad", {"a": 4}, (pf,))

    @pytest.mark.parametrize(
        "ref, extent",
        [
            (ir.Ref("a", ir.Affine(1, -1)), "a[-1:3]"),
            (ir.Ref("a", ir.Affine(2, 0)), "a[0:7]"),
            (ir.Ref("a", ir.Fixed(4)), "a[4:5]"),
            (ir.Ref("b", ir.Indirect("a", offset=1)), "a[1:5]"),
        ],
        ids=["shift-below", "stride-past-end", "fixed", "index-slots"],
    )
    def test_ref_outside_its_array_rejected(self, ref, extent):
        pf = ir.ParallelFor(
            "shift", 4, (ir.Assign(ir.Ref("b", ir.Affine()), (ref,), lambda i, v: v),)
        )
        match = rf"'shift'.*{re.escape(extent)}.*4 elements"
        with pytest.raises(CompilerError, match=match):
            ir.IRProgram("bad", {"a": 4, "b": 4}, (pf,))

    def test_write_outside_its_array_rejected(self):
        pf = ir.ParallelFor(
            "w", 4, (ir.Assign(ir.Ref("b", ir.Affine(1, 1)), (), lambda i: i),)
        )
        with pytest.raises(CompilerError, match=r"'w'.*b\[1:5\]"):
            ir.IRProgram("bad", {"b": 4}, (pf,))

    def test_refs_filling_their_array_accepted(self):
        pf = ir.ParallelFor(
            "p",
            4,
            (
                ir.Assign(
                    ir.Ref("b", ir.Affine(-1, 3)),  # reversed: b[3], ..., b[0]
                    (ir.Ref("a", ir.Affine(2, 1)), ir.Ref("a", ir.Fixed(7)),
                     ir.Ref("a", ir.Indirect("b", offset=0))),
                    lambda i, x, y, z: x,
                ),
            ),
        )
        ir.IRProgram("ok", {"a": 8, "b": 4}, (pf,))

    @pytest.mark.parametrize("kind", ["serial-read", "serial-write", "reduce", "hier"])
    def test_range_ref_past_the_end_rejected(self, kind):
        past = ir.RangeRef("a", 2, 5)
        fine = ir.RangeRef("a", 0, 4)
        if kind == "serial-read":
            stmt = ir.SerialStmt("s", (past,), (fine,), lambda env: {})
        elif kind == "serial-write":
            stmt = ir.SerialStmt("s", (fine,), (past,), lambda env: {})
        elif kind == "reduce":
            stmt = ir.ReduceStmt("s", (past,), "res", 1, None, None)
        else:
            stmt = ir.HierReduceStmt("s", (past,), "bp", "res", 1, None, None)
        arrays = {"a": 4, "res": 2, "bp": 16}
        with pytest.raises(CompilerError, match=r"'s'.*a\[2:5\].*4 elements"):
            ir.IRProgram("bad", arrays, (stmt,))

    def test_iter_stmts_flattens_loops(self):
        pf = ir.ParallelFor(
            "p", 2, (ir.Assign(ir.Ref("a", ir.Affine()), (), lambda i: i),)
        )
        prog = ir.IRProgram("ok", {"a": 4}, (ir.Loop(3, (pf,)),))
        assert [s.name for s in ir.iter_stmts(prog.stmts)] == ["p"]


def test_execution_order_repeats_loop_bodies():
    def pf(name):
        return ir.ParallelFor(
            name, 2, (ir.Assign(ir.Ref("a", ir.Affine()), (), lambda i: i),)
        )

    stmts = (pf("first"), ir.Loop(2, (pf("x"), ir.Loop(2, (pf("y"),)))))
    assert [s.name for s in ir.execution_order(stmts)] == [
        "first", "x", "y", "y", "x", "y", "y",
    ]
