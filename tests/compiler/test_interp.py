"""Direct tests of the reference interpreter (the verification oracle)."""

import pytest

from repro.common.errors import AddressError, CompilerError
from repro.compiler import ir
from repro.compiler.interp import interpret


def pf(name, dst, src, length, fn=lambda i, v: v, off=0):
    return ir.ParallelFor(
        name,
        length,
        (ir.Assign(ir.Ref(dst, ir.Affine()), (ir.Ref(src, ir.Affine(1, off)),), fn),),
    )


def test_parallel_for_applies_fn_with_index():
    prog = ir.IRProgram(
        "p", {"a": 4, "b": 4},
        (pf("s", "b", "a", 4, fn=lambda i, v: v + i),),
    )
    out = interpret(prog, 2, {"a": [10, 10, 10, 10]})
    assert out["b"] == [10, 11, 12, 13]


def test_loop_repeats_sequentially():
    prog = ir.IRProgram(
        "p", {"a": 4},
        (ir.Loop(3, (pf("inc", "a", "a", 4, fn=lambda i, v: v + 1),)),),
    )
    out = interpret(prog, 2)
    assert out["a"] == [3, 3, 3, 3]


def test_serial_stmt_env_roundtrip():
    serial = ir.SerialStmt(
        "sum",
        reads=(ir.RangeRef("a", 0, 4),),
        writes=(ir.RangeRef("b", 0, 1),),
        fn=lambda env: {"b": [sum(env["a"])]},
    )
    prog = ir.IRProgram("p", {"a": 4, "b": 1}, (serial,))
    out = interpret(prog, 2, {"a": [1, 2, 3, 4]})
    assert out["b"] == [10]


def test_serial_stmt_wrong_length_rejected():
    serial = ir.SerialStmt(
        "bad", reads=(), writes=(ir.RangeRef("b", 0, 2),),
        fn=lambda env: {"b": [1]},
    )
    prog = ir.IRProgram("p", {"b": 2}, (serial,))
    with pytest.raises(CompilerError):
        interpret(prog, 1)


def test_reduce_counter_and_identity():
    reduce = ir.ReduceStmt(
        "sum",
        inputs=(ir.RangeRef("a", 0, 6),),
        result="res",
        width=1,
        partial_fn=lambda t, n, env: [sum(env["a"])],
        combine_fn=lambda c, p: [c[0] + p[0]],
        identity=(100,),  # non-trivial identity must seed each round
    )
    prog = ir.IRProgram("p", {"a": 6, "res": 2}, (ir.Loop(2, (reduce,)),))
    out = interpret(prog, 3, {"a": [1] * 6})
    assert out["res"] == [106, 6]  # identity + sum; 3 threads × 2 rounds


def test_hier_reduce_matches_flat_total():
    hier = ir.HierReduceStmt(
        "hsum",
        inputs=(ir.RangeRef("a", 0, 8),),
        blockpart="bp",
        result="res",
        width=1,
        partial_fn=lambda t, n, env: [sum(env["a"])],
        combine_fn=lambda c, p: [c[0] + p[0]],
    )
    prog = ir.IRProgram("p", {"a": 8, "bp": 32, "res": 2}, (hier,))
    out = interpret(prog, 4, {"a": list(range(8))}, blocks=[[0, 1], [2, 3]])
    assert out["res"][0] == sum(range(8))
    assert out["res"][1] == 2  # one arrival per block
    # Block slots hold the per-block partials (slots are 16-word padded).
    assert out["bp"][0] == sum(range(4))
    assert out["bp"][16] == sum(range(4, 8))


def test_initial_data_validation():
    prog = ir.IRProgram("p", {"a": 4}, (pf("s", "a", "a", 4),))
    with pytest.raises(CompilerError):
        interpret(prog, 1, {"ghost": [1]})
    with pytest.raises(CompilerError):
        interpret(prog, 1, {"a": [1, 2]})


def test_indirect_read_resolution():
    gather = ir.ParallelFor(
        "g",
        4,
        (
            ir.Assign(
                ir.Ref("out", ir.Affine()),
                (ir.Ref("data", ir.Indirect("idx")),),
                lambda i, v: v,
            ),
        ),
    )
    prog = ir.IRProgram("p", {"out": 4, "data": 4, "idx": 4}, (gather,))
    out = interpret(prog, 2, {"data": [10, 20, 30, 40], "idx": [3, 2, 1, 0]})
    assert out["out"] == [40, 30, 20, 10]


def test_shifted_read_past_the_start_is_rejected_not_wrapped():
    """``b[i] = a[i-1]`` over range(4) reads a[-1]: an error, never a[3]."""
    with pytest.raises(CompilerError, match=r"'s'.*a\[-1:3\]"):
        ir.IRProgram("p", {"a": 4, "b": 4}, (pf("s", "b", "a", 4, off=-1),))


@pytest.mark.parametrize("bad", [-1, 4])
def test_indirect_value_out_of_range_rejected(bad):
    gather = ir.ParallelFor(
        "g",
        4,
        (
            ir.Assign(
                ir.Ref("out", ir.Affine()),
                (ir.Ref("data", ir.Indirect("idx")),),
                lambda i, v: v,
            ),
        ),
    )
    prog = ir.IRProgram("p", {"out": 4, "data": 4, "idx": 4}, (gather,))
    with pytest.raises(AddressError, match=rf"data\[{bad}\] out of range \(4,\)"):
        interpret(prog, 2, {"data": [10, 20, 30, 40], "idx": [0, 1, bad, 2]})


def test_reads_see_earlier_writes_of_the_same_loop():
    """A loop that reads what it writes runs element by element, in order."""
    carry = ir.ParallelFor(
        "carry",
        3,
        (
            ir.Assign(ir.Ref("a", ir.Affine(1, 1)), (ir.Ref("a", ir.Affine()),),
                      lambda i, v: v + 1),
            ir.Assign(ir.Ref("b", ir.Affine()), (ir.Ref("a", ir.Affine(1, 1)),),
                      lambda i, v: 10 * v),
        ),
    )
    prog = ir.IRProgram("p", {"a": 4, "b": 3}, (carry,))
    out = interpret(prog, 1, {"a": [5, 0, 0, 0]})
    assert out["a"] == [5, 6, 7, 8]
    assert out["b"] == [60, 70, 80]


def test_independent_columns_match_element_order():
    """Loops that never read what they write: strided, reversed, fixed and
    indirect refs land where the element-by-element order puts them."""
    body = (
        ir.Assign(ir.Ref("rev", ir.Affine(-1, 3)),
                  (ir.Ref("a", ir.Affine(2, 1)), ir.Ref("a", ir.Fixed(0))),
                  lambda i, x, y: x + y + i),
        ir.Assign(ir.Ref("last", ir.Fixed(0)),
                  (ir.Ref("a", ir.Indirect("idx", offset=0)),),
                  lambda i, v: v * 100 + i),
    )
    prog = ir.IRProgram(
        "p", {"a": 8, "idx": 4, "rev": 4, "last": 1},
        (ir.ParallelFor("cols", 4, body),),
    )
    out = interpret(prog, 2, {"a": list(range(10, 18)), "idx": [7, 6, 5, 4]})
    assert out["rev"] == [30, 27, 24, 21]  # rev[3-i] = a[2i+1] + a[0] + i
    assert out["last"] == [1403]  # the last iteration's write wins
