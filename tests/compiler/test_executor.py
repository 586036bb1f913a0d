"""Tests for the Model-2 executor, interpreter agreement, and the inspector."""

import hashlib
import json

import pytest

from repro import Machine, inter_block_machine
from repro.common.errors import AddressError, CompilerError
from repro.compiler import ir
from repro.compiler.executor import ModelTwoRunner
from repro.compiler.interp import interpret
from repro.core.config import INTER_ADDR_L, INTER_BASE, INTER_CONFIGS, INTER_HCC
from repro.eval.parallel import SweepCell
from repro.noc.placement import Placement
from repro.obs.replay import run_traced


def neighbor_exchange_program(n=16, iters=2):
    """b = shift(a); a = b — classic neighbor communication."""
    fwd = ir.ParallelFor(
        "fwd",
        n - 1,
        (
            ir.Assign(
                ir.Ref("b", ir.Affine()),
                (ir.Ref("a", ir.Affine(1, 1)),),
                lambda i, v: v + 1,
            ),
        ),
    )
    bwd = ir.ParallelFor(
        "bwd",
        n - 1,
        (
            ir.Assign(
                ir.Ref("a", ir.Affine()),
                (ir.Ref("b", ir.Affine()),),
                lambda i, v: v,
            ),
        ),
    )
    return ir.IRProgram("shift", {"a": n, "b": n}, (ir.Loop(iters, (fwd, bwd)),))


def run_program(program, config, preloads=None, nthreads=4):
    machine = Machine(inter_block_machine(2, 2), config, num_threads=nthreads)
    runner = ModelTwoRunner(machine, program)
    for name, values in (preloads or {}).items():
        runner.preload(name, values)
    runner.spawn_all()
    machine.run()
    return runner


class TestExecutorMatchesInterpreter:
    @pytest.mark.parametrize("config", INTER_CONFIGS, ids=lambda c: c.name)
    def test_neighbor_exchange(self, config):
        program = neighbor_exchange_program()
        pre = {"a": list(range(16))}
        runner = run_program(program, config, pre)
        want = interpret(program, 4, pre)
        assert runner.result("a") == want["a"]
        assert runner.result("b") == want["b"]

    @pytest.mark.parametrize("config", INTER_CONFIGS, ids=lambda c: c.name)
    def test_reduction_with_counter_reset(self, config):
        reduce = ir.ReduceStmt(
            "sum",
            inputs=(ir.RangeRef("a", 0, 8),),
            result="res",
            width=1,
            partial_fn=lambda t, n, env: [sum(env["a"])],
            combine_fn=lambda c, p: [c[0] + p[0]],
            identity=(0,),
        )
        program = ir.IRProgram(
            "r", {"a": 8, "res": 2}, (ir.Loop(3, (reduce,)),)
        )
        pre = {"a": [1] * 8}
        runner = run_program(program, config, pre)
        # Each round resets to identity: the final sum is 8, not 24.
        assert runner.result("res")[0] == 8
        assert runner.result("res")[1] == 12  # 4 threads × 3 rounds

    @pytest.mark.parametrize("config", INTER_CONFIGS, ids=lambda c: c.name)
    def test_serial_section(self, config):
        serial = ir.SerialStmt(
            "prefix",
            reads=(ir.RangeRef("a", 0, 4),),
            writes=(ir.RangeRef("cum", 0, 4),),
            fn=lambda env: {
                "cum": [sum(env["a"][:k]) for k in range(4)]
            },
        )
        use = ir.ParallelFor(
            "use",
            4,
            (
                ir.Assign(
                    ir.Ref("out", ir.Affine()),
                    (ir.Ref("cum", ir.Affine()),),
                    lambda i, c: c * 10,
                ),
            ),
        )
        program = ir.IRProgram(
            "s", {"a": 4, "cum": 4, "out": 4}, (serial, use)
        )
        pre = {"a": [1, 2, 3, 4]}
        runner = run_program(program, config, pre)
        assert runner.result("out") == [0, 10, 30, 60]


class TestInspector:
    def _gather_program(self, n=8):
        producer = ir.ParallelFor(
            "mk",
            n,
            (
                ir.Assign(
                    ir.Ref("p", ir.Affine()),
                    (ir.Ref("r", ir.Affine()),),
                    lambda i, v: v * 2,
                ),
            ),
        )
        gather = ir.ParallelFor(
            "gather",
            n,
            (
                ir.Assign(
                    ir.Ref("q", ir.Affine()),
                    (ir.Ref("p", ir.Indirect("col")),),
                    lambda i, v: v,
                ),
            ),
        )
        return ir.IRProgram(
            "g", {"p": n, "q": n, "r": n, "col": n},
            (ir.Loop(2, (producer, gather)),),
        )

    @pytest.mark.parametrize("config", INTER_CONFIGS, ids=lambda c: c.name)
    def test_gather_correct_under_all_modes(self, config):
        program = self._gather_program()
        pre = {"col": [7, 0, 3, 1, 6, 2, 5, 4], "r": list(range(8))}
        runner = run_program(program, config, pre)
        want = interpret(program, 4, pre)
        assert runner.result("q") == want["q"]

    def test_inspector_runs_once_and_writes_conflicts(self):
        program = self._gather_program()
        pre = {"col": [7, 0, 3, 1, 6, 2, 5, 4], "r": list(range(8))}
        runner = run_program(program, INTER_ADDR_L, pre)
        assert runner._inspector_cache  # populated on first execution
        # conflict array records remote writers only.
        sid = next(iter(runner.plan.irregular))
        conflicts = runner.machine.read_array(
            runner._conflict_arrays[(sid, "p")]
        )
        # Element 7 (read by thread 0 via col[0]) is produced by thread 3.
        assert conflicts[7] == 3
        # Self-produced elements stay 0 (never marked).
        assert conflicts[1] == 0

    def test_level_adaptive_localizes_some_invs(self):
        program = self._gather_program()
        pre = {"col": [7, 0, 3, 1, 6, 2, 5, 4], "r": list(range(8))}
        runner = run_program(program, INTER_ADDR_L, pre)
        stats = runner.machine.stats
        # col has both same-block and cross-block conflicts: both kinds.
        assert stats.local_inv_lines > 0
        assert stats.global_inv_lines > 0


class TestRunnerValidation:
    def test_reduction_result_must_have_counter_slot(self):
        reduce = ir.ReduceStmt(
            "sum",
            inputs=(ir.RangeRef("a", 0, 4),),
            result="res",
            width=1,
            partial_fn=lambda t, n, env: [sum(env["a"])],
            combine_fn=lambda c, p: [c[0] + p[0]],
        )
        program = ir.IRProgram("r", {"a": 4, "res": 1}, (reduce,))
        machine = Machine(inter_block_machine(2, 2), INTER_HCC, num_threads=4)
        with pytest.raises(CompilerError):
            ModelTwoRunner(machine, program)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_indirect_value_out_of_range_raises(self, bad):
        """The executor rejects a bad index value as the interpreter does."""
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
        program = ir.IRProgram("p", {"out": 4, "data": 4, "idx": 4}, (gather,))
        with pytest.raises(AddressError, match=rf"data\[{bad}\] out of range"):
            run_program(program, INTER_HCC, {"idx": [0, 1, bad, 2]})

    def test_preload_length_checked(self):
        program = neighbor_exchange_program()
        machine = Machine(inter_block_machine(2, 2), INTER_HCC, num_threads=4)
        runner = ModelTwoRunner(machine, program)
        with pytest.raises(CompilerError):
            runner.preload("a", [1, 2])


class TestPlacementIndependence:
    def test_same_results_under_permuted_placement(self):
        """Level-adaptive programs run correctly under any thread placement."""
        program = neighbor_exchange_program()
        pre = {"a": list(range(16))}
        want = interpret(program, 4, pre)
        params = inter_block_machine(2, 2)
        for cores in [(0, 1, 2, 3), (3, 2, 1, 0), (0, 2, 1, 3)]:
            machine = Machine(
                params,
                INTER_ADDR_L,
                placement=Placement(params, cores),
            )
            runner = ModelTwoRunner(machine, program)
            runner.preload("a", pre["a"])
            runner.spawn_all()
            machine.run()
            assert runner.result("a") == want["a"], cores


#: sha256 of each NAS cell's trace events (json, sorted keys, see
#: ``_canonical``) on a 4x2 machine at scale 0.25, base model, reference
#: engine.  The digests were recorded while the executor still issued one
#: scalar ``Read``/``Write`` per access; they pin that batching the reads
#: and writes changed no access, its order, its value or its cycle.
ACCESS_STREAM_DIGESTS = {
    ("cg", "HCC"): "3a9958f4b919aeb1b97b7b149997995b585cd24e25ab1a74f035327edf42eb0e",
    ("cg", "Base"): "9b95c03bda601c809c7a5c207e93be1c95bd183efed63e0b0f785d4d43abb813",
    ("cg", "Addr"): "6d7bc1ffe6fa502fb674c25fd8379a76f6806a5e75c96cf6d98ef7d44ddf336c",
    ("cg", "Addr+L"): "75f47b9d35b8dfda5028fb77e374487ae6416a6e76b96fad5875f53a40ee2497",
    ("ep", "HCC"): "b57ae193413c5da0bb1fff41cf96b3976b854b66d0d56ec5a144a80fb34f71f4",
    ("ep", "Base"): "273e38c03f9049805406398e93eefc8d92faefbeb7f658ff1719d2986f898d15",
    ("ep", "Addr"): "fbb332ab61b00baefc7a69c1a5a8cdfd1b5965f90cfb9c52e8e179112e938948",
    ("ep", "Addr+L"): "fbb332ab61b00baefc7a69c1a5a8cdfd1b5965f90cfb9c52e8e179112e938948",
    ("ep_hier", "HCC"): "29bcb0132601a313d854a1d25729ee8bb1d147c0f63ea1b773344b709fb87f5a",
    ("ep_hier", "Base"): "4314c78ca28ef9a0b75954bba6921e121fe7db2bc3998a7bd145abd27cead428",
    ("ep_hier", "Addr"): "6c9a79b5ddea680bfff8c164646976999d8391f00e0a0926081b916c6d52aa79",
    ("ep_hier", "Addr+L"): "33e565eaab8c6834b8cfdcb57f99eaefb9c1945b6ba3995ff41fc0891909d90c",
    ("is", "HCC"): "a0d83ad8513b67780e2f9864cb4841948b111cc43725149b86700063016c5a85",
    ("is", "Base"): "0fef8a7e0512734bcb1059354d23294f5561a3ef39fd9d2d43d62edbd3d8d9a9",
    ("is", "Addr"): "bd593173e104c05f7fcc81d084ba683353deb1e742552da1a9ea8772c573d3a4",
    ("is", "Addr+L"): "3af6378b02d578398c7cabf68e0de93e24379d39c5d014f68d7bccfd8b8732d9",
    ("jacobi", "HCC"): "2c0e185f0cd38c8c2389f14d689b597cfa84887448e89a10ae8e83fbb9ecf341",
    ("jacobi", "Base"): "fbbb33d5a0c9c6453621fecb54e8249fef36af070d03166261e8906c5bcbbbcd",
    ("jacobi", "Addr"): "4eb1e3bbf75d773b39fcb20183f69dc52ec9061c35076676ded87efb402197da",
    ("jacobi", "Addr+L"): "6e0808dea31ba1757c75211e010e3f886eebb7662a133c0254cf5742539797b0",
}


def _canonical(event: dict) -> dict:
    """A float store value rounded to 6 significant digits.

    Its last bits depend on the host's float sums (``sum`` is compensated
    from Python 3.12 on), not on the access stream.
    """
    if type(event.get("val")) is float:
        return {**event, "val": f"{event['val']:.6g}"}
    return event


@pytest.mark.parametrize("config", INTER_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("app", ["cg", "ep", "ep_hier", "is", "jacobi"])
def test_access_stream_is_pinned(app, config):
    """Every traced access (address, order, value, cycle) is unchanged."""
    _, tracer, _ = run_traced(SweepCell.make(
        "inter", app, config, num_blocks=4, cores_per_block=2, scale=0.25,
        engine="ref", model="base",
    ))
    events = json.dumps(
        [_canonical(ev) for ev in tracer.events], sort_keys=True
    ).encode()
    digest = hashlib.sha256(events).hexdigest()
    assert digest == ACCESS_STREAM_DIGESTS[(app, config.name)]


@pytest.mark.parametrize("app", ["jacobi", "is"])
def test_each_parallel_for_chunk_is_one_map_batch(app, monkeypatch):
    """A thread issues each ``ParallelFor`` chunk as exactly one
    ``MapBatch`` and no per-iteration access or compute op, for an
    affine body (jacobi) and an ``Indirect`` one (is)."""
    from repro.isa import ops as isa
    from repro.workloads import MODEL_TWO

    chunks = []
    parallel_for = ModelTwoRunner._parallel_for

    def recording(self, ctx, stmt):
        kinds = []
        chunks.append(kinds)
        gen = parallel_for(self, ctx, stmt)
        send = None
        while True:
            try:
                op = gen.send(send)
            except StopIteration:
                return
            kinds.append(type(op))
            send = yield op

    monkeypatch.setattr(ModelTwoRunner, "_parallel_for", recording)
    machine = Machine(inter_block_machine(2, 2), INTER_BASE, num_threads=4)
    workload = MODEL_TWO[app](scale=0.25)
    runner = workload.prepare(machine)
    machine.run()
    workload.verify(runner)
    loops = sum(isinstance(s, ir.ParallelFor)
                for s in ir.execution_order(runner.program.stmts))
    assert len(chunks) == 4 * loops
    per_iteration = (isa.Read, isa.Write, isa.ReadBatch, isa.WriteBatch,
                     isa.Compute)
    for kinds in chunks:
        assert kinds.count(isa.MapBatch) == 1
        assert not [k for k in kinds if k in per_iteration]
