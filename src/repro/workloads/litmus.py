"""Litmus kernel registry: small multithreaded kernels with known outcomes.

Each kernel is a hand-written program in one of the paper's synchronization
idioms (message passing over a flag, store buffering across a barrier,
producer–consumer chains, lock-protected updates, Figure-6b annotated data
races, false sharing within one line).  They serve two harnesses:

* the **dynamic** differential harness
  (``tests/coherence/test_litmus_differential.py``) runs each kernel under
  every Table II configuration and compares observed loads + final memory
  bit-for-bit against hardware MESI;
* the **static** analyzer (``repro lint --litmus``) extracts each kernel's
  op streams and checks the Section IV-A annotation rules without running
  the cache simulator.

``determinate`` kernels are correctly synchronized and annotated: the
differential harness must pass and ``expect_rules`` is empty (or holds only
warnings).  Deliberately broken kernels (missing WB/INV) document the
failure modes: the differential harness must *diverge* on them and the
static analyzer must flag every rule in ``expect_rules`` — the
cross-validation tests assert the two harnesses agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from repro.common.errors import expect
from repro.common.params import (
    WORD_BYTES,
    inter_block_machine,
    intra_block_machine,
)
from repro.core.config import InterMode
from repro.isa import ops as isa

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import Machine

#: A litmus thread program: ``(ctx, arrs, obs)`` -> op generator.
LitmusProgram = Callable[..., Any]


@dataclass
class LitmusKernel:
    """One registered litmus kernel and its expected behavior.

    ``model`` selects the machine family (``"intra"`` runs on a one-block
    machine under the intra configs; ``"inter"`` on a two-block machine
    under the inter configs).  ``determinate`` means the kernel is correctly
    synchronized and annotated, so the dynamic differential harness passes;
    broken kernels must make it diverge.  ``expect_rules`` lists rule IDs
    the static analyzer must report (a subset check; empty = lint-clean).
    """

    name: str
    model: str
    threads: int
    arrays: dict[str, int]
    programs: tuple[LitmusProgram, ...]
    determinate: bool = True
    expect_rules: tuple[str, ...] = ()
    doc: str = ""
    check: Callable[[dict, dict], None] | None = None

    @property
    def lint_clean(self) -> bool:
        """True when the static analyzer should produce zero findings."""
        return not self.expect_rules


#: The registry, in definition order.
LITMUS: dict[str, LitmusKernel] = {}


def _register(kernel: LitmusKernel) -> LitmusKernel:
    LITMUS[kernel.name] = kernel
    return kernel


def _expect(kernel: str, obs: dict, want: dict, mem: dict, **arrays) -> None:
    """A kernel's oracle: its observed loads are *want* and each named
    final array holds the given words; a failure names the kernel, what
    it observed and what it expected."""
    expect(obs == want, "{}: observed {!r}, expected {!r}", kernel, obs, want)
    for name, words in arrays.items():
        expect(mem[name] == words, "{}: final {} {!r}, expected {!r}",
               kernel, name, mem[name], words)


def spawn_litmus(
    kernel: LitmusKernel, machine: "Machine"
) -> tuple[dict, dict]:
    """Allocate the kernel's arrays and spawn all threads on *machine*.

    Returns ``(arrs, obs)``: the allocated shared arrays by name, and the
    shared dict the programs record observed values into.  The machine
    must have ``num_threads == kernel.threads``.
    """
    arrs = {
        name: machine.array(name, size)
        for name, size in kernel.arrays.items()
    }
    obs: dict = {}
    for program in kernel.programs:
        machine.spawn(lambda ctx, p=program: p(ctx, arrs, obs))
    return arrs, obs


def machine_params(kernel: LitmusKernel):
    """The machine parameters the kernel's model family runs on."""
    if kernel.model == "inter":
        return inter_block_machine(2, 2)
    return intra_block_machine(4)


# ---------------------------------------------------------------------------
# inter-block lowering helpers (mirror repro.compiler.executor)
# ---------------------------------------------------------------------------


def wb_global(ctx, addr, length, cons_tid=None):
    """Producer-side WB lowered for the inter-block machine's config."""
    mode = ctx.machine.config.inter_mode
    if mode == InterMode.BASE:
        yield isa.WBAllL3()
    elif mode == InterMode.ADDR or (
        mode == InterMode.ADDR_LEVEL and cons_tid is None
    ):
        yield isa.WBL3(addr, length)
    elif mode == InterMode.ADDR_LEVEL:
        yield isa.WBCons(addr, length, cons_tid)
    # HCC: hardware keeps the hierarchy coherent.


def inv_global(ctx, addr, length, prod_tid=None):
    """Consumer-side INV lowered for the inter-block machine's config."""
    mode = ctx.machine.config.inter_mode
    if mode == InterMode.BASE:
        yield isa.INVAllL2()
    elif mode == InterMode.ADDR or (
        mode == InterMode.ADDR_LEVEL and prod_tid is None
    ):
        yield isa.INVL2(addr, length)
    elif mode == InterMode.ADDR_LEVEL:
        yield isa.InvProd(addr, length, prod_tid)


def _idle(ctx, arrs, obs):
    """A thread that only meets the global barrier(s) it must attend."""
    yield from ctx.barrier()


# ---------------------------------------------------------------------------
# message passing
# ---------------------------------------------------------------------------


def _mp_flag_producer(ctx, arrs, obs):
    yield from ctx.store(arrs["data"].addr(0), 42)
    yield from ctx.flag_set(1)


def _mp_flag_consumer(ctx, arrs, obs):
    yield from ctx.flag_wait(1)
    obs["got"] = yield from ctx.load(arrs["data"].addr(0))


def _check_mp_flag(obs, mem):
    _expect("mp_flag", obs, {"got": 42}, mem, data=[42])


_register(LitmusKernel(
    name="mp_flag",
    model="intra",
    threads=2,
    arrays={"data": 1},
    programs=(_mp_flag_producer, _mp_flag_consumer),
    doc="MP: producer stores then sets a flag; consumer waits then loads.",
    check=_check_mp_flag,
))


def _mp_barrier_program(ctx, arrs, obs):
    if ctx.tid == 0:
        yield from ctx.store(arrs["data"].addr(0), 7)
    yield from ctx.barrier()
    if ctx.tid != 0:
        obs[ctx.tid] = yield from ctx.load(arrs["data"].addr(0))


def _check_mp_barrier(obs, mem):
    _expect("mp_barrier", obs, {1: 7, 2: 7, 3: 7}, mem, data=[7])


_register(LitmusKernel(
    name="mp_barrier",
    model="intra",
    threads=4,
    arrays={"data": 1},
    programs=(_mp_barrier_program,) * 4,
    doc="MP through a barrier; every other thread reads the same value.",
    check=_check_mp_barrier,
))


def _mp_inter_producer(ctx, arrs, obs):
    addr = arrs["data"].addr(0)
    yield from ctx.store(addr, 99)
    yield from wb_global(ctx, addr, WORD_BYTES, cons_tid=3)
    yield isa.FlagSet(1, 1)


def _mp_inter_consumer(ctx, arrs, obs):
    addr = arrs["data"].addr(0)
    yield isa.FlagWait(1, 1)
    yield from inv_global(ctx, addr, WORD_BYTES, prod_tid=0)
    obs[ctx.tid] = yield from ctx.load(addr)


def _passive(ctx, arrs, obs):
    return
    yield  # pragma: no cover - makes this a generator


def _check_mp_inter(obs, mem):
    _expect("mp_flag_inter_block", obs, {3: 99}, mem, data=[99])


_register(LitmusKernel(
    name="mp_flag_inter_block",
    model="inter",
    threads=4,
    arrays={"data": 1},
    programs=(_mp_inter_producer, _passive, _passive, _mp_inter_consumer),
    doc="MP across blocks: tid 0 (block 0) hands one word to tid 3 "
        "(block 1), so the handoff must cross the L2s.",
    check=_check_mp_inter,
))


# ---------------------------------------------------------------------------
# store buffering
# ---------------------------------------------------------------------------


def _sb_t0(ctx, arrs, obs):
    yield from ctx.store(arrs["x"].addr(0), 1)
    yield from ctx.barrier(count=2)
    obs["r0"] = yield from ctx.load(arrs["y"].addr(0))


def _sb_t1(ctx, arrs, obs):
    yield from ctx.store(arrs["y"].addr(0), 1)
    yield from ctx.barrier(count=2)
    obs["r1"] = yield from ctx.load(arrs["x"].addr(0))


def _check_sb(obs, mem):
    _expect("store_buffering_barrier", obs, {"r0": 1, "r1": 1}, mem)


_register(LitmusKernel(
    name="store_buffering_barrier",
    model="intra",
    threads=2,
    arrays={"x": 1, "y": 1},
    programs=(_sb_t0, _sb_t1),
    doc="SB: with a barrier between stores and loads, r0 = r1 = 1.",
    check=_check_sb,
))


# ---------------------------------------------------------------------------
# producer/consumer chains
# ---------------------------------------------------------------------------

_CHAIN_N = 4


def _chain_t0(ctx, arrs, obs):
    for i in range(_CHAIN_N):
        yield from ctx.store(arrs["a"].addr(i), 10 + i)
    yield from ctx.barrier()
    yield from ctx.barrier()


def _chain_t1(ctx, arrs, obs):
    yield from ctx.barrier()
    for i in range(_CHAIN_N):
        v = yield from ctx.load(arrs["a"].addr(i))
        yield from ctx.store(arrs["b"].addr(i), v + 1)
    yield from ctx.barrier()


def _chain_t2(ctx, arrs, obs):
    yield from ctx.barrier()
    yield from ctx.barrier()
    obs["b"] = tuple(
        (yield from ctx.load_many(
            [arrs["b"].addr(i) for i in range(_CHAIN_N)]
        ))
    )


def _chain_other(ctx, arrs, obs):
    yield from ctx.barrier()
    yield from ctx.barrier()


def _check_chain(obs, mem):
    _expect("producer_consumer_chain_barrier", obs, {"b": (11, 12, 13, 14)},
            mem, a=[10, 11, 12, 13], b=[11, 12, 13, 14])


_register(LitmusKernel(
    name="producer_consumer_chain_barrier",
    model="intra",
    threads=4,
    arrays={"a": _CHAIN_N, "b": _CHAIN_N},
    programs=(_chain_t0, _chain_t1, _chain_t2, _chain_other),
    doc="T0 produces a[], T1 maps a->b, T2 reads b — two barrier stages.",
    check=_check_chain,
))


_PING_ROUNDS = 3


def _ping_t0(ctx, arrs, obs):
    addr = arrs["v"].addr(0)
    yield from ctx.store(addr, 0)
    yield from ctx.flag_set(0, 1)
    for r in range(_PING_ROUNDS):
        yield from ctx.flag_wait(1, r + 1)
        v = yield from ctx.load(addr)
        yield from ctx.store(addr, v + 1)
        yield from ctx.flag_set(0, r + 2)
    obs["final0"] = yield from ctx.load(addr)


def _ping_t1(ctx, arrs, obs):
    addr = arrs["v"].addr(0)
    for r in range(_PING_ROUNDS):
        yield from ctx.flag_wait(0, r + 1)
        v = yield from ctx.load(addr)
        yield from ctx.store(addr, v + 1)
        yield from ctx.flag_set(1, r + 1)


def _check_ping(obs, mem):
    _expect("flag_ping_pong", obs, {"final0": 2 * _PING_ROUNDS}, mem,
            v=[2 * _PING_ROUNDS])


_register(LitmusKernel(
    name="flag_ping_pong",
    model="intra",
    threads=2,
    arrays={"v": 1},
    programs=(_ping_t0, _ping_t1),
    doc="Two threads alternately increment a word, ordered by flag values.",
    check=_check_ping,
))


# ---------------------------------------------------------------------------
# locks
# ---------------------------------------------------------------------------

_COUNTER_K = 3


def _counter_program(ctx, arrs, obs):
    addr = arrs["counter"].addr(0)
    for _ in range(_COUNTER_K):
        yield from ctx.lock_acquire(0)
        v = yield from ctx.load(addr)
        yield from ctx.store(addr, v + 1)
        yield from ctx.lock_release(0)
    yield from ctx.barrier()
    obs[ctx.tid] = yield from ctx.load(addr)


def _check_counter(obs, mem):
    _expect("lock_counter", obs, {tid: 4 * _COUNTER_K for tid in range(4)},
            mem, counter=[4 * _COUNTER_K])


_register(LitmusKernel(
    name="lock_counter",
    model="intra",
    threads=4,
    arrays={"counter": 1},
    programs=(_counter_program,) * 4,
    doc="Classic lock-protected counter: N threads x K increments each.",
    check=_check_counter,
))


_SWEEP_WORDS = 128  # 8 lines of 16 words: twice the 4-entry IEB capacity
_SWEEP_ROUNDS = 2


def _multiline_sweep_program(ctx, arrs, obs):
    acc = arrs["acc"]
    half = _SWEEP_WORDS // 2
    for _ in range(_SWEEP_ROUNDS):
        yield from ctx.lock_acquire(3)
        # Pass 1: read every word.  8 distinct lines enter the 4-entry IEB
        # in FIFO order, so the first 4 (the read-only half) get evicted.
        for i in range(_SWEEP_WORDS):
            yield from ctx.load(acc.addr(i))
        # Pass 2: increment the second half (lines still IEB-resident).
        for i in range(half, _SWEEP_WORDS):
            v = yield from ctx.load(acc.addr(i))
            yield from ctx.store(acc.addr(i), v + 1)
        # Re-read the first (read-only, evicted) line: this load pays the
        # redundant re-invalidation the Section IV-B.2 sizing argument
        # trades against buffer area.
        yield from ctx.load(acc.addr(0))
        yield from ctx.lock_release(3)
    yield from ctx.barrier()
    obs[ctx.tid] = yield from ctx.load(acc.addr(_SWEEP_WORDS - 1))


def _check_multiline_sweep(obs, mem):
    want = 4 * _SWEEP_ROUNDS
    half = _SWEEP_WORDS // 2
    _expect("lock_multiline_sweep", obs, {tid: want for tid in range(4)}, mem,
            acc=[0] * half + [want] * half)


_register(LitmusKernel(
    name="lock_multiline_sweep",
    model="intra",
    threads=4,
    arrays={"acc": _SWEEP_WORDS},
    programs=(_multiline_sweep_program,) * 4,
    doc="Lock-protected increment sweep over 8 lines: each critical "
        "section reads twice the IEB's capacity, so the epoch exercises "
        "IEB FIFO eviction and redundant re-invalidation (Section IV-B.2) "
        "rather than fitting entirely in the buffer.",
    check=_check_multiline_sweep,
))


def _handoff_writer(ctx, arrs, obs):
    yield from ctx.lock_acquire(5, occ=False)
    yield from ctx.store(arrs["slot"].addr(0), 123)
    yield from ctx.lock_release(5, occ=False)
    yield from ctx.flag_set(2)


def _handoff_reader(ctx, arrs, obs):
    yield from ctx.flag_wait(2)
    yield from ctx.lock_acquire(5, occ=False)
    obs["slot"] = yield from ctx.load(arrs["slot"].addr(0))
    yield from ctx.lock_release(5, occ=False)


def _check_handoff(obs, mem):
    _expect("lock_handoff_no_occ", obs, {"slot": 123}, mem, slot=[123])


_register(LitmusKernel(
    name="lock_handoff_no_occ",
    model="intra",
    threads=2,
    arrays={"slot": 1},
    programs=(_handoff_writer, _handoff_reader),
    doc="CS-only communication with ``occ=False`` (Figure 4d refinement).",
    check=_check_handoff,
))


def _handoff3_t0(ctx, arrs, obs):
    yield from ctx.lock_acquire(7)
    yield from ctx.store(arrs["slot"].addr(0), 111)
    yield from ctx.lock_release(7)
    yield from ctx.flag_set(1)


def _handoff3_t1(ctx, arrs, obs):
    yield from ctx.flag_wait(1)
    yield from ctx.lock_acquire(7)
    v = yield from ctx.load(arrs["slot"].addr(0))
    yield from ctx.store(arrs["slot"].addr(0), v + 222)
    yield from ctx.lock_release(7)
    yield from ctx.flag_set(2)


def _handoff3_t2(ctx, arrs, obs):
    yield from ctx.flag_wait(2)
    yield from ctx.lock_acquire(7)
    obs["slot"] = yield from ctx.load(arrs["slot"].addr(0))
    yield from ctx.lock_release(7)


def _check_handoff3(obs, mem):
    _expect("lock_handoff_three_threads", obs, {"slot": 333}, mem, slot=[333])


_register(LitmusKernel(
    name="lock_handoff_three_threads",
    model="intra",
    threads=3,
    arrays={"slot": 1},
    programs=(_handoff3_t0, _handoff3_t1, _handoff3_t2),
    doc="A word handed through a lock across three threads in sequence; "
        "each handoff needs its own WB before release + INV after acquire.",
    check=_check_handoff3,
))


def _handoff3_broken_t0(ctx, arrs, obs):
    yield from ctx.lock_acquire(7, occ=False, cs_inv=())
    yield from ctx.store(arrs["slot"].addr(0), 111)
    yield from ctx.lock_release(7, occ=False, cs_wb=())  # missing WB
    yield from ctx.flag_set(1, wb=())


def _handoff3_broken_t1(ctx, arrs, obs):
    yield from ctx.flag_wait(1, inv=())
    yield from ctx.lock_acquire(7, occ=False, cs_inv=())  # missing INV
    v = yield from ctx.load(arrs["slot"].addr(0))
    yield from ctx.store(arrs["slot"].addr(0), v + 222)
    yield from ctx.lock_release(7, occ=False, cs_wb=())  # missing WB
    yield from ctx.flag_set(2, wb=())


def _handoff3_broken_t2(ctx, arrs, obs):
    yield from ctx.flag_wait(2, inv=())
    yield from ctx.lock_acquire(7, occ=False, cs_inv=())  # missing INV
    obs["slot"] = yield from ctx.load(arrs["slot"].addr(0))
    yield from ctx.lock_release(7, occ=False, cs_wb=())


_register(LitmusKernel(
    name="lock_handoff_three_threads_broken",
    model="intra",
    threads=3,
    arrays={"slot": 1},
    programs=(_handoff3_broken_t0, _handoff3_broken_t1, _handoff3_broken_t2),
    determinate=False,
    expect_rules=("WB-REL", "INV-ACQ"),
    doc="The three-thread lock handoff with every annotation suppressed: "
        "the chain reads stale data dynamically; statically each handoff "
        "violates WB-REL and INV-ACQ.",
))


# ---------------------------------------------------------------------------
# annotated data races (Figure 6b)
# ---------------------------------------------------------------------------


def _racy_writer(ctx, arrs, obs):
    yield from ctx.racy_store(arrs["w"].addr(0), 5)
    yield from ctx.flag_set(3, wb=())  # data already posted by the race WB


def _racy_reader(ctx, arrs, obs):
    yield from ctx.flag_wait(3, inv=())  # rely on the racy-load INV alone
    obs["w"] = yield from ctx.racy_load(arrs["w"].addr(0))


def _check_racy(obs, mem):
    _expect("racy_store_load", obs, {"w": 5}, mem, w=[5])


_register(LitmusKernel(
    name="racy_store_load",
    model="intra",
    threads=2,
    arrays={"w": 1},
    programs=(_racy_writer, _racy_reader),
    doc="Racy store/load helpers, made determinate by an ordering flag.",
    check=_check_racy,
))


# ---------------------------------------------------------------------------
# range hints and multi-line handoff
# ---------------------------------------------------------------------------

_HANDOFF_N = 40  # spans 3 lines of 16 words


def _multiline_producer(ctx, arrs, obs):
    base = arrs["buf"].addr(0)
    for i in range(_HANDOFF_N):
        yield from ctx.store(arrs["buf"].addr(i), i * i)
    yield from ctx.barrier(wb=[(base, _HANDOFF_N * WORD_BYTES)], inv=())


def _multiline_consumer(ctx, arrs, obs):
    base = arrs["buf"].addr(0)
    yield from ctx.barrier(wb=(), inv=[(base, _HANDOFF_N * WORD_BYTES)])
    vals = yield from ctx.load_many(
        [arrs["buf"].addr(i) for i in range(_HANDOFF_N)]
    )
    obs[ctx.tid] = tuple(vals)


def _check_multiline(obs, mem):
    want = tuple(i * i for i in range(_HANDOFF_N))
    _expect("multiline_handoff_range_hints", obs, {1: want}, mem,
            buf=list(want))


_register(LitmusKernel(
    name="multiline_handoff_range_hints",
    model="intra",
    threads=4,
    arrays={"buf": _HANDOFF_N},
    programs=(_multiline_producer, _multiline_consumer, _idle, _idle),
    doc="Producer hands a multi-line region over a barrier with wb=/inv= "
        "hints.",
    check=_check_multiline,
))


def _false_sharing_program(ctx, arrs, obs):
    if ctx.tid < 2:
        yield from ctx.store(arrs["line"].addr(ctx.tid), 100 + ctx.tid)
    yield from ctx.barrier()
    other = 1 - ctx.tid
    if ctx.tid < 2:
        obs[ctx.tid] = yield from ctx.load(arrs["line"].addr(other))


def _check_false_sharing(obs, mem):
    _expect("false_sharing_one_line", obs, {0: 101, 1: 100}, mem,
            line=[100, 101])


_register(LitmusKernel(
    name="false_sharing_one_line",
    model="intra",
    threads=4,
    arrays={"line": 2},
    programs=(_false_sharing_program,) * 4,
    doc="Two writers share one cache line but touch disjoint words; "
        "per-word dirty bits must merge both updates on write-back.",
    check=_check_false_sharing,
))


def _private_reuse_program(ctx, arrs, obs):
    yield from ctx.store(arrs["priv"].addr(ctx.tid), ctx.tid * 11)
    yield from ctx.barrier(wb=(), inv=())
    obs[ctx.tid] = yield from ctx.load(arrs["priv"].addr(ctx.tid))


def _check_private_reuse(obs, mem):
    _expect("private_reuse_empty_hints", obs,
            {tid: tid * 11 for tid in range(4)}, mem, priv=[0, 11, 22, 33])


_register(LitmusKernel(
    name="private_reuse_empty_hints",
    model="intra",
    threads=4,
    arrays={"priv": 4},
    programs=(_private_reuse_program,) * 4,
    doc="wb=()/inv=() declare no communication: private slots stay "
        "correct.",
    check=_check_private_reuse,
))


# ---------------------------------------------------------------------------
# inter-block barrier reduction
# ---------------------------------------------------------------------------


def _reduction_program(ctx, arrs, obs):
    part = arrs["part"].addr(ctx.tid)
    parts = arrs["part"].addr(0)
    total_addr = arrs["sum"].addr(0)
    n = ctx.nthreads
    yield from ctx.store(part, ctx.tid + 1)
    yield from wb_global(ctx, part, WORD_BYTES)
    yield isa.Barrier(0, n)
    if ctx.tid == 0:
        yield from inv_global(ctx, parts, n * WORD_BYTES)
        total = 0
        for i in range(n):
            total += yield from ctx.load(arrs["part"].addr(i))
        yield from ctx.store(total_addr, total)
        yield from wb_global(ctx, total_addr, WORD_BYTES)
    yield isa.Barrier(1, n)
    if ctx.tid != 0:
        # tid 0 wrote the total itself — invalidating its own fresh copy
        # would be exactly the INV-RED redundancy the analyzer flags.
        yield from inv_global(ctx, total_addr, WORD_BYTES)
    obs[ctx.tid] = yield from ctx.load(total_addr)


def _check_reduction(obs, mem):
    _expect("inter_block_barrier_reduction", obs, {tid: 10 for tid in range(4)},
            mem, sum=[10])


_register(LitmusKernel(
    name="inter_block_barrier_reduction",
    model="inter",
    threads=4,
    arrays={"part": 4, "sum": 1},
    programs=(_reduction_program,) * 4,
    doc="All-threads sum reduction over two barrier phases, inter-block; "
        "the gather has no single peer, so Addr+L falls back to the "
        "global WB_L3/INV_L2 forms.",
    check=_check_reduction,
))


# ---------------------------------------------------------------------------
# deliberately broken kernels (the analyzer and the dynamic harness must
# both catch these)
# ---------------------------------------------------------------------------


def _canary_producer(ctx, arrs, obs):
    addr = arrs["data"].addr(0)
    _ = yield from ctx.load(addr)  # cache the line before writing
    yield isa.Write(addr, 42)
    yield isa.FlagSet(9, 1)  # no WB before the set


def _canary_consumer(ctx, arrs, obs):
    addr = arrs["data"].addr(0)
    _ = yield from ctx.load(addr)  # warm the stale line
    yield isa.FlagWait(9, 1)  # no INV after the wait
    obs["got"] = yield from ctx.load(addr)


_register(LitmusKernel(
    name="missing_annotations",
    model="intra",
    threads=2,
    arrays={"data": 1},
    programs=(_canary_producer, _canary_consumer),
    determinate=False,
    expect_rules=("WB-FLAG", "INV-FLAG"),
    doc="The canary: flag-ordered message passing with no WB/INV at all. "
        "The consumer reads its warmed stale line; both harnesses must "
        "object.",
))


def _missing_wb_producer(ctx, arrs, obs):
    yield from ctx.store(arrs["data"].addr(0), 7)
    # wb=() lies: the store is never written back.  inv=() too — the
    # protocol never drops dirty words, so a default INV ALL would write
    # the data back as a side effect and mask the missing WB.
    yield from ctx.barrier(wb=(), inv=())


def _missing_wb_consumer(ctx, arrs, obs):
    yield from ctx.barrier()
    obs["got"] = yield from ctx.load(arrs["data"].addr(0))


_register(LitmusKernel(
    name="missing_wb_barrier",
    model="intra",
    threads=2,
    arrays={"data": 1},
    programs=(_missing_wb_producer, _missing_wb_consumer),
    determinate=False,
    expect_rules=("WB-BAR",),
    doc="A wb=() hint that lies: the producer's store stays dirty in its "
        "L1, so the consumer reads the stale shared level.",
))


def _missing_inv_producer(ctx, arrs, obs):
    yield from ctx.barrier()  # round 0: let the consumer warm the line
    yield from ctx.store(arrs["data"].addr(0), 7)
    yield from ctx.barrier()  # round 1: the default WB ALL publishes


def _missing_inv_consumer(ctx, arrs, obs):
    # Warm a *different* word of the same line: caches the line without
    # creating a cross-thread edge on the communicated word.  The first
    # barrier orders the warming before the producer's store.
    _ = yield from ctx.load(arrs["data"].addr(1))
    yield from ctx.barrier(inv=())  # keep the warmed line
    yield from ctx.barrier(inv=())  # lies: the stale line is never dropped
    obs["got"] = yield from ctx.load(arrs["data"].addr(0))


_register(LitmusKernel(
    name="missing_inv_barrier",
    model="intra",
    threads=2,
    arrays={"data": 2},
    programs=(_missing_inv_producer, _missing_inv_consumer),
    determinate=False,
    expect_rules=("INV-BAR",),
    doc="An inv=() hint that lies: the consumer warmed the line before "
        "the barrier and re-reads it stale afterwards.",
))


def _redundant_wb_producer(ctx, arrs, obs):
    a0 = arrs["a"].addr(0)
    b0 = arrs["b"].addr(0)
    yield from ctx.store(a0, 5)
    # The b-range WB is dead weight: nothing in b was ever written.
    yield from ctx.barrier(
        wb=[(a0, WORD_BYTES), (b0, WORD_BYTES)], inv=()
    )


def _redundant_wb_consumer(ctx, arrs, obs):
    a0 = arrs["a"].addr(0)
    yield from ctx.barrier(wb=(), inv=[(a0, WORD_BYTES)])
    obs["got"] = yield from ctx.load(a0)


def _check_redundant_wb(obs, mem):
    _expect("redundant_wb_hint", obs, {"got": 5}, mem, a=[5])


_register(LitmusKernel(
    name="redundant_wb_hint",
    model="intra",
    threads=2,
    arrays={"a": 1, "b": 1},
    programs=(_redundant_wb_producer, _redundant_wb_consumer),
    determinate=True,
    expect_rules=("WB-RED",),
    doc="Correct but wasteful: the producer's hint also writes back a "
        "range it never dirtied.",
    check=_check_redundant_wb,
))


def _inv_uninit_reader(ctx, arrs, obs):
    base = arrs["u"].addr(0)
    yield from ctx.barrier(wb=(), inv=[(base, 4 * WORD_BYTES)])
    vals = yield from ctx.load_many([arrs["u"].addr(i) for i in range(4)])
    obs["u"] = tuple(vals)


def _inv_uninit_other(ctx, arrs, obs):
    yield from ctx.barrier(wb=(), inv=())


def _check_inv_uninit(obs, mem):
    _expect("inv_uninitialized_read", obs, {"u": (0, 0, 0, 0)}, mem)


_register(LitmusKernel(
    name="inv_uninitialized_read",
    model="intra",
    threads=2,
    arrays={"u": 4},
    programs=(_inv_uninit_reader, _inv_uninit_other),
    determinate=True,
    expect_rules=("INV-RED",),
    doc="Invalidating before reading data no other thread ever wrote: "
        "correct, but the INV only destroys locality.",
    check=_check_inv_uninit,
))
