"""Trace-driven replay: turn a recorded JSONL trace back into a workload.

Any run recorded with ``--trace`` (or an external trace conforming to
:mod:`repro.obs.schema`) becomes a first-class workload: the replay
frontend reconstructs each core's program-order operation stream from its
events and re-executes it on a fresh machine.  Because the simulator is
deterministic and the reconstructed streams are exactly the recorded ones,
replay carries a round-trip guarantee::

    record -> replay -> re-record   is bit-identical

(events and final :class:`~repro.sim.stats.MachineStats` alike), verified
by ``tests/workloads/test_replay.py`` over the full litmus registry.

What replays and what doesn't:

* ``read``/``write``/``compute``/``wb``/``inv``/``epoch``/``sync`` events
  carrying CPU mnemonics are program operations — they are rebuilt into
  :mod:`repro.isa.ops` instances (writes use the recorded ``val``; an
  object-valued store that could not be serialized replays as a store of
  ``None``, which the tracer omits again — the round-trip stays
  bit-identical even though the object value itself is unrecoverable).
* hardware-initiated events (``fill``/``evict``/``fault``, MESI directory
  ``DIR_FWD``/``DIR_INV`` messages, sync-controller ``*_grant`` messages)
  are simulator *outputs*; replay skips them and the re-run regenerates
  them.

Batch macro-ops decompose into their defining per-word scalar sequence at
record time, so a replayed program is the scalar expansion of the original
— bit-identical by the macro-op contract (:mod:`repro.isa.ops`).
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.common.errors import ConfigError
from repro.core.config import ExperimentConfig
from repro.core.machine import Machine
from repro.isa import ops as isa
from repro.obs.schema import TraceSchemaError, validate_event

#: Sync-event mnemonics the CPU emits (controller grants are skipped).
_SYNC_MNEMONICS = frozenset(
    ("barrier", "lock_acquire", "lock_release", "flag_set", "flag_wait")
)

#: WB/INV/epoch mnemonics that reconstruct to an instruction; anything
#: else under those kinds (e.g. MESI ``DIR_INV``) is hardware-initiated.
_WBINV_MNEMONICS = frozenset(
    (
        "WB", "WB_ALL", "WB_CONS", "WB_CONS_ALL", "WB_L3", "WB_ALL_L3",
        "INV", "INV_ALL", "INV_PROD", "INV_PROD_ALL", "INV_L2", "INV_ALL_L2",
        "epoch_begin", "epoch_end",
    )
)


def load_events(path) -> list[dict]:
    """Load and schema-validate a JSONL trace file; return its events."""
    events: list[dict] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                ev = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: bad JSON: {exc}") from None
            try:
                validate_event(ev)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: {exc}") from None
            events.append(ev)
    return events


def op_from_event(ev: dict) -> isa.Op | None:
    """Reconstruct the ISA operation a trace event records, or ``None``.

    ``None`` means the event is hardware-initiated (fills, evictions,
    faults, directory messages, sync grants) and carries no program
    operation to replay.
    """
    kind = ev["kind"]
    if kind == "read":
        return isa.Read(ev["addr"])
    if kind == "write":
        # A write event with no recorded `val` stored an object value the
        # tracer could not serialize; replay it as a store of None so the
        # re-record also omits `val` (preserving the bit-identical
        # round-trip).  Such replays keep the trace contract, not the
        # original run's memory values.
        return isa.Write(ev["addr"], ev.get("val"))
    if kind == "compute":
        return isa.Compute(ev.get("lat", 0))
    if kind == "sync":
        mnem = ev.get("op")
        if mnem not in _SYNC_MNEMONICS:
            return None
        arg = ev.get("arg", 0)
        if mnem == "barrier":
            return isa.Barrier(arg, ev.get("n", 1))
        if mnem == "lock_acquire":
            return isa.LockAcquire(arg)
        if mnem == "lock_release":
            return isa.LockRelease(arg)
        if mnem == "flag_set":
            return isa.FlagSet(arg, ev.get("n", 1))
        return isa.FlagWait(arg, ev.get("n", 1))
    if kind in ("wb", "inv", "epoch"):
        mnem = ev.get("op")
        if mnem not in _WBINV_MNEMONICS:
            return None
        addr = ev.get("addr", 0)
        n = ev.get("n", 4)
        arg = ev.get("arg", 0)
        if mnem == "WB":
            return isa.WB(addr, n)
        if mnem == "WB_ALL":
            return isa.WBAll(via_meb=bool(arg))
        if mnem == "WB_CONS":
            return isa.WBCons(addr, n, arg)
        if mnem == "WB_CONS_ALL":
            return isa.WBConsAll(arg)
        if mnem == "WB_L3":
            return isa.WBL3(addr, n)
        if mnem == "WB_ALL_L3":
            return isa.WBAllL3()
        if mnem == "INV":
            return isa.INV(addr, n)
        if mnem == "INV_ALL":
            return isa.INVAll()
        if mnem == "INV_PROD":
            return isa.InvProd(addr, n, arg)
        if mnem == "INV_PROD_ALL":
            return isa.InvProdAll(arg)
        if mnem == "INV_L2":
            return isa.INVL2(addr, n)
        if mnem == "INV_ALL_L2":
            return isa.INVAllL2()
        if mnem == "epoch_begin":
            return isa.EpochBegin(bool(arg & 1), bool(arg >> 1 & 1), kind="replay")
        return isa.EpochEnd()
    return None  # fill / evict / fault: simulator-regenerated


def programs_by_core(events: Iterable[dict]) -> dict[int, list[isa.Op]]:
    """Per-core program-order operation lists reconstructed from *events*.

    Per-core emission order *is* program order (each in-order core records
    its own operations as it retires them), so a stable partition by the
    ``core`` field recovers every thread's instruction stream.
    """
    streams: dict[int, list[isa.Op]] = {}
    for ev in events:
        op = op_from_event(ev)
        if op is not None:
            streams.setdefault(ev["core"], []).append(op)
    return streams


def replay_program(stream: list[isa.Op]):
    """A Machine-spawnable program that yields *stream* verbatim."""

    def program(ctx) -> Any:
        for op in stream:
            yield op

    return program


def infer_num_threads(streams: dict[int, list[isa.Op]]) -> int:
    """Thread count implied by the populated cores (identity placement)."""
    if not streams:
        raise ConfigError("trace contains no replayable program operations")
    return max(streams) + 1


def spawn_replay(machine: Machine, events: Iterable[dict]) -> None:
    """Spawn one replay thread per machine thread from *events*.

    Thread *tid* replays the stream of the core the machine's placement
    assigns it to (cores with no recorded operations get an empty
    program).  Raises :class:`ConfigError` if the trace touches a core the
    placement does not cover — the replay machine must match the recording
    geometry.
    """
    streams = programs_by_core(events)
    placed = set()
    for tid in range(machine.num_threads):
        core = machine.placement.core_of(tid)
        placed.add(core)
        machine.spawn(replay_program(streams.get(core, [])))
    stranded = sorted(set(streams) - placed)
    if stranded:
        raise ConfigError(
            f"trace has operations on unplaced core(s) {stranded}; "
            f"replay machine covers cores {sorted(placed)}"
        )


def run_replay(events, config: ExperimentConfig, *, app: str = "replay", **options):
    """Replay *events* (a list or a JSONL path) as one run.

    The ``replay`` subject of :func:`repro.eval.runner.run_subject`: it
    stages the machine, spawns the reconstructed per-core streams, runs to
    completion, and returns a :class:`~repro.eval.runner.RunResult`.
    ``num_threads`` defaults to the populated-core count (identity
    placement), ``machine_params`` to a litmus-style intra block.
    """
    from repro.eval.runner import run_subject

    if not isinstance(events, list):
        events = load_events(events)
    return run_subject("replay", app, config, events=events, **options)
