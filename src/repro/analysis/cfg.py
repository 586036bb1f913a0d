"""Per-thread control-flow graphs over extracted operation streams.

The extracted stream is a dynamic unrolling of the thread's control flow, so
its CFG is the paper's *epoch* structure made explicit: segments of plain
accesses bounded by synchronization events (Section IV-A inserts every
WB/INV at exactly these boundaries).  Each segment records which arrays it
reads and writes and which interprocedural call paths produced its
operations; the per-thread graphs are chained linearly (a thread is a single
in-order core) and cross-thread edges are the synchronization pairs that
:mod:`repro.analysis.hb` derives.

The call summary is the analyzer's interprocedural view: one entry per
function (workload program, ``ThreadCtx`` helper, annotator fragment,
Model-2 executor stage) with the number and kinds of ops it emitted.
Diagnostics use it to name the helper that should have carried an
annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.extract import KernelTrace, OpEvent
from repro.isa import ops as isa


@dataclass
class Segment:
    """One epoch: the ops of one thread between two synchronization events.

    ``opens`` is the sync event starting the segment (``None`` for thread
    entry); ``closes`` is the sync event ending it (``None`` for thread
    exit).  ``start``/``end`` index the thread's event list (half-open).
    """

    seg_id: int
    tid: int
    start: int
    end: int
    opens: OpEvent | None = None
    closes: OpEvent | None = None
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    annotations: list[OpEvent] = field(default_factory=list)

    def describe(self) -> str:
        """One-line human-readable location, used in diagnostics."""
        left = self.opens.op.mnemonic if self.opens else "entry"
        right = self.closes.op.mnemonic if self.closes else "exit"
        return f"segment {self.seg_id} ({left} .. {right})"


@dataclass
class CallSite:
    """Aggregate of every op one function emitted on one thread."""

    qualname: str
    ops: int = 0
    kinds: dict[str, int] = field(default_factory=dict)

    def count(self, op: isa.Op) -> None:
        """Fold one op into the aggregate."""
        self.ops += 1
        self.kinds[op.mnemonic] = self.kinds.get(op.mnemonic, 0) + 1


@dataclass
class ThreadCFG:
    """Linear chain of epoch segments plus the thread's call summary."""

    tid: int
    segments: list[Segment]
    calls: dict[str, CallSite]


def build_cfg(trace: KernelTrace, tid: int) -> ThreadCFG:
    """Build one thread's epoch CFG from its extracted stream."""
    events = trace.per_thread[tid]
    segments: list[Segment] = []
    seg = Segment(seg_id=0, tid=tid, start=0, end=0)
    calls: dict[str, CallSite] = {}
    for pos, ev in enumerate(events):
        # Innermost frame is the function that physically yielded the op.
        leaf = ev.call_path[-1] if ev.call_path else "<unknown>"
        site = calls.get(leaf)
        if site is None:
            site = calls[leaf] = CallSite(leaf)
        site.count(ev.op)

        if isinstance(ev.op, isa.SYNC_OPS):
            seg.end = pos
            seg.closes = ev
            segments.append(seg)
            seg = Segment(
                seg_id=len(segments), tid=tid, start=pos + 1, end=pos + 1,
                opens=ev,
            )
            continue
        if isinstance(ev.op, isa.Read):
            seg.reads.add(trace.array_of(ev.op.addr))
        elif isinstance(ev.op, isa.Write):
            seg.writes.add(trace.array_of(ev.op.addr))
        elif isinstance(ev.op, isa.WB_OPS + isa.INV_OPS):
            seg.annotations.append(ev)
    seg.end = len(events)
    segments.append(seg)
    return ThreadCFG(tid=tid, segments=segments, calls=calls)


def build_cfgs(trace: KernelTrace) -> list[ThreadCFG]:
    """One epoch CFG per thread."""
    return [build_cfg(trace, tid) for tid in range(trace.num_threads)]


def render_cfg(cfg: ThreadCFG) -> str:
    """Human-readable dump of one thread's CFG (``repro lint --dump-cfg``)."""
    lines = [f"thread {cfg.tid}: {len(cfg.segments)} segment(s)"]
    for seg in cfg.segments:
        n_ops = seg.end - seg.start
        lines.append(
            f"  {seg.describe()}: {n_ops} op(s), "
            f"reads {sorted(seg.reads) or '-'}, "
            f"writes {sorted(seg.writes) or '-'}, "
            f"{len(seg.annotations)} annotation(s)"
        )
    lines.append("  call summary:")
    for name in sorted(cfg.calls):
        site = cfg.calls[name]
        kinds = ", ".join(
            f"{k}×{v}" for k, v in sorted(site.kinds.items())
        )
        lines.append(f"    {name}: {site.ops} op(s) [{kinds}]")
    return "\n".join(lines)
