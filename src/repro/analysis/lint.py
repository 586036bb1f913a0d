"""The annotation rule checker behind ``repro lint``.

Consumes the communication edges of :mod:`repro.analysis.hb` and checks each
against the Section IV-A Table I obligations catalogued in
:mod:`repro.analysis.rules`:

* every cross-thread read-after-write edge needs a **covering WB** (emitted
  by the producer after the write, ordered before the read) and a **covering
  INV** (emitted by the consumer before the read, ordered after the write);
* every cross-thread write-after-write edge needs the covering WB (or the
  earlier write can resurface later — a lost update);
* unordered edges must follow the Figure 6b annotated-race pattern
  (WB immediately after the store, INV immediately before each load);
* on multi-block machines, cross-block edges additionally need annotations
  that reach the shared L3 / invalidate the local L2 (Section V-B);
* explicitly ranged WB/INV ops whose range provably covers no communication
  are reported as redundant (performance, not correctness).

Two placement idioms of :class:`repro.core.annotate.Annotator` are modelled
explicitly: an INV placed immediately *before* an acquire counts as ordered
by that acquire (the cache cannot change in between — only non-memory ops
separate them), and ``WB ALL via-MEB`` only covers writes made after the
epoch's ``EpochBegin``.

Findings are aggregated per (rule, array, producer, consumer, call site) and
carry the op-stream insertion hints :mod:`repro.analysis.fix` consumes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.extract import KernelTrace, OpEvent, extract
from repro.analysis.hb import WORD, AnnotEvent, CommEdge, analyze_hb
from repro.analysis.rules import RULES, lint_profile

from repro.isa import ops as isa

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.machine import Machine


@dataclass
class FixHint:
    """One op-stream insertion ``repro lint --fix`` should perform.

    ``anchor`` is a per-thread op index in the *original* stream: the new
    op(s) are inserted immediately before the op currently at that index.
    ``words`` accumulates the byte addresses the inserted ranged op must
    cover; ``peer`` is the consumer (for a WB) or producer (for an INV)
    thread the level-adaptive op names.
    """

    kind: str
    tid: int
    anchor: int
    peer: int
    words: set[int] = field(default_factory=set)


@dataclass
class Finding:
    """One aggregated lint diagnostic.

    A finding represents every edge that violated the same rule on the same
    array between the same producer/consumer pair at the same program
    location; ``count`` is the number of such edges and ``word`` one example
    address.  ``note`` carries rule-specific detail (e.g. why an INV is
    redundant).
    """

    rule_id: str
    array: str
    producer: int
    consumer: int
    word: int
    count: int = 1
    producer_site: str = ""
    consumer_site: str = ""
    note: str = ""
    fixes: list[FixHint] = field(default_factory=list)

    @property
    def severity(self) -> str:
        """``"error"`` or ``"warning"``, from the rule catalog."""
        return RULES[self.rule_id].severity

    @property
    def message(self) -> str:
        """One-line human-readable diagnostic."""
        rule = RULES[self.rule_id]
        who = f"tid {self.producer}"
        if self.consumer >= 0 and self.consumer != self.producer:
            who += f" -> tid {self.consumer}"
        text = (
            f"{rule.title}: {who}, {self.count} access(es) to "
            f"'{self.array}' (e.g. 0x{self.word:x})"
        )
        if self.note:
            text += f" — {self.note}"
        return f"{text} [see {rule.anchor}]"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (stable across runs)."""
        rule = RULES[self.rule_id]
        return {
            "rule": self.rule_id,
            "severity": rule.severity,
            "title": rule.title,
            "doc": rule.anchor,
            "array": self.array,
            "producer": self.producer,
            "consumer": self.consumer,
            "word": f"0x{self.word:x}",
            "count": self.count,
            "producer_site": self.producer_site,
            "consumer_site": self.consumer_site,
            "note": self.note,
            "message": self.message,
        }


@dataclass
class LintReport:
    """The full result of linting one kernel on one machine/config."""

    name: str
    config: str
    num_threads: int
    num_blocks: int
    events: int
    edges: int
    findings: list[Finding] = field(default_factory=list)
    #: Memory model whose lint profile filtered the findings.
    model: str = "base"
    #: Findings dropped by the model's waiver set (performance obligations
    #: the model discharges in the protocol itself).
    waived: int = 0

    @property
    def errors(self) -> int:
        """Number of error-severity findings."""
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> int:
        """Number of warning-severity findings."""
        return sum(1 for f in self.findings if f.severity == "warning")

    @property
    def clean(self) -> bool:
        """True when no finding of any severity was produced."""
        return not self.findings

    def sort(self) -> None:
        """Deterministic report order: errors first, then by rule/location."""
        self.findings.sort(
            key=lambda f: (
                f.severity != "error",
                f.rule_id,
                f.array,
                f.producer,
                f.consumer,
                f.word,
            )
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation of the whole report."""
        return {
            "name": self.name,
            "config": self.config,
            "model": self.model,
            "machine": {
                "threads": self.num_threads,
                "blocks": self.num_blocks,
            },
            "summary": {
                "errors": self.errors,
                "warnings": self.warnings,
                "waived": self.waived,
                "events": self.events,
                "edges": self.edges,
            },
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Human-readable report text (see :func:`render_report`)."""
        return render_report(self.to_dict())


def render_report(doc: dict[str, Any]) -> str:
    """Human-readable text of one :meth:`LintReport.to_dict` document."""
    summary = doc["summary"]
    head = (
        f"{doc['name'] or 'kernel'} [{doc['config'] or 'default'}]: "
        f"{summary['errors']} error(s), {summary['warnings']} warning(s) "
        f"({summary['edges']} communication edge(s) over "
        f"{summary['events']} op(s))"
    )
    if doc["model"] != "base":
        head += f" [model {doc['model']}: {summary['waived']} waived]"
    lines = [head]
    for f in doc["findings"]:
        lines.append(f"  {f['severity']:7s} {f['rule']:9s} {f['message']}")
        where = []
        if f["producer_site"]:
            where.append(f"producer at {f['producer_site']}")
        if f["consumer_site"]:
            where.append(f"consumer at {f['consumer_site']}")
        if where:
            lines.append(" " * 20 + "; ".join(where))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


def _site(ev: OpEvent) -> str:
    """Call-site label of one event: innermost frame plus stream position."""
    leaf = ev.call_path[-1] if ev.call_path else "<unknown>"
    return f"{leaf} (op {ev.idx})"


class _Checker:
    """Stateful single-kernel check; see :func:`lint_trace`."""

    def __init__(self, trace: KernelTrace, name: str, config: str) -> None:
        self.trace = trace
        self.hb = analyze_hb(trace)
        machine = trace.machine
        self.placement = machine.placement
        self.num_blocks = getattr(
            machine, "num_blocks", machine.params.num_blocks
        )
        self.multi_block = self.num_blocks > 1
        self.report = LintReport(
            name=name,
            config=config,
            num_threads=trace.num_threads,
            num_blocks=self.num_blocks,
            events=len(trace.events),
            edges=len(self.hb.edges),
        )
        self._by_key: dict[tuple, Finding] = {}
        self._edge_memo: dict[tuple, list[Finding]] = {}
        n = trace.num_threads
        self._wb_idx = [
            [e.idx for e in self.hb.wb_events[t]] for t in range(n)
        ]
        self._inv_idx = [
            [e.idx for e in self.hb.inv_events[t]] for t in range(n)
        ]
        self._meb_begins, self._epoch_ends = self._scan_epochs()
        self._inv_eff_vc = self._effective_inv_clocks()

    # -- precomputation -----------------------------------------------------

    def _scan_epochs(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per-thread sorted indices of MEB epoch begins and epoch ends."""
        begins: list[list[int]] = []
        ends: list[list[int]] = []
        for events in self.trace.per_thread:
            b: list[int] = []
            e: list[int] = []
            for ev in events:
                if type(ev.op) is isa.EpochBegin and ev.op.record_meb:
                    b.append(ev.idx)
                elif type(ev.op) is isa.EpochEnd:
                    e.append(ev.idx)
            begins.append(b)
            ends.append(e)
        return begins, ends

    def _effective_inv_clocks(self) -> list[list[tuple[int, ...]]]:
        """Each INV's vector clock, extended through an adjacent acquire.

        The Model-1 annotator legally places the critical-section INV
        immediately *before* the lock acquire: nothing can enter the cache
        between them.  An INV therefore inherits the knowledge of any
        acquire-side sync that follows it with no intervening memory access.
        """
        out: list[list[tuple[int, ...]]] = []
        for tid, invs in enumerate(self.hb.inv_events):
            acq_vc = {sp.idx: sp.vc for sp in self.hb.acquires[tid]}
            events = self.trace.per_thread[tid]
            effs: list[tuple[int, ...]] = []
            for inv in invs:
                eff = list(inv.vc)  # type: ignore[arg-type]
                for ev in events[inv.idx + 1:]:
                    if type(ev.op) in (isa.Read, isa.Write):
                        break
                    vc = acq_vc.get(ev.idx)
                    if vc is not None:
                        for i, v in enumerate(vc):
                            if v > eff[i]:
                                eff[i] = v
                effs.append(tuple(eff))
            out.append(effs)
        return out

    # -- op coverage predicates ---------------------------------------------

    def _meb_covers(self, tid: int, wb_idx: int, write_idx: int) -> bool:
        """Does a via-MEB WB ALL at *wb_idx* cover a write at *write_idx*?

        The MEB only records lines written inside the current epoch; a WB
        ALL via-MEB therefore misses writes made before ``EpochBegin``.
        Outside any epoch the hardware falls back to a full WB ALL.
        """
        begins = self._meb_begins[tid]
        pos = bisect_left(begins, wb_idx)
        if pos == 0:
            return True  # no epoch open: full WB ALL fallback
        begin = begins[pos - 1]
        ends = self._epoch_ends[tid]
        if bisect_left(ends, wb_idx) != bisect_right(ends, begin):
            return True  # that epoch already closed: fallback again
        return write_idx > begin

    def _wb_covers(self, wb: AnnotEvent, edge: CommEdge) -> bool:
        op = wb.op
        if type(op) is isa.WBAll:
            if op.via_meb:
                return self._meb_covers(
                    edge.write.tid, wb.idx, edge.write.idx
                )
            return True
        if isinstance(op, (isa.WBConsAll, isa.WBAllL3)):
            return True
        rng = isa.byte_range(op)
        return rng is not None and rng[0] <= edge.word < rng[1]

    def _inv_covers(self, inv: AnnotEvent, edge: CommEdge) -> bool:
        op = inv.op
        if type(op) is isa.EpochBegin:
            # IEB protection lasts until the matching EpochEnd.
            ends = self._epoch_ends[edge.sink.tid]
            pos = bisect_left(ends, inv.idx)
            return pos >= len(ends) or edge.sink.idx < ends[pos]
        if isinstance(op, (isa.INVAll, isa.InvProdAll, isa.INVAllL2)):
            return True
        rng = isa.byte_range(op)
        return rng is not None and rng[0] <= edge.word < rng[1]

    def _cross_block(self, edge: CommEdge) -> bool:
        if not self.multi_block:
            return False
        return self.placement.block_of_thread(
            edge.write.tid
        ) != self.placement.block_of_thread(edge.sink.tid)

    def _wb_reaches(self, op: isa.Op, producer: int) -> bool:
        """Does this WB flavor push cross-block-visible data (to the L3)?"""
        if isinstance(op, isa.GLOBAL_WB_OPS):
            return True
        if isinstance(op, (isa.WBCons, isa.WBConsAll)):
            return self.placement.block_of_thread(
                op.cons_tid
            ) != self.placement.block_of_thread(producer)
        return False

    def _inv_reaches(self, op: isa.Op, consumer: int) -> bool:
        """Does this INV flavor also clear the consumer's block L2?"""
        if isinstance(op, isa.GLOBAL_INV_OPS):
            return True
        if isinstance(op, (isa.InvProd, isa.InvProdAll)):
            return self.placement.block_of_thread(
                op.prod_tid
            ) != self.placement.block_of_thread(consumer)
        return False

    # -- finding aggregation ------------------------------------------------

    def _emit(
        self,
        rule_id: str,
        edge: CommEdge | None,
        *,
        array: str,
        producer: int,
        consumer: int,
        word: int,
        producer_site: str = "",
        consumer_site: str = "",
        note: str = "",
        fix: tuple[str, int, int, int] | None = None,
    ) -> Finding:
        """Record one violation, merging into an existing finding if any."""
        key = (rule_id, array, producer, consumer, producer_site,
               consumer_site, note)
        finding = self._by_key.get(key)
        if finding is None:
            finding = Finding(
                rule_id=rule_id,
                array=array,
                producer=producer,
                consumer=consumer,
                word=word,
                producer_site=producer_site,
                consumer_site=consumer_site,
                note=note,
            )
            self._by_key[key] = finding
            self.report.findings.append(finding)
        else:
            finding.count += 1
        if fix is not None:
            kind, tid, anchor, peer = fix
            for hint in finding.fixes:
                if (hint.kind, hint.tid, hint.anchor) == (kind, tid, anchor):
                    hint.words.add(word)
                    break
            else:
                finding.fixes.append(
                    FixHint(kind=kind, tid=tid, anchor=anchor, peer=peer,
                            words={word})
                )
        return finding

    # -- per-edge checks ----------------------------------------------------

    def _find_wb(self, edge: CommEdge, *, need_global: bool):
        """Covering WB for *edge*: after the write, ordered before the sink.

        Returns ``(adequate, inadequate)`` — the first covering WB that
        reaches the required level, and (when only a too-shallow one exists)
        that one, for the WB-LEVEL diagnostic.
        """
        p = edge.write.tid
        wbs = self.hb.wb_events[p]
        start = bisect_right(self._wb_idx[p], edge.write.idx)
        shallow = None
        for wb in wbs[start:]:
            if wb.clock > edge.vcp_at_sink:
                continue
            if not self._wb_covers(wb, edge):
                continue
            if not need_global or self._wb_reaches(wb.op, p):
                return wb, None
            shallow = shallow or wb
        return None, shallow

    def _find_inv(self, edge: CommEdge, *, need_global: bool):
        """Covering INV for *edge*: before the read, ordered after the write."""
        c = edge.sink.tid
        p = edge.write.tid
        invs = self.hb.inv_events[c]
        effs = self._inv_eff_vc[c]
        shallow = None
        for i, inv in enumerate(invs):
            if inv.idx >= edge.sink.idx:
                break
            if effs[i][p] < edge.write_clock:
                continue
            if not self._inv_covers(inv, edge):
                continue
            if not need_global or self._inv_reaches(inv.op, c):
                return inv, None
            shallow = shallow or inv
        return None, shallow

    def _wb_rule(self, edge: CommEdge) -> tuple[str, int]:
        """Rule ID and fix anchor for a missing-WB violation."""
        for rel in self.hb.releases[edge.write.tid]:
            if rel.idx > edge.write.idx:
                op = rel.op
                if type(op) is isa.Barrier:
                    return "WB-BAR", rel.idx
                if type(op) is isa.LockRelease:
                    if op.lid in edge.write.locks_held:
                        return "WB-REL", rel.idx
                    return "WB-OCC", rel.idx
                return "WB-FLAG", rel.idx
        return "WB-RACE", edge.write.idx + 1

    def _inv_rule(self, edge: CommEdge) -> tuple[str, int]:
        """Rule ID and fix anchor for a missing-INV violation.

        Normally the *earliest* acquire that orders the write names the
        idiom (the barrier/flag/lock the programmer used to synchronize).
        But when the consumer reads inside a critical section whose own
        acquire also orders the write, the CS acquire wins — that is where
        Table I (and the Annotator) place the INV, even if an earlier flag
        or barrier happens to order the data too.
        """
        p = edge.write.tid
        first: tuple[str, int] | None = None
        for acq in self.hb.acquires[edge.sink.tid]:
            if acq.idx >= edge.sink.idx:
                break
            if acq.vc is not None and acq.vc[p] >= edge.write_clock:
                op = acq.op
                if (
                    type(op) is isa.LockAcquire
                    and op.lid in edge.sink.locks_held
                ):
                    return "INV-ACQ", acq.idx + 1
                if first is None:
                    if type(op) is isa.Barrier:
                        first = ("INV-BAR", acq.idx + 1)
                    elif type(op) is isa.LockAcquire:
                        first = ("INV-OCC", acq.idx + 1)
                    else:
                        first = ("INV-FLAG", acq.idx + 1)
        if first is not None:
            return first
        return "INV-RACE", edge.sink.idx

    def _prev_same_word_access(self, edge: CommEdge) -> int:
        """Consumer's previous access to the edge's word (stream index)."""
        events = self.trace.per_thread[edge.sink.tid]
        for ev in reversed(events[: edge.sink.idx]):
            op = ev.op
            if type(op) in (isa.Read, isa.Write):
                if (op.addr // WORD) * WORD == edge.word:
                    return ev.idx
        return -1

    def _check_racy_edge(self, edge: CommEdge) -> list[Finding]:
        """Figure 6b pattern check for an edge with no HB ordering."""
        out = []
        p, word = edge.write.tid, edge.word
        need_global = self._cross_block(edge)
        wbs = self.hb.wb_events[p]
        start = bisect_right(self._wb_idx[p], edge.write.idx)
        wb_ok = any(
            self._wb_covers(wb, edge)
            and (not need_global or self._wb_reaches(wb.op, p))
            for wb in wbs[start:]
        )
        if not wb_ok:
            out.append(self._emit(
                "WB-RACE", edge,
                array=self.trace.array_of(word),
                producer=p, consumer=edge.sink.tid, word=word,
                producer_site=_site(edge.write),
                consumer_site=_site(edge.sink),
                fix=("wb", p, edge.write.idx + 1, edge.sink.tid),
            ))
        if edge.kind == "rw":
            c = edge.sink.tid
            prev = self._prev_same_word_access(edge)
            invs = self.hb.inv_events[c]
            inv_ok = any(
                prev < inv.idx < edge.sink.idx
                and self._inv_covers(inv, edge)
                and (not need_global or self._inv_reaches(inv.op, c))
                for inv in invs
            )
            if not inv_ok:
                out.append(self._emit(
                    "INV-RACE", edge,
                    array=self.trace.array_of(word),
                    producer=p, consumer=c, word=word,
                    producer_site=_site(edge.write),
                    consumer_site=_site(edge.sink),
                    fix=("inv", c, edge.sink.idx, p),
                ))
        return out

    def _check_edge(self, edge: CommEdge) -> list[Finding]:
        """All Table I checks for one communication edge."""
        if not edge.ordered:
            return self._check_racy_edge(edge)
        out = []
        p, c, word = edge.write.tid, edge.sink.tid, edge.word
        array = self.trace.array_of(word)
        need_global = self._cross_block(edge)

        wb, shallow_wb = self._find_wb(edge, need_global=need_global)
        if wb is None:
            if shallow_wb is not None:
                out.append(self._emit(
                    "WB-LEVEL", edge, array=array, producer=p, consumer=c,
                    word=word, producer_site=_site(edge.write),
                    consumer_site=_site(edge.sink),
                    note=f"{shallow_wb.op.mnemonic} stops at the block L2",
                    fix=("wb", p, shallow_wb.idx, c),
                ))
            else:
                rule_id, anchor = self._wb_rule(edge)
                out.append(self._emit(
                    rule_id, edge, array=array, producer=p, consumer=c,
                    word=word, producer_site=_site(edge.write),
                    consumer_site=_site(edge.sink),
                    note="lost update risk" if edge.kind == "ww" else "",
                    fix=("wb", p, anchor, c),
                ))

        if edge.kind == "rw":
            inv, shallow_inv = self._find_inv(edge, need_global=need_global)
            if inv is None:
                if shallow_inv is not None:
                    out.append(self._emit(
                        "INV-LEVEL", edge, array=array, producer=p,
                        consumer=c, word=word,
                        producer_site=_site(edge.write),
                        consumer_site=_site(edge.sink),
                        note=(
                            f"{shallow_inv.op.mnemonic} leaves the stale "
                            "L2 copy"
                        ),
                        fix=("inv", c, shallow_inv.idx, p),
                    ))
                else:
                    rule_id, anchor = self._inv_rule(edge)
                    out.append(self._emit(
                        rule_id, edge, array=array, producer=p, consumer=c,
                        word=word, producer_site=_site(edge.write),
                        consumer_site=_site(edge.sink),
                        fix=("inv", c, anchor, p),
                    ))
        return out

    def check_edges(self) -> None:
        """Check every communication edge, memoizing repeated situations."""
        for edge in self.hb.edges:
            c = edge.sink.tid
            key = (
                edge.write.tid, edge.write.idx, c, edge.word,
                edge.kind, edge.vcp_at_sink,
                bisect_left(self._inv_idx[c], edge.sink.idx),
            )
            prior = self._edge_memo.get(key)
            if prior is not None:
                for finding in prior:
                    finding.count += 1
                continue
            self._edge_memo[key] = self._check_edge(edge)

    # -- redundancy ---------------------------------------------------------

    def check_redundant(self) -> None:
        """Flag explicitly ranged WB/INV ops that provably do nothing."""
        trace = self.trace
        n = trace.num_threads
        written_by: dict[int, int] = {}
        for ev in trace.events:
            if type(ev.op) is isa.Write:
                word = (ev.op.addr // WORD) * WORD
                written_by[word] = written_by.get(word, 0) | (1 << ev.tid)

        shared_sorted = sorted(written_by)

        def range_has_other_writer(tid: int, lo: int, hi: int) -> bool:
            i = bisect_left(shared_sorted, lo)
            j = bisect_left(shared_sorted, hi)
            mask = ~(1 << tid)
            return any(written_by[shared_sorted[k]] & mask for k in range(i, j))

        for tid in range(n):
            events = trace.per_thread[tid]
            dirty: set[int] = set()
            last_read: dict[int, int] = {}
            for ev in events:
                op = ev.op
                if type(op) is isa.Read:
                    last_read[(op.addr // WORD) * WORD] = ev.idx
            read_words = sorted(last_read)

            for ev in events:
                op = ev.op
                kind = type(op)
                if kind is isa.Write:
                    dirty.add((op.addr // WORD) * WORD)
                elif isinstance(op, isa.RANGED_WB_OPS):
                    lo, hi = isa.byte_range(op)  # type: ignore[misc]
                    covered = [w for w in dirty if lo <= w < hi]
                    if covered:
                        dirty.difference_update(covered)
                    else:
                        self._emit(
                            "WB-RED", None,
                            array=self.trace.array_of(lo),
                            producer=tid, consumer=-1, word=lo,
                            producer_site=_site(ev),
                            note="no dirty word in range",
                        )
                elif isinstance(op, isa.ALL_WB_OPS):
                    dirty.clear()
                elif isinstance(op, isa.RANGED_INV_OPS):
                    lo, hi = isa.byte_range(op)  # type: ignore[misc]
                    i = bisect_left(read_words, lo)
                    j = bisect_left(read_words, hi)
                    reads_later = any(
                        last_read[read_words[k]] > ev.idx
                        for k in range(i, j)
                    )
                    if not reads_later:
                        self._emit(
                            "INV-RED", None,
                            array=self.trace.array_of(lo),
                            producer=tid, consumer=-1, word=lo,
                            producer_site=_site(ev),
                            note="no covered word is read afterwards",
                        )
                    elif not range_has_other_writer(tid, lo, hi):
                        self._emit(
                            "INV-RED", None,
                            array=self.trace.array_of(lo),
                            producer=tid, consumer=-1, word=lo,
                            producer_site=_site(ev),
                            note="no covered word is written by another "
                                 "thread",
                        )

    def run(self) -> LintReport:
        """Execute every check and return the sorted report."""
        self.check_edges()
        self.check_redundant()
        self.report.sort()
        return self.report


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def lint_trace(
    trace: KernelTrace, *, name: str = "", config: str = "",
    model: str = "base",
) -> LintReport:
    """Check one extracted kernel trace against the annotation rules.

    ``model`` selects the :class:`~repro.analysis.rules.ModelLintProfile`
    that parameterizes the catalog: findings of waived rules are dropped
    (and counted in ``report.waived``), because that model discharges the
    obligation inside the protocol itself.
    """
    report = _Checker(trace, name, config).run()
    profile = lint_profile(model)
    report.model = profile.model
    if profile.waived:
        kept = [f for f in report.findings if profile.keeps(f.rule_id)]
        report.waived = len(report.findings) - len(kept)
        report.findings = kept
    return report


def lint_machine(
    machine: "Machine", *, name: str = "", config: str = "",
    model: str = "base",
) -> LintReport:
    """Extract and check a prepared (but not yet run) machine.

    ``name``/``config`` label the report only; the machine must already
    have its threads spawned with the annotation config under test.
    ``model`` is passed through to :func:`lint_trace`.
    """
    return lint_trace(extract(machine), name=name, config=config, model=model)
