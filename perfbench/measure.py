"""Measurement helpers shared by every perfbench workload.

Everything here observes the simulator from outside: spans are taken in
the benchmark's own code around calls into a layer's public functions,
and self time comes from :mod:`cProfile`.  Nothing attaches the
simulator's own ``Tracer``/``Metrics`` sinks, which would switch the fast
engine onto its reference loop and so change the run being measured.
"""

from __future__ import annotations

import cProfile
import contextlib
import hashlib
import heapq
import json
import math
import pstats
import re
import sys
import threading
import time

#: Candidate tail percentiles, lowest first.  The reported tail is the
#: highest one, up to a workload's fixed ceiling, that still leaves at
#: least :data:`MIN_BEYOND` samples above it, so it is never a single
#: outlier.  The ceiling keeps the percentile from rising when a faster
#: program fits more samples into the same run.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

#: Packages under ``repro`` whose cProfile self time is reported.
PACKAGES = (
    "engines", "coherence", "models", "core", "workloads", "compiler", "mem",
    "isa", "sim", "sync", "noc", "eval", "serve",
)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of *samples* (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    return ordered[max(1, _rank(q, len(ordered))) - 1]


def _rank(q: float, n: int) -> int:
    """Nearest rank of percentile *q* among *n* samples, in exact arithmetic.

    Percentiles are whole tenths, so ``ceil(q * n / 100)`` is computed on
    integers and ``p90`` of 100 samples is rank 90, not 91.
    """
    return -(-round(q * 10) * n // 1000)


def tail_percentile(n: int, ceiling: float = TAIL_LADDER[-1]) -> float:
    """Highest ladder percentile <= *ceiling* with ten of *n* samples beyond it.

    Falls back to the median when even the median has fewer than ten
    samples above it; the caller prints the percentile it used either way.
    """
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if q <= ceiling and n - _rank(q, n) >= MIN_BEYOND:
            best = q
    return best


def latency_summary(samples_s, ceiling: float) -> dict:
    """Median and tail (milliseconds) with the percentile and sample count."""
    q = tail_percentile(len(samples_s), ceiling)
    return {
        "p50_ms": percentile(samples_s, 50.0) * 1e3,
        "tail_ms": percentile(samples_s, q) * 1e3,
        "tail_pct": q,
        "samples": len(samples_s),
    }


def geomean(values) -> float:
    """Geometric mean of positive *values*."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fingerprint(stats_by_cell: dict) -> str:
    """sha256 over each cell's ``MachineStats.to_dict()``, keyed by cell id."""
    blob = json.dumps(stats_by_cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Seconds :func:`reference_work` takes on the nominal host.  Host-time
#: metrics are reported in nominal seconds: each measured interval is
#: scaled by ``REF_SECONDS`` over the reference loop's time measured right
#: before and right after it.  The shared machines this benchmark runs on
#: switch between a fast and a ~1.7x slower state every few seconds; the
#: scaling cancels that while still counting every change in the program's
#: own speed, because the reference loop runs none of the program's code.
#: ``REF_SECONDS`` is the loop's time in the fast state of a 2-vCPU x86-64
#: virtual machine under CPython 3.11.
REF_SECONDS = 0.0035


def _ref_core(n: int, seed: int):
    x = seed
    addr = 0
    while n > 0:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (addr + (x & 0xFF)) & 0xFFFF if x & 3 else x & 0xFFFF
        yield addr, bool(x & 8)
        n -= 1


class _RefLine:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False
        self.stamp = 0


def reference_work(ops: int = 3000) -> int:
    """A fixed event-driven cache-model loop, independent of the program.

    It exercises what the simulator's hot paths do (a heap of events,
    generators resumed with ``send``, slotted objects, dict lookups) so
    that it slows down with the host the way the simulator does.  Never
    change it: every nominal-second figure is relative to it.
    """
    lines: dict[int, _RefLine] = {}
    events: list = []
    cores = [_ref_core(ops // 4, s) for s in range(4)]
    for i, core in enumerate(cores):
        heapq.heappush(events, (0, i, next(core)))
    hits = 0
    while events:
        t, i, (addr, write) = heapq.heappop(events)
        idx = (addr >> 6) & 255
        line = lines.get(idx)
        if line is not None and line.tag == addr >> 14:
            hits += 1
            lat = 1
        else:
            lines[idx] = line = _RefLine(addr >> 14)
            lat = 20
        line.stamp = t
        if write:
            line.dirty = True
        try:
            heapq.heappush(events, (t + lat, i, cores[i].send(lat)))
        except StopIteration:
            pass
    return hits


def reference_time() -> float:
    """Seconds :func:`reference_work` takes right now: the faster of two runs.

    One run is a few milliseconds, so a single interrupt or garbage
    collection can double it; the faster of two is immune to one such
    hiccup.
    """
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return min(times)


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    """*seconds* measured between two reference times, in nominal seconds."""
    return seconds * REF_SECONDS * 2 / (ref_before + ref_after)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


class Spans:
    """In-memory span recorder: (name, start, end, parent, cell).

    Times are seconds since the recorder was created.  Spans are only kept
    in memory while the benchmark runs; :meth:`write` saves them when it
    ends.  A disabled recorder hands out a no-op context, so untraced runs
    share the traced code path at the cost of one attribute test.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.t0_wall = time.time()
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _open(self, name: str, cell: str | None):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.records[parent]["cell"]
        rec = {"name": name, "start": time.perf_counter() - self.t0,
               "end": None, "parent": parent, "cell": cell}
        self.records.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def span(self, name: str, cell: str | None = None):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._open(name, cell)

    def add_wall(
        self, name: str, start_wall: float, end_wall: float,
        parent: int | None, cell: str | None,
    ) -> int:
        """Record a span measured elsewhere on the ``time.time()`` clock."""
        self.records.append({
            "name": name,
            "start": start_wall - self.t0_wall,
            "end": end_wall - self.t0_wall,
            "parent": parent,
            "cell": cell,
        })
        return len(self.records) - 1

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def write(self, path) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

#: Built-in calls that block the calling thread: lock, event and
#: work-queue waits, selector polls, sleeps and socket reads.  Their self
#: time is idle time.
BLOCKING = re.compile(
    r"'(acquire|poll|select|recv|recv_into|connect)' of"
    r"|'get' of '_queue\.SimpleQueue'|time\.sleep")


class ThreadProfiler:
    """cProfile over the calling thread and every thread started later.

    ``cProfile`` only sees the thread that enabled it; the job server runs
    its event loop and workers on threads of their own, so each new thread
    gets its own profiler through :func:`threading.setprofile`.  Time a
    thread spends blocked (see :data:`BLOCKING`) is waiting, not work, and
    is left out of ``builtins``.
    """

    def __init__(self) -> None:
        self.profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _bootstrap(self, frame, event, arg) -> None:
        sys.setprofile(None)
        prof = cProfile.Profile()
        with self._lock:
            self.profiles.append(prof)
        prof.enable()

    def __enter__(self) -> "ThreadProfiler":
        threading.setprofile(self._bootstrap)
        main = cProfile.Profile()
        self.profiles.append(main)
        main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiles[0].disable()
        threading.setprofile(None)

    def self_seconds(self) -> dict[str, float]:
        """Self time grouped by ``repro.<pkg>`` plus ``builtins``."""
        totals = dict.fromkeys(PACKAGES + ("builtins",), 0.0)
        with self._lock:
            profiles = list(self.profiles)
        for prof in profiles:
            for (filename, _line, func), row in pstats.Stats(prof).stats.items():
                group = package_of(filename)
                if group == "builtins" and BLOCKING.search(func):
                    continue
                if group is not None:
                    totals[group] += row[2]
        return totals


def package_of(filename: str) -> str | None:
    """``repro.<pkg>`` (or ``builtins``) that a profiled code object is in."""
    if filename == "~":
        return "builtins"
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2):
        if parts[i] == "src" and parts[i + 1] == "repro":
            pkg = parts[i + 2]
            return pkg if pkg in PACKAGES else None
    return None
