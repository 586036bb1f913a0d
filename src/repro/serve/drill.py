"""Service-level chaos drill: SIGKILL + cache corruption, zero loss.

``repro serve --chaos-kill`` boots a **real** ``repro serve``
subprocess (journal on, resume on), drives a set of single-cell sweep
jobs (:func:`~repro.serve.loadgen.bench_payloads`) at it from concurrent :class:`~repro.serve.loadgen.ResilientClient` threads,
and — while those clients are mid-flight — repeatedly:

1. ``SIGKILL``\\ s the server (no drain, no goodbye),
2. corrupts random result-cache files on disk (truncation, garbage,
   single-character bitflips, cycling deterministically from one seeded
   stream), and
3. restarts the server with ``--journal DIR --resume``.

The drill then runs a final verification pass that resubmits **every**
payload, forcing a cache read of every cell so no corrupted entry can
hide unread, and proves the durability contract end to end:

- every job completes (clients resubmit idempotently; the journal
  requeues whatever was acknowledged but unfinished),
- every served result is bit-identical to a direct
  :class:`~repro.eval.parallel.SweepExecutor` run, and
- every corrupted cache file was *detected* — quarantined and then
  recomputed (healed on disk) — never silently served.

The report is written to the ``out`` path (``BENCH_chaos_drill.json`` by
default), the repo's resilience record.  Acceptance bar: >= 100 jobs
across >= 3 kill/restart cycles, 100 % complete, 0 divergences,
0 undetected corruptions.  Inputs that would make that bar vacuous (no
jobs, no clients, negative kill or corruption counts) are rejected with
:class:`~repro.common.errors.ConfigError` before anything starts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.eval.cache import payload_digest
from repro.serve.loadgen import (
    EXHAUSTED,
    ResilientClient,
    RetryPolicy,
    bench_payloads,
    _direct_results,
)

#: Corruption modes the drill cycles through (all must be detectable).
CORRUPTION_MODES = ("truncate", "garbage", "bitflip")


def git_rev() -> str:
    """Short git revision of the checkout this package runs from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _src_root() -> str:
    """Directory that must be on PYTHONPATH for ``python -m repro``."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


def _free_port(host: str = "127.0.0.1") -> int:
    """Ask the kernel for an ephemeral port, then release it."""
    import socket

    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class ServerProc:
    """A ``repro serve`` subprocess the drill can kill and resurrect."""

    def __init__(
        self,
        *,
        host: str,
        port: int,
        workers: int,
        cache_dir: str,
        journal_dir: str,
        log_path: str,
        quota: int = 64,
        queue_limit: int = 4096,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_dir = cache_dir
        self.journal_dir = journal_dir
        self.log_path = log_path
        self.quota = quota
        self.queue_limit = queue_limit
        self.proc: subprocess.Popen | None = None
        self.incarnations = 0

    def start(self) -> None:
        """Launch (or relaunch) the server with ``--journal --resume``."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", str(self.port),
            "--workers", str(self.workers),
            "--quota", str(self.quota),
            "--queue-limit", str(self.queue_limit),
            "--cache-dir", self.cache_dir,
            "--journal", self.journal_dir, "--resume",
        ]
        env = os.environ.copy()
        env["PYTHONPATH"] = _src_root() + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.log_path, "a", encoding="utf-8") as log:
            log.write(f"--- incarnation {self.incarnations + 1} ---\n")
            log.flush()
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=log, env=env
            )
        self.incarnations += 1

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until ``/healthz`` answers 200 (raises on timeout)."""
        import http.client

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=2.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"becoming ready (see {self.log_path})"
                )
            time.sleep(0.1)
        raise TimeoutError(f"server not ready within {timeout}s")

    def kill(self) -> None:
        """SIGKILL — the whole point: no drain, no flush, no warning."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self, client: ResilientClient) -> None:
        """Graceful drain via ``POST /v1/shutdown``; SIGTERM fallback."""
        if self.proc is None or self.proc.poll() is not None:
            return
        client.request("POST", "/v1/shutdown", timeout=10.0)
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck drain
            self.proc.terminate()
            self.proc.wait(timeout=10.0)


def corrupt_cache_files(cache_dir: str, count: int, rng) -> list[Path]:
    """Corrupt up to *count* random cache entries; return their paths.

    Modes cycle through :data:`CORRUPTION_MODES` so one drill exercises
    torn writes (truncate), total garbage, and the nastiest case — a
    parseable file whose payload no longer matches its checksum
    (bitflip).  Quarantined files are never re-corrupted.
    """
    files = sorted(
        p for p in Path(cache_dir).rglob("*.json")
        if p.parent.name != "quarantine"
    )
    if not files:
        return []
    picks = rng.choice(
        len(files), size=min(count, len(files)), replace=False
    )
    chosen = [files[int(i)] for i in picks]
    for i, path in enumerate(chosen):
        mode = CORRUPTION_MODES[i % len(CORRUPTION_MODES)]
        raw = path.read_text(encoding="utf-8")
        if mode == "truncate":
            path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        elif mode == "garbage":
            path.write_text("\x00garbage\x00" * 4, encoding="utf-8")
        else:  # bitflip: stays parseable-ish, checksum must catch it
            pos = int(rng.integers(len(raw)))
            flip = "X" if raw[pos] != "X" else "Y"
            path.write_text(raw[:pos] + flip + raw[pos + 1:],
                            encoding="utf-8")
    return chosen


def _classify_corrupted(paths: set[Path]) -> dict:
    """Post-drill verdict per corrupted file: healed, quarantined, or bad."""
    healed = quarantined = undetected = 0
    for path in sorted(paths):
        if not path.exists():
            quarantined += 1  # moved to quarantine/ (or re-put pending)
            continue
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            ok = (
                isinstance(doc, dict)
                and doc.get("sha256") == payload_digest(doc)
            )
        except ValueError:
            ok = False
        if ok:
            healed += 1  # detected, quarantined, recomputed, re-put
        else:
            undetected += 1  # still corrupt in place: was never read back
    return {"healed": healed, "quarantined": quarantined,
            "undetected": undetected}


def chaos_drill(
    *,
    jobs: int = 120,
    kills: int = 3,
    corrupt: int = 6,
    concurrency: int = 16,
    workers: int = 8,
    scale: float = 0.3,
    seed: int = DEFAULT_SEED,
    out: str | None = "BENCH_chaos_drill.json",
    work_dir: str | None = None,
    job_timeout: float = 600.0,
) -> dict:
    """Run the kill/corrupt/resume drill; return the report, written to *out*.

    ``work_dir`` pins the scratch directory (CI uses this to upload the
    journal as an artifact); by default everything lives in a temp dir.
    ``corrupt`` counts cache files corrupted *per kill cycle*.
    """
    # Each count, named by the ``repro serve`` flag that sets it.
    for flag, value, least in (
        ("--jobs-count", jobs, 1), ("--concurrency", concurrency, 1),
        ("--workers", workers, 1), ("--kills", kills, 0),
        ("--corrupt", corrupt, 0),
    ):
        if value < least:
            raise ConfigError(
                f"chaos drill: {flag} must be >= {least} (got {value})"
            )
    if not scale > 0:
        raise ConfigError(f"chaos drill: --scale must be > 0 (got {scale})")
    if work_dir is not None:
        Path(work_dir).mkdir(parents=True, exist_ok=True)
        return _drill(jobs, kills, corrupt, concurrency, workers, scale,
                      seed, out, work_dir, job_timeout)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return _drill(jobs, kills, corrupt, concurrency, workers, scale,
                      seed, out, tmp, job_timeout)


def _drill(
    jobs: int, kills: int, corrupt: int, concurrency: int, workers: int,
    scale: float, seed: int, out: str | None, tmp: str, job_timeout: float,
) -> dict:
    rng = make_rng("chaos-drill", seed)
    payloads = bench_payloads(jobs, scale=scale)
    truth = _direct_results(payloads, f"{tmp}/truth-cache")
    cache_dir = f"{tmp}/serve-cache"
    journal_dir = f"{tmp}/journal"
    host, port = "127.0.0.1", _free_port()
    server = ServerProc(
        host=host, port=port, workers=workers,
        cache_dir=cache_dir, journal_dir=journal_dir,
        log_path=f"{tmp}/server.log",
    )
    policy = RetryPolicy(attempts=12, cap_s=1.0, seed=seed)

    t0 = time.perf_counter()
    server.start()
    server.wait_ready()

    lock = threading.Lock()
    work: list[tuple[int, dict]] = list(enumerate(payloads))
    outcomes: dict[int, dict | None] = {}
    settled = 0
    resubmissions = 0
    retries = 0

    def run_one(client: ResilientClient, payload: dict) -> dict | None:
        """Drive one payload to a terminal result, resubmitting as needed.

        Resubmission is the recovery protocol: a 404 poll (job finished
        + compacted before we saw it), a drain-cancelled job, or an
        exhausted retry budget (server down longer than one backoff
        budget) all loop back to an idempotent resubmit.
        """
        nonlocal resubmissions
        deadline = time.monotonic() + job_timeout
        first = True
        while time.monotonic() < deadline:
            if not first:
                with lock:
                    resubmissions += 1
            first = False
            status, doc = client.request(
                "POST", "/v1/jobs", payload, client=payload["client"]
            )
            if status in (429, 503, EXHAUSTED):
                continue  # budget exhausted mid-outage: keep trying
            if status != 200:
                return {"state": "failed",
                        "error": f"submit HTTP {status}: {doc}"}
            try:
                final = client.wait(doc["id"], timeout=120.0)
            except TimeoutError:
                continue  # stuck job: resubmit dedupes onto it
            if final is None or final["state"] == "cancelled":
                continue  # vanished across a crash, or drain-cancelled
            return final
        return None  # pragma: no cover - drill-level hang guard

    def drain(idx: int) -> None:
        nonlocal settled, retries
        client = ResilientClient(host, port, policy=policy,
                                 stream=f"chaos-{idx}")
        while True:
            with lock:
                if not work:
                    break
                i, payload = work.pop()
            final = run_one(client, payload)
            with lock:
                outcomes[i] = final
                settled += 1
        with lock:
            retries += client.retries

    threads = [
        threading.Thread(target=drain, args=(i,), name=f"chaos-client-{i}")
        for i in range(concurrency)
    ]
    for th in threads:
        th.start()

    # -- the chaos controller: kill, corrupt, resume -----------------------
    corrupted: set[Path] = set()
    kills_done = 0
    recovered_total = 0
    deduped_observed = 0
    metrics_client = ResilientClient(host, port, policy=policy,
                                     stream="chaos-metrics")
    for k in range(kills):
        target = (k + 1) * jobs // (kills + 1)
        pace_deadline = time.monotonic() + 120.0
        while time.monotonic() < pace_deadline:
            with lock:
                progressed, left = settled, len(work)
            if progressed >= target or (left == 0 and progressed >= jobs):
                break
            time.sleep(0.05)
        server.kill()
        kills_done += 1
        corrupted.update(corrupt_cache_files(cache_dir, corrupt, rng))
        server.start()
        server.wait_ready()
        status, met = metrics_client.request("GET", "/v1/metrics")
        if status == 200:
            recovered_total += met["durability"]["recovered_jobs"]

    for th in threads:
        th.join()

    # -- final verification pass: every cell re-read through the cache -----
    verify_failures = 0
    divergences = 0
    verify_client = ResilientClient(host, port, policy=policy,
                                    stream="chaos-verify")
    for i, payload in enumerate(payloads):
        final = outcomes.get(i)
        spec = payload["spec"]
        app, cfg = spec["apps"][0], spec["configs"][0]
        key = f"{app}/{cfg}/t{spec['num_threads']}"
        if final is None or final["state"] != "done":
            verify_failures += 1
        elif final["result"]["matrix"][app][cfg] != truth[key]:
            divergences += 1
        # Hot resubmit: forces a cache read of this cell, so a corrupt
        # entry is detected (quarantined + recomputed) rather than
        # lurking unread — and the served result is re-verified.
        hot = run_one(verify_client, payload)
        if hot is None or hot["state"] != "done":
            verify_failures += 1
        elif hot["result"]["matrix"][app][cfg] != truth[key]:
            divergences += 1

    status, met = metrics_client.request("GET", "/v1/metrics")
    cache_counters = met.get("cache") if status == 200 else None
    if status == 200:
        # recovered_jobs for this incarnation was already sampled right
        # after its restart; only the deduped count accrues afterwards.
        deduped_observed += met["durability"]["deduped_jobs"]
    server.stop(metrics_client)

    verdict = _classify_corrupted(corrupted)
    completed = sum(
        1 for f in outcomes.values()
        if f is not None and f["state"] == "done"
    )
    seconds = time.perf_counter() - t0
    doc = {
        "name": "chaos_drill",
        "git_rev": git_rev(),
        "jobs": jobs,
        "completed": completed,
        "kills": kills_done,
        "incarnations": server.incarnations,
        "corrupted_files": len(corrupted),
        "corrupt_healed": verdict["healed"],
        "corrupt_quarantined": verdict["quarantined"],
        "corrupt_undetected": verdict["undetected"],
        "failures": verify_failures,
        "divergences": divergences,
        "retries": retries,
        "resubmissions": resubmissions,
        "recovered_jobs_observed": recovered_total,
        "deduped_jobs_observed": deduped_observed,
        "cache_counters": cache_counters,
        "concurrency": concurrency,
        "workers": workers,
        "scale": scale,
        "seed": seed,
        "seconds": round(seconds, 3),
        "journal_dir": journal_dir,
        "ok": (
            completed == jobs
            and verify_failures == 0
            and divergences == 0
            and verdict["undetected"] == 0
            and kills_done >= kills
        ),
    }
    if out:
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc
