"""``serve_mix``: a closed loop of two clients against an in-process job server.

The server (``repro serve``'s :class:`~repro.serve.server.JobServer`) runs
with two workers, the write-ahead journal and the result cache on, all
under a scratch directory of this run.  Each client submits seeded
single-cell ``gen`` jobs one at a time and waits for each job's terminal
event on ``/v1/jobs/ID/events`` before submitting the next, so at most
two connections are open at once.  Half of every client's jobs repeat a
scenario that client has already had served (a result-cache read); the
other half are fresh (simulate, then cache write).

Latency runs from submit to the terminal event, read from the event
stream rather than by polling.  After the timed loop every served result
is compared bit-for-bit with a direct ``run_gen`` of the same spec.
"""

from __future__ import annotations

import http.client
import json
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from statistics import median

from measure import (
    Spans,
    ThreadProfiler,
    fingerprint,
    geomean,
    latency_summary,
    nominal,
    reference_time,
)
from report import Outcome
from sim import CellRun, layer_metrics

from repro.common.rng import make_rng
from repro.core.config import INTRA_HCC, intra_config
from repro.core.machine import Machine
from repro.serve.loadgen import LocalServer
from repro.serve.server import ServerConfig
from repro.workloads.gen import (
    build_scenario,
    gen_machine_params,
    run_gen,
    sample_specs,
    spawn_scenario,
    verify_scenario,
)

CLIENTS = 2
WORKERS = 2
#: Jobs each client submits per pass: alternately fresh and repeated.
JOBS_PER_CLIENT = 48
#: Passes every run makes; their scenarios define ``sim_norm_exec`` and the
#: fingerprint, so those depend on the seed alone.
HEAD_PASSES = 3
#: Highest tail percentile reported: p95 needs 200 jobs, which a run serves
#: even on a slow host; p99 would need 1000, which it may not.
TAIL_CEILING = 95.0
CONFIGS = ("Base", "B+M", "B+I", "B+M+I")
ENGINE = "fast"
TERMINAL = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class GenJob:
    """One single-cell ``gen`` job: a scenario under one configuration."""

    spec: object  # ScenarioSpec
    config: str
    repeat: bool = False

    @property
    def id(self) -> str:
        return f"{self.spec.name}/{self.config}"

    def payload(self) -> dict:
        return {"kind": "gen", "spec": {
            **self.spec.to_dict(), "configs": [self.config], "engine": ENGINE}}


@dataclass
class JobRecord:
    """What the client saw of one job."""

    job: GenJob
    op: str
    latency_s: float = 0.0
    submit_s: float = 0.0
    submit_wall: float = 0.0
    recv_wall: float = 0.0
    rejected: int = 0
    detail: dict = field(default_factory=dict)
    error: str | None = None


def job_lists(seed: int, pass_idx: int) -> list[list[GenJob]]:
    """Each client's jobs for one pass, drawn from *seed* alone."""
    lists = []
    for client in range(CLIENTS):
        rng = make_rng(f"perfbench.serve_mix.p{pass_idx}.c{client}", seed)
        specs = sample_specs(JOBS_PER_CLIENT // 2,
                             seed=int(rng.integers(0, 2**31)))
        fresh: list[GenJob] = []
        jobs: list[GenJob] = []
        for spec in specs:
            job = GenJob(spec, CONFIGS[int(rng.integers(len(CONFIGS)))])
            fresh.append(job)
            jobs.append(job)
            again = fresh[int(rng.integers(len(fresh)))]
            jobs.append(replace(again, repeat=True))
        lists.append(jobs)
    return lists


def _request(port: int, method: str, path: str, body=None, client=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"}
        if client is not None:
            headers["X-Repro-Client"] = client
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _await_terminal(port: int, job_id: str) -> tuple[str | None, float, float]:
    """Read the job's event stream up to its terminal state event.

    Returns the state and the ``perf_counter``/wall times it arrived.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        resp = conn.getresponse()
        while True:
            line = resp.readline()
            if not line:
                return None, time.perf_counter(), time.time()
            event = json.loads(line.decode())
            if event.get("event") == "state" and event.get("state") in TERMINAL:
                arrived = time.perf_counter(), time.time()
                resp.read()
                return (event["state"], *arrived)
    finally:
        conn.close()


def _client(port: int, name: str, jobs: list[GenJob], pass_idx: int,
            out: list[JobRecord]) -> None:
    for slot, job in enumerate(jobs):
        rec = JobRecord(job, f"p{pass_idx}/{name}/{slot} {job.id}")
        try:
            t0 = time.perf_counter()
            rec.submit_wall = time.time()
            status, doc = _request(port, "POST", "/v1/jobs", job.payload(), name)
            while status in (429, 503) and rec.rejected < 100:
                rec.rejected += 1
                time.sleep(0.01)
                status, doc = _request(port, "POST", "/v1/jobs",
                                       job.payload(), name)
            if status != 200:
                raise RuntimeError(f"submit: HTTP {status}: {doc}")
            rec.submit_s = time.perf_counter() - t0
            state, t1, rec.recv_wall = _await_terminal(port, doc["id"])
            rec.latency_s = t1 - t0
            status, rec.detail = _request(port, "GET", f"/v1/jobs/{doc['id']}")
            if state != "done" or status != 200:
                rec.error = f"job {state}: {rec.detail.get('error')}"
        except (OSError, RuntimeError, ValueError, http.client.HTTPException) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        out.append(rec)


def run_pass(port: int, seed: int, pass_idx: int) -> tuple[list[JobRecord], float]:
    """One closed-loop pass; returns its records and wall seconds."""
    out: list[JobRecord] = []
    threads = [
        threading.Thread(target=_client, name=f"perfbench-client-{c}",
                         args=(port, f"client{c}", jobs, pass_idx, out))
        for c, jobs in enumerate(job_lists(seed, pass_idx))
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
        if t.is_alive():
            raise TimeoutError(f"{t.name} did not finish")
    return out, time.perf_counter() - t0


def start_server(workdir: str) -> LocalServer:
    """An in-process server: two workers, journal and result cache on."""
    server = LocalServer(ServerConfig(
        workers=WORKERS,
        cache_dir=f"{workdir}/cache",
        journal_dir=f"{workdir}/journal",
    ))
    server.__enter__()
    return server


def run_gen_cell(job: GenJob, spans: Spans) -> CellRun:
    """``run_gen``'s steps, each timed as a span (traced runs only)."""
    run = CellRun(job, 0.0)
    spec = job.spec
    with spans.span("cell", job.id):
        with spans.span("core.build"):
            machine = Machine(gen_machine_params(spec), intra_config(job.config),
                              num_threads=spec.threads, engine=ENGINE)
        with spans.span("workloads.prepare"):
            scenario = build_scenario(spec)
            arrays = spawn_scenario(machine, scenario)
        with spans.span("sim.run"):
            run.stats = machine.run()
        run.events = machine.engine.events_scheduled
        with spans.span("workloads.verify"):
            verify_scenario(machine, scenario, arrays)
    return run


def check(records: list[JobRecord]) -> dict[str, str]:
    """Compare every served result with a direct ``run_gen`` of its spec."""
    direct: dict[str, dict] = {}
    failures = {}
    for rec in records:
        if rec.error is not None:
            failures[rec.op] = rec.error
            continue
        job = rec.job
        if job.id not in direct:
            direct[job.id] = run_gen(job.spec, intra_config(job.config),
                                     memory_digest=True, engine=ENGINE).to_dict()
        result = rec.detail.get("result", {})
        served = result.get("cells", {}).get(job.config)
        if served != direct[job.id]:
            failures[rec.op] = "served result differs from direct run_gen"
        elif not result.get("coherent"):
            failures[rec.op] = "served result not coherent across configs"
    return failures


def norm_exec(records: list[JobRecord]) -> float:
    """Geomean over distinct scenarios of exec_time(config) / exec_time(HCC)."""
    ratios = {}
    for rec in records:
        job = rec.job
        if job.id in ratios or rec.error is not None:
            continue
        served = rec.detail["result"]["cells"][job.config]["stats"]["exec_time"]
        hcc = run_gen(job.spec, INTRA_HCC, engine=ENGINE).exec_time
        ratios[job.id] = served / hcc
    return geomean(ratios.values())


def _serve_layers(records: list[JobRecord], spans: Spans) -> dict[str, float]:
    """serve.* and eval.* per-layer metrics from one pass's records."""
    ok = [r for r in records if r.error is None]
    hit = [r for r in ok if r.detail["cache_hits"]]
    miss = [r for r in ok if not r.detail["cache_hits"]]
    for r in ok:
        d = r.detail
        job = spans.add_wall("serve.job", r.submit_wall, r.recv_wall, None, r.op)
        spans.add_wall("serve.submit", r.submit_wall,
                       r.submit_wall + r.submit_s, job, r.op)
        spans.add_wall("serve.queue_wait", d["created"], d["started"], job, r.op)
        spans.add_wall("serve.unit", d["started"], d["finished"], job, r.op)
        spans.add_wall("serve.notify", d["finished"], r.recv_wall, job, r.op)

    def med_ms(rs, fn):
        return median([fn(r) for r in rs]) * 1e3 if rs else 0.0

    hits = sum(r.detail["cache_hits"] for r in ok)
    misses = sum(r.detail["cache_misses"] for r in ok)
    return {
        "serve.submit_ms": med_ms(ok, lambda r: r.submit_s),
        "serve.queue_wait_ms": med_ms(
            ok, lambda r: r.detail["started"] - r.detail["created"]),
        "serve.unit_ms_hit": med_ms(
            hit, lambda r: r.detail["finished"] - r.detail["started"]),
        "serve.unit_ms_miss": med_ms(
            miss, lambda r: r.detail["finished"] - r.detail["started"]),
        "serve.notify_ms": med_ms(
            ok, lambda r: r.recv_wall - r.detail["finished"]),
        "eval.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.retries": sum(r.detail["retries"] for r in ok),
        "serve.rejected": sum(r.rejected for r in records),
    }


def served_pass(seed: int, pass_idx: int, workdir: str):
    """One pass against a fresh server: empty result cache, new journal.

    Returns the records, the pass's wall seconds and the factor that turns
    its host times into nominal seconds (from the reference loop run just
    before and just after the pass).
    """
    server = start_server(f"{workdir}/p{pass_idx}")
    try:
        before = reference_time()
        records, wall = run_pass(server.port, seed, pass_idx)
        return records, wall, nominal(1.0, before, reference_time())
    finally:
        server.close()


def measure(seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    """Run closed-loop passes for about *seconds* and report on them.

    Every pass gets a fresh server, so each one starts from an empty result
    cache and holds only its own jobs.  Untraced, passes repeat (at least
    :data:`HEAD_PASSES`) while the next one is expected to end within
    *seconds*.  Traced, exactly :data:`HEAD_PASSES` passes run: the first
    records spans and the last runs under cProfile, on a server started
    inside the profiler so that the server's threads are profiled too.
    """
    spans = Spans(enabled=trace)
    head: list[list[JobRecord]] = []
    failures: dict[str, str] = {}
    latencies: list[float] = []
    walls: list[float] = []
    nominal_walls: list[float] = []
    jobs = 0
    profiler = None
    workdir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    try:
        while True:
            if trace and len(walls) == HEAD_PASSES - 1:
                with ThreadProfiler() as profiler:
                    records, wall, scale = served_pass(seed, len(walls), workdir)
            else:
                records, wall, scale = served_pass(seed, len(walls), workdir)
            walls.append(wall)
            nominal_walls.append(wall * scale)
            # Checked pass by pass, and only the head passes' records kept,
            # so the benchmark's own memory does not grow with run length.
            failures.update(check(records))
            latencies += [r.latency_s * scale for r in records
                          if r.error is None]
            jobs += len(records)
            if len(head) < HEAD_PASSES:
                head.append(records)
            if len(walls) >= HEAD_PASSES and (
                    trace or sum(walls) + median(walls) > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    served = [r for records in head for r in records if r.error is None]
    norm = norm_exec(served)
    outcome = Outcome("serve_mix", attempted=jobs, failures=failures)
    outcome.fingerprint = fingerprint({
        r.job.id: r.detail["result"]["cells"][r.job.config]["stats"]
        for r in served})
    outcome.notes += [
        f"closed loop: {CLIENTS} clients x {JOBS_PER_CLIENT} jobs per pass, "
        f"{len(walls)} pass(es), server workers={WORKERS}, journal on",
        f"sim_norm_exec = {norm:.6f} (simulated time, scenarios of the first "
        f"{HEAD_PASSES} passes vs HCC); generated scenarios have no paper "
        "figure",
        "every served result compared bit-for-bit with a direct run_gen",
    ]
    if trace:
        cells = {r.job.id: r.job for r in served}
        runs = [run_gen_cell(job, spans) for job in cells.values()]
        outcome.per_layer = layer_metrics(spans, runs, profiler, walls)
        outcome.per_layer.update(_serve_layers(head[0], spans))
        outcome.spans = spans
        return outcome

    lat = latency_summary(latencies, TAIL_CEILING)
    outcome.end_to_end = {
        "wall_s": median(nominal_walls),
        "jobs_per_s": jobs / sum(nominal_walls),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "sim_norm_exec": norm,
    }
    outcome.notes += [
        f"latency: submit to terminal event, tail = p{lat['tail_pct']:g} "
        f"over {lat['samples']} samples",
        f"host times in nominal seconds; measured wall_s = "
        f"{median(walls):.3f} s (host at "
        f"{sum(walls) / sum(nominal_walls):.2f}x nominal)",
    ]
    return outcome

