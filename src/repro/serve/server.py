"""Asyncio HTTP/JSON job server over the sweep engine (``repro serve``).

Simulation-as-a-service: many concurrent clients submit sweep / gen /
litmus / chaos / lint / fleet jobs to one process, which validates each
request against the versioned job schema (:mod:`repro.serve.jobs`),
shards its work units across a bounded worker pool
(:mod:`repro.serve.pool`), and fronts everything with the persistent
content-addressed result cache — so identical requests, from any number
of clients, simulate exactly once.

The API (full reference with curl examples in ``docs/SERVICE.md``)::

    GET  /healthz                 liveness + drain state
    GET  /v1/schema               job-schema version, kinds, states
    GET  /v1/metrics              queue depth, jobs in flight, latency
                                  histograms (repro.obs.Metrics snapshot)
    GET  /v1/jobs[?client=NAME]   job summaries, newest first
    POST /v1/jobs                 submit one job document
    GET  /v1/jobs/ID              full status (+ result when terminal)
    POST /v1/jobs/ID/cancel       request cancellation
    GET  /v1/jobs/ID/events       chunked JSONL progress stream
    POST /v1/shutdown             graceful drain + exit

Lifecycle: ``queued -> running -> done | failed | cancelled`` (with a
transient ``cancelling`` while in-flight units drain).  Admission control
is two-layered: a per-client active-job quota and a global
queued+in-flight unit ceiling (backpressure); both reject with HTTP 429
so a well-behaved client backs off instead of queueing unboundedly.
Progress streams are JSON lines in the same one-object-per-line
discipline as the :mod:`repro.obs` trace schema, and server metrics live
in a :class:`repro.obs.metrics.Metrics` registry (power-of-two latency
histograms included) snapshotted at ``/v1/metrics``.

The HTTP layer is deliberately minimal stdlib asyncio — request/response
with ``Content-Length`` bodies, chunked transfer for event streams,
connection-per-request — because the repo bakes in no server framework
and the job API needs nothing more.

Durability (``--journal DIR``): every lifecycle transition is appended
to a fsync'd write-ahead journal (:mod:`repro.serve.journal`) *before*
the client sees the matching response, and ``--resume`` replays it at
startup — interrupted jobs are requeued under their original ids (their
finished units come back as cache hits) and identical resubmissions are
deduped onto the live job by canonical digest, so ``kill -9`` loses no
acknowledged work.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import ConfigError
from repro.eval.cache import ResultCache
from repro.obs.metrics import Metrics
from repro.serve.jobs import (
    JOB_KINDS,
    JOB_SCHEMA,
    JOB_STATES,
    TERMINAL_STATES,
    CompiledJob,
    JobError,
    check_admission,
    compile_job,
)
from repro.serve.journal import Journal, RecoveredJob, job_digest
from repro.serve.pool import UnitOutcome, WorkerFaultPlan, WorkerPool, WorkItem

#: Largest request body the server will read (a job document is tiny).
MAX_BODY_BYTES = 1 << 20

#: Client identity used when neither header nor body names one.
ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` is configured by (CLI flags mirror this)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is JobServer.port
    workers: int = 4
    quota: int = 8  # active (queued/running) jobs per client
    queue_limit: int = 512  # global queued+in-flight unit ceiling
    timeout: float | None = None  # per-unit wall-clock budget (seconds)
    retries: int = 1
    cache: bool = True
    cache_dir: str | None = None  # None = $REPRO_CACHE_DIR / default
    faults: WorkerFaultPlan | None = None  # serve-layer fault injection
    journal_dir: str | None = None  # None = no write-ahead journal
    resume: bool = False  # replay the journal and requeue open jobs

    def __post_init__(self) -> None:
        """Reject a setting that would break every job (or bind elsewhere)."""
        for name, ok, rule in (
            ("port", 0 <= self.port <= 65535, "be in 0..65535"),
            ("workers", self.workers >= 1, "be >= 1"),
            ("retries", self.retries >= 0, "be >= 0"),
            ("quota", self.quota >= 1, "be >= 1"),
            ("queue_limit", self.queue_limit >= 1, "be >= 1"),
            ("timeout", self.timeout is None or self.timeout > 0, "be > 0"),
        ):
            if not ok:
                raise ConfigError(
                    f"{name} must {rule} (got {getattr(self, name)!r})"
                )


class Job:
    """One submitted job: units, lifecycle state, counters, event log."""

    def __init__(
        self,
        job_id: str,
        client: str,
        compiled: CompiledJob,
        digest: str = "",
    ) -> None:
        self.id = job_id
        self.client = client
        self.digest = digest
        self.recovered = False
        self.kind = compiled.kind
        self.spec = compiled.spec
        self.description = compiled.description
        self.units = compiled.units
        self.finalize = compiled.finalize
        self.state = "queued"
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.outcomes: list[UnitOutcome | None] = [None] * len(self.units)
        self.done_units = 0
        self.failed_units = 0
        self.skipped_units = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulated = 0
        self.retries = 0
        self.cancel_requested = False
        self.error: str | None = None
        self.result: dict | None = None
        self.events: list[dict] = []
        self._event_signal = asyncio.Event()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def terminal(self) -> bool:
        """True once the job reached done/failed/cancelled."""
        return self.state in TERMINAL_STATES

    @property
    def active(self) -> bool:
        """True while the job holds quota (anything non-terminal)."""
        return not self.terminal

    @property
    def settled_units(self) -> int:
        """Units that finished, failed, or were skipped."""
        return self.done_units + self.failed_units + self.skipped_units

    def emit(self, event: dict) -> None:
        """Append one progress event and wake every streamer."""
        event.setdefault("job", self.id)
        event["seq"] = len(self.events)
        event["ts"] = round(time.time(), 6)
        self.events.append(event)
        self._event_signal.set()

    async def next_events(self, cursor: int) -> int:
        """Block until there are events past *cursor*; return the new length."""
        while cursor >= len(self.events):
            if self.terminal:
                break
            self._event_signal.clear()
            if cursor < len(self.events):
                break
            await self._event_signal.wait()
        return len(self.events)

    # -- JSON views ----------------------------------------------------------

    def summary(self) -> dict:
        """The list-endpoint view: identity, state, progress, counters."""
        return {
            "id": self.id,
            "kind": self.kind,
            "client": self.client,
            "state": self.state,
            "description": self.description,
            "units": len(self.units),
            "done_units": self.done_units,
            "failed_units": self.failed_units,
            "skipped_units": self.skipped_units,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "retries": self.retries,
            "created": round(self.created, 6),
            "started": round(self.started, 6) if self.started else None,
            "finished": round(self.finished, 6) if self.finished else None,
            "error": self.error,
        }

    def detail(self) -> dict:
        """The per-job view: summary + spec + result document when done."""
        doc = self.summary()
        doc["spec"] = self.spec
        doc["digest"] = self.digest
        doc["recovered"] = self.recovered
        doc["events"] = len(self.events)
        if self.result is not None:
            doc["result"] = self.result
        return doc


class JobServer:
    """The asyncio job server: job table + worker pool + HTTP front end."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        cache = (
            ResultCache(self.config.cache_dir) if self.config.cache else None
        )
        self.pool = WorkerPool(
            workers=self.config.workers,
            cache=cache,
            timeout=self.config.timeout,
            retries=self.config.retries,
            faults=self.config.faults,
        )
        self.jobs: dict[str, Job] = {}
        self.metrics = Metrics()
        self.started_at = time.time()
        self.port: int | None = None
        self.journal = (
            Journal(self.config.journal_dir)
            if self.config.journal_dir
            else None
        )
        self.recovered_jobs = 0
        self.deduped_jobs = 0
        self.recovery: dict = {}
        self._seq = itertools.count(1)
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()
        self._completions: set[asyncio.Task] = set()
        self._active_streams = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and spawn the worker pool.

        With a journal configured, recovery runs first — before the
        listener binds — so resubmissions arriving the instant the port
        opens already dedupe against the requeued jobs.
        """
        await self.pool.start()
        if self.journal is not None:
            self._recover()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` completes."""
        assert self._server is not None, "call start() first"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, cancel queued.

        Completion tasks are gathered and in-flight event streams given a
        bounded window to deliver their final chunk, so a streaming
        client sees a clean terminator rather than a reset mid-chunk.
        Jobs interrupted by the drain are *not* journaled as finalized —
        the next ``--resume`` requeues them.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.stop()
        # Any job not yet terminal had pending units dropped by pool.stop()
        # (reason "shutdown"); _unit_done settled them into "cancelled" via
        # _complete tasks that may not have run yet — finish them now so
        # every job is terminal and every streamer can reach its end.
        while self._completions:
            await asyncio.gather(
                *list(self._completions), return_exceptions=True
            )
        try:
            await asyncio.wait_for(self._streams_idle(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - stuck client
            pass
        if self.journal is not None:
            self.journal.close()
        self._stopped.set()

    async def _streams_idle(self) -> None:
        """Resolve once no chunked event stream is still being written."""
        while self._active_streams:
            await asyncio.sleep(0.01)

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.config.host}:{self.port}"

    # -- recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Replay (or rotate) the journal before the listener binds.

        ``--resume``: fold the journal, continue the job-id sequence past
        everything ever issued, compact finished history away, and
        requeue every non-finalized job under its original id.  Without
        ``--resume`` any existing journal is rotated aside so a fresh
        run never splices onto unrecovered history.
        """
        assert self.journal is not None
        if not self.config.resume:
            self.journal.rotate_stale()
            self.journal.open()
            return
        state = self.journal.replay()
        self.recovery = state.counters()
        self._seq = itertools.count(state.max_seq + 1)
        self.journal.compact(state)
        self.journal.open()
        for rjob in state.open_jobs.values():
            self._requeue(rjob)

    def _requeue(self, rjob: RecoveredJob) -> None:
        """Re-admit one journaled job under its original id."""
        assert self.journal is not None
        try:
            compiled = compile_job(rjob.payload)
        except Exception as exc:  # noqa: BLE001 - journaled, not re-raised
            # The payload compiled when first admitted; failing now means
            # the schema moved underneath the journal.  Finalize it as
            # failed rather than looping on it forever.
            self.metrics.inc("serve.jobs.recovery_failed")
            self.journal.append({
                "rec": "finalized", "id": rjob.id, "state": "failed",
                "error": f"recovery: {type(exc).__name__}: {exc}",
            })
            return
        job = Job(rjob.id, rjob.client, compiled, digest=rjob.digest)
        job.recovered = True
        if rjob.cancel_requested:
            job.cancel_requested = True
            job.state = "cancelling"
        self.jobs[job.id] = job
        self.recovered_jobs += 1
        self.metrics.inc("serve.jobs.recovered")
        job.emit({"event": "state", "state": job.state, "kind": job.kind,
                  "units": len(job.units), "recovered": True})
        self._enqueue(job)

    # -- job orchestration ---------------------------------------------------

    def _submit(self, payload: Any, client: str) -> tuple[Job, bool]:
        """Validate, admit, register, and enqueue one job.

        Returns ``(job, deduped)`` — ``deduped`` is True when the payload
        hashed onto an already-active job (idempotent resubmission, e.g.
        a client retrying after a connection reset), in which case the
        existing job is returned and nothing new is enqueued.
        """
        if self._draining:
            raise JobError("server is draining", status=503)
        compiled = compile_job(payload)
        check_admission(compiled)
        digest = job_digest(compiled.kind, compiled.spec, client)
        for j in self.jobs.values():
            if j.active and j.digest == digest:
                self.deduped_jobs += 1
                self.metrics.inc("serve.jobs.deduped")
                return j, True
        active = sum(
            1 for j in self.jobs.values()
            if j.client == client and j.active
        )
        if active >= self.config.quota:
            self.metrics.inc("serve.jobs.rejected")
            raise JobError(
                f"client {client!r} has {active} active job(s) "
                f"(quota {self.config.quota})",
                status=429,
            )
        if self.pool.load() + len(compiled.units) > self.config.queue_limit:
            self.metrics.inc("serve.jobs.rejected")
            raise JobError(
                f"queue full: {self.pool.load()} unit(s) pending, "
                f"job needs {len(compiled.units)} "
                f"(limit {self.config.queue_limit})",
                status=429,
            )
        job = Job(f"j{next(self._seq):05d}", client, compiled, digest=digest)
        self.jobs[job.id] = job
        if self.journal is not None:
            # Fsync'd before the 200 goes out: an acknowledged submission
            # is always recoverable.
            self.journal.append({
                "rec": "submitted", "id": job.id, "digest": digest,
                "client": client, "payload": payload,
                "units": len(job.units),
            })
        self.metrics.inc("serve.jobs.submitted")
        job.emit({"event": "state", "state": "queued",
                  "kind": job.kind, "units": len(job.units)})
        self._enqueue(job)
        return job, False

    def _enqueue(self, job: Job) -> None:
        """Put every unit of *job* on the worker pool."""
        for idx, unit in enumerate(job.units):
            self.pool.put(
                WorkItem(
                    unit,
                    should_run=lambda j=job: self._runnable(j),
                    on_start=lambda j=job: self._unit_started(j),
                    on_done=lambda outcome, j=job, i=idx: self._unit_done(
                        j, i, outcome
                    ),
                )
            )

    def _runnable(self, job: Job) -> bool:
        return not (
            job.cancel_requested or job.failed_units or self._draining
        )

    def _unit_started(self, job: Job) -> None:
        if job.state == "queued":
            job.state = "running"
            job.started = time.time()
            job.emit({"event": "state", "state": "running"})

    def _unit_done(self, job: Job, idx: int, outcome: UnitOutcome) -> None:
        job.outcomes[idx] = outcome
        label = job.units[idx].label
        if outcome.skipped:
            job.skipped_units += 1
            job.emit({"event": "unit", "unit": idx, "label": label,
                      "skipped": True, "reason": outcome.reason,
                      "done": job.settled_units, "total": len(job.units)})
        elif outcome.error is not None:
            job.failed_units += 1
            self.metrics.inc("serve.units.failed")
            job.emit({"event": "unit", "unit": idx, "label": label,
                      "error": outcome.error, "attempts": outcome.attempts,
                      "done": job.settled_units, "total": len(job.units)})
        else:
            job.done_units += 1
            job.cache_hits += outcome.cache_hits
            job.cache_misses += outcome.cache_misses
            job.simulated += outcome.simulated
            job.retries += outcome.attempts - 1
            if self.journal is not None:
                self.journal.append({"rec": "unit", "id": job.id,
                                     "unit": idx})
            self.metrics.inc("serve.units.done")
            self.metrics.inc("serve.units.cache_hits", outcome.cache_hits)
            self.metrics.inc("serve.units.cache_misses", outcome.cache_misses)
            self.metrics.observe(
                "serve.lat.unit_ms", int(outcome.seconds * 1000)
            )
            job.emit({
                "event": "unit", "unit": idx, "label": label,
                "cache": "hit" if outcome.cache_hits else "miss",
                "seconds": round(outcome.seconds, 6),
                "attempts": outcome.attempts,
                "done": job.settled_units, "total": len(job.units),
            })
        if job.settled_units == len(job.units) and not job.terminal:
            self._spawn_completion(job)

    def _spawn_completion(self, job: Job) -> None:
        """Schedule :meth:`_complete` and track it for shutdown to gather."""
        task = asyncio.get_running_loop().create_task(self._complete(job))
        self._completions.add(task)
        task.add_done_callback(self._completions.discard)

    async def _complete(self, job: Job) -> None:
        """Settle a job whose units have all drained."""
        if job.failed_units:
            job.state = "failed"
            bad = [
                f"{job.units[i].label}: {o.error}"
                for i, o in enumerate(job.outcomes)
                if o is not None and o.error is not None
            ]
            job.error = "; ".join(bad)
            self.metrics.inc("serve.jobs.failed")
        elif job.skipped_units:
            job.state = "cancelled"
            reasons = {
                o.reason for o in job.outcomes
                if o is not None and o.skipped
            }
            job.error = f"cancelled ({', '.join(sorted(r or '?' for r in reasons))})"
            self.metrics.inc("serve.jobs.cancelled")
        else:
            try:
                results = [o.result for o in job.outcomes]
                if self._draining:
                    # The pool's thread executor may already be shut down;
                    # finalize is cheap aggregation, run it inline.
                    job.result = job.finalize(results)
                else:
                    job.result = await self.pool.run_in_thread(
                        job.finalize, results
                    )
                job.state = "done"
                self.metrics.inc("serve.jobs.done")
            except Exception as exc:  # noqa: BLE001 - surfaced to the client
                job.state = "failed"
                job.error = f"finalize: {type(exc).__name__}: {exc}"
                self.metrics.inc("serve.jobs.failed")
        if self.journal is not None and not self._interrupted(job):
            self.journal.append({
                "rec": "finalized", "id": job.id,
                "state": job.state, "error": job.error,
            })
        job.finished = time.time()
        self.metrics.observe(
            "serve.lat.job_ms", int((job.finished - job.created) * 1000)
        )
        job.emit({
            "event": "state", "state": job.state,
            "seconds": round(job.finished - job.created, 6),
            "cache_hits": job.cache_hits,
            "cache_misses": job.cache_misses,
            "simulated": job.simulated,
            "error": job.error,
        })

    def _interrupted(self, job: Job) -> bool:
        """True when *job* was cancelled by the drain, not by a client.

        Interrupted jobs are deliberately not journaled as finalized:
        the next ``--resume`` requeues them, which is the whole point of
        the journal.  An explicit client cancel still finalizes.
        """
        return (
            self._draining
            and job.state == "cancelled"
            and not job.cancel_requested
        )

    def _cancel(self, job: Job) -> dict:
        """Request cancellation; pending units skip, in-flight ones drain."""
        if job.terminal:
            return {"ok": False, "state": job.state,
                    "error": "job already settled"}
        if not job.cancel_requested:
            job.cancel_requested = True
            job.state = "cancelling"
            if self.journal is not None:
                self.journal.append({"rec": "cancel", "id": job.id})
            job.emit({"event": "state", "state": "cancelling"})
            if job.settled_units == len(job.units):
                # Nothing queued or in flight (e.g. cancel raced the last
                # unit): settle immediately.
                self._spawn_completion(job)
        return {"ok": True, "state": job.state}

    # -- HTTP front end ------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._route(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> dict | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > MAX_BODY_BYTES:
                return {"method": method, "target": target,
                        "headers": headers, "body": None, "too_large": True}
            body = await reader.readexactly(length)
        return {"method": method, "target": target,
                "headers": headers, "body": body, "too_large": False}

    @staticmethod
    def _head(status: int, extra: str = "") -> bytes:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  503: "Service Unavailable"}.get(status, "OK")
        return (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Server: repro-serve\r\n"
            "Connection: close\r\n"
            f"{extra}"
        ).encode("latin-1")

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        writer.write(
            self._head(
                status,
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n",
            )
            + body
        )
        await writer.drain()

    async def _route(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        if request["too_large"]:
            await self._send_json(writer, 413, {"error": "body too large"})
            return
        method = request["method"]
        url = urlsplit(request["target"])
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}

        if method == "GET" and url.path in ("/", "/healthz"):
            await self._send_json(writer, 200, {
                "ok": True,
                "service": "repro-serve",
                "schema": JOB_SCHEMA,
                "draining": self._draining,
                "uptime_s": round(time.time() - self.started_at, 3),
            })
            return
        if parts[:1] != ["v1"]:
            await self._send_json(writer, 404, {"error": "not found"})
            return
        rest = parts[1:]

        if method == "GET" and rest == ["schema"]:
            await self._send_json(writer, 200, {
                "schema": JOB_SCHEMA,
                "kinds": list(JOB_KINDS),
                "states": list(JOB_STATES),
                "quota": self.config.quota,
                "queue_limit": self.config.queue_limit,
            })
        elif method == "GET" and rest == ["metrics"]:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            cache = self.pool.cache
            if cache is not None:
                # Mirror cache counters into the registry so the snapshot
                # carries cache.corrupt_detected & co alongside serve.*.
                for name, value in cache.counters().items():
                    self.metrics.set(f"cache.{name}", value)
            await self._send_json(writer, 200, {
                "queue_depth": self.pool.depth(),
                "in_flight": self.pool.in_flight,
                "workers": self.pool.workers,
                "jobs": states,
                "units_run": self.pool.units_run,
                "retries_used": self.pool.retries_used,
                "uptime_s": round(time.time() - self.started_at, 3),
                "durability": {
                    "journal": self.journal is not None,
                    "resumed": bool(self.config.resume),
                    "recovered_jobs": self.recovered_jobs,
                    "deduped_jobs": self.deduped_jobs,
                    "recovery": self.recovery,
                },
                "cache": cache.counters() if cache is not None else None,
                "metrics": self.metrics.snapshot(),
            })
        elif rest == ["jobs"]:
            await self._route_jobs(method, request, query, writer)
        elif len(rest) >= 2 and rest[0] == "jobs":
            await self._route_job(method, rest[1], rest[2:], writer)
        elif method == "POST" and rest == ["shutdown"]:
            await self._send_json(writer, 200, {
                "ok": True, "draining": True,
                "in_flight": self.pool.in_flight,
                "dropped": self.pool.depth(),
            })
            asyncio.get_running_loop().create_task(self.shutdown())
        else:
            await self._send_json(writer, 404, {"error": "not found"})

    async def _route_jobs(
        self, method: str, request: dict, query: dict,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method == "GET":
            jobs = [
                j.summary() for j in self.jobs.values()
                if "client" not in query or j.client == query["client"]
            ]
            jobs.sort(key=lambda d: d["id"], reverse=True)
            await self._send_json(writer, 200, {"jobs": jobs})
            return
        if method != "POST":
            await self._send_json(writer, 405, {"error": "POST or GET"})
            return
        try:
            payload = json.loads(request["body"] or b"{}")
        except ValueError:
            await self._send_json(writer, 400, {"error": "bad JSON body"})
            return
        client = request["headers"].get("x-repro-client") or (
            payload.get("client") if isinstance(payload, dict) else None
        ) or ANONYMOUS
        try:
            job, deduped = self._submit(payload, str(client))
        except JobError as exc:
            await self._send_json(
                writer, exc.status, {"error": str(exc)}
            )
            return
        await self._send_json(writer, 200, {
            "ok": True,
            "id": job.id,
            "state": job.state,
            "deduped": deduped,
            "units": len(job.units),
            "links": {
                "status": f"/v1/jobs/{job.id}",
                "events": f"/v1/jobs/{job.id}/events",
                "cancel": f"/v1/jobs/{job.id}/cancel",
            },
        })

    async def _route_job(
        self, method: str, job_id: str, tail: list[str],
        writer: asyncio.StreamWriter,
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            await self._send_json(
                writer, 404, {"error": f"no such job {job_id!r}"}
            )
            return
        if not tail and method == "GET":
            await self._send_json(writer, 200, job.detail())
        elif tail == ["cancel"] and method == "POST":
            ack = self._cancel(job)
            await self._send_json(writer, 200 if ack["ok"] else 409, ack)
        elif tail == ["events"] and method == "GET":
            await self._stream_events(job, writer)
        else:
            await self._send_json(writer, 404, {"error": "not found"})

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """Chunked JSONL: replay the event log, then tail until terminal.

        Streams are counted so a graceful drain can wait for the final
        chunk (and the ``0\\r\\n\\r\\n`` terminator) to reach the client
        instead of resetting the connection mid-stream.
        """
        self._active_streams += 1
        try:
            writer.write(self._head(
                200,
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n\r\n",
            ))
            await writer.drain()
            cursor = 0
            while True:
                limit = await job.next_events(cursor)
                while cursor < limit:
                    data = (
                        json.dumps(job.events[cursor], sort_keys=True) + "\n"
                    ).encode()
                    writer.write(
                        f"{len(data):x}\r\n".encode() + data + b"\r\n"
                    )
                    cursor += 1
                await writer.drain()
                if job.terminal and cursor >= len(job.events):
                    break
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            self._active_streams -= 1


async def _serve(config: ServerConfig) -> int:
    """Start a server and run it until SIGINT/SIGTERM (the CLI body)."""
    import signal
    import sys

    server = JobServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                sig, lambda: loop.create_task(server.shutdown())
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX event loop; Ctrl-C still raises KeyboardInterrupt
    journal = (
        f", journal={config.journal_dir}"
        f"{' (resumed ' + str(server.recovered_jobs) + ' job(s))' if config.resume else ''}"
        if config.journal_dir
        else ""
    )
    print(
        f"repro serve: listening on {server.url} "
        f"(workers={config.workers}, quota={config.quota}, "
        f"queue_limit={config.queue_limit}, "
        f"cache={'on' if config.cache else 'off'}{journal})",
        file=sys.stderr,
    )
    await server.serve_forever()
    print("repro serve: drained, bye", file=sys.stderr)
    return 0


def run(config: ServerConfig | None = None) -> int:
    """Blocking entry point used by ``repro serve``."""
    try:
        return asyncio.run(_serve(config or ServerConfig()))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
