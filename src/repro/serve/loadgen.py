"""In-process job server and resilient client for the serve harnesses.

:class:`LocalServer` runs a :class:`~repro.serve.server.JobServer` on a
background thread, so the client side is plain blocking ``http.client``
like any external consumer.  The tests, CI's serve smoke and the
``serve_mix`` workload of ``perfbench/`` drive it this way.

:class:`ResilientClient` rides out quota/backpressure 429s, drain 503s
and connection resets with capped exponential backoff and seeded jitter
instead of treating them as fatal.  Retrying a submission is safe because
the server dedupes resubmissions by canonical job digest
(:func:`repro.serve.journal.job_digest`).  The chaos drill
(:mod:`repro.serve.drill`) builds on this client to survive servers
that are being SIGKILLed underneath it.

:func:`bench_payloads` is the drill's job set: single-cell sweeps cycling
app x config x threads.  :func:`_direct_results` is its ground truth: the
same cells run directly on a local
:class:`~repro.eval.parallel.SweepExecutor`, with no server, so every
served result can be compared bit-for-bit.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from repro.common.rng import DEFAULT_SEED, make_rng
from repro.core.config import intra_config
from repro.eval.cache import ResultCache
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.serve.jobs import JOB_SCHEMA
from repro.serve.server import JobServer, ServerConfig

#: Small/fast Model-1 workloads the drill's job set cycles through
#: (distinct (app, config, num_threads) triples, so each one simulates).
BENCH_APPS = ("fft", "lu_cont", "volrend", "water_nsq")
BENCH_CONFIGS = ("Base", "B+M", "B+M+I")

#: HTTP statuses that mean "back off and try again", not "give up":
#: 429 = quota/backpressure, 503 = draining.
RETRYABLE_STATUS = (429, 503)

#: Synthetic status returned when every retry was exhausted on a
#: transport-level failure (connection refused/reset, torn response).
EXHAUSTED = 599


class LocalServer:
    """A JobServer running its own event loop on a daemon thread.

    The canonical harness for tests, CI and ``perfbench``: start it,
    speak real HTTP to ``host:port`` from any number of client threads,
    then :meth:`close` to drain and join.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.server: JobServer | None = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    def _run(self) -> None:
        import asyncio

        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self.server = JobServer(self.config)
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(body())

    def __enter__(self) -> "LocalServer":
        self._thread.start()
        if not self._ready.wait(timeout=10):  # pragma: no cover - startup bug
            raise RuntimeError("job server failed to start within 10s")
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def port(self) -> int:
        """The ephemeral port the server bound (valid once started)."""
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def request(
        self, method: str, path: str, body: dict | None = None,
        *, client: str | None = None, timeout: float = 60.0,
    ) -> tuple[int, dict]:
        """One blocking HTTP round-trip; returns (status, parsed JSON)."""
        conn = http.client.HTTPConnection(
            self.config.host, self.port, timeout=timeout
        )
        try:
            headers = {"Content-Type": "application/json"}
            if client is not None:
                headers["X-Repro-Client"] = client
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
                headers=headers,
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode())
        finally:
            conn.close()

    def stream_events(self, job_id: str, *, timeout: float = 60.0) -> list[dict]:
        """Consume a job's chunked JSONL event stream to the end."""
        conn = http.client.HTTPConnection(
            self.config.host, self.port, timeout=timeout
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()  # http.client un-chunks for us
            events = []
            while True:
                line = resp.readline()
                if not line:
                    break
                events.append(json.loads(line.decode()))
            return events
        finally:
            conn.close()

    def wait(self, job_id: str, *, timeout: float = 120.0) -> dict:
        """Poll a job until it settles; returns the terminal detail doc."""
        deadline = time.monotonic() + timeout
        while True:
            status, doc = self.request("GET", f"/v1/jobs/{job_id}")
            if status != 200:
                raise RuntimeError(f"poll {job_id}: HTTP {status}: {doc}")
            if doc["state"] in ("done", "failed", "cancelled"):
                return doc
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise TimeoutError(f"job {job_id} still {doc['state']}")
            time.sleep(0.02)

    def close(self) -> None:
        """Drain the server and join its loop thread."""
        if self._ready.is_set() and self._thread.is_alive():
            try:
                self.request("POST", "/v1/shutdown", timeout=30.0)
            except OSError:  # pragma: no cover - already gone
                pass
        self._thread.join(timeout=30)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    ``attempts`` counts retries *after* the first try; the n-th retry
    sleeps ``min(base_s * 2**n, cap_s)`` scaled by a jitter factor drawn
    uniformly from [0.5, 1.5) out of one deterministic stream
    (:func:`repro.common.rng.make_rng`), so a retry storm from many
    clients decorrelates without sacrificing reproducibility.
    """

    attempts: int = 8
    base_s: float = 0.05
    cap_s: float = 2.0
    seed: int = DEFAULT_SEED


class ResilientClient:
    """Blocking HTTP client that rides out 429/503/connection failures.

    Safe by construction: the server dedupes resubmissions by canonical
    job digest, so replaying a ``POST /v1/jobs`` whose response was lost
    lands on the already-admitted job instead of double-running it.
    ``retries`` counts every backoff taken (surfaced in drill reports).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        stream: str = "loadgen",
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self._rng = make_rng(f"retry-{stream}", self.policy.seed)
        self.retries = 0
        self.give_ups = 0

    def _once(
        self, method: str, path: str, body: dict | None,
        client: str | None, timeout: float,
    ) -> tuple[int, dict]:
        """One raw round-trip; transport failures come back as status 0."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"}
            if client is not None:
                headers["X-Repro-Client"] = client
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
                headers=headers,
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # Connection refused (server restarting), reset mid-exchange
            # (server SIGKILLed), or a torn JSON body: all retryable.
            return 0, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            conn.close()

    def request(
        self, method: str, path: str, body: dict | None = None,
        *, client: str | None = None, timeout: float = 60.0,
    ) -> tuple[int, dict]:
        """Round-trip with backoff; returns the first conclusive reply.

        Conclusive means any status outside :data:`RETRYABLE_STATUS`
        (transport failures are retryable too).  When the budget runs
        out the last retryable status is returned as-is, or
        :data:`EXHAUSTED` for a transport failure.
        """
        delay = self.policy.base_s
        attempt = 0
        while True:
            status, doc = self._once(method, path, body, client, timeout)
            if status != 0 and status not in RETRYABLE_STATUS:
                return status, doc
            if attempt >= self.policy.attempts:
                self.give_ups += 1
                return status or EXHAUSTED, doc
            attempt += 1
            self.retries += 1
            time.sleep(min(delay, self.policy.cap_s)
                       * (0.5 + self._rng.random()))
            delay *= 2

    def wait(self, job_id: str, *, timeout: float = 120.0) -> dict | None:
        """Poll a job until terminal.

        Returns the terminal detail document, or ``None`` when the job
        vanished (404) or polling gave up — after a crash/restart cycle
        a *finished* job is compacted out of the journal, so its id no
        longer resolves; the caller resubmits the payload, which is
        idempotent and cache-served.
        """
        deadline = time.monotonic() + timeout
        while True:
            status, doc = self.request("GET", f"/v1/jobs/{job_id}")
            if status != 200:
                return None
            if doc["state"] in ("done", "failed", "cancelled"):
                return doc
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise TimeoutError(f"job {job_id} still {doc['state']}")
            time.sleep(0.02)


def bench_payloads(jobs: int, *, scale: float) -> list[dict]:
    """*jobs* single-cell sweep payloads cycling app × config × threads."""
    payloads = []
    for i in range(jobs):
        app = BENCH_APPS[i % len(BENCH_APPS)]
        cfg = BENCH_CONFIGS[(i // len(BENCH_APPS)) % len(BENCH_CONFIGS)]
        # powers of two only: fft needs threads to divide its problem size
        threads = 2 ** (
            1 + (i // (len(BENCH_APPS) * len(BENCH_CONFIGS))) % 3
        )
        payloads.append({
            "schema": JOB_SCHEMA,
            "kind": "sweep",
            "client": f"bench-{i % 16}",
            "spec": {
                "apps": [app],
                "configs": [cfg],
                "scale": scale,
                "num_threads": threads,
            },
        })
    return payloads


def _direct_results(payloads: list[dict], cache_dir: str) -> dict[str, dict]:
    """Ground truth: run every distinct payload cell directly, no server."""
    seen: dict[str, SweepCell] = {}
    for p in payloads:
        spec = p["spec"]
        app, cfg = spec["apps"][0], spec["configs"][0]
        cell = SweepCell.make(
            "intra", app, intra_config(cfg),
            scale=spec["scale"], num_threads=spec["num_threads"],
        )
        seen.setdefault(f"{app}/{cfg}/t{spec['num_threads']}", cell)
    keys = sorted(seen)
    ex = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
    results = ex.run_cells([seen[k] for k in keys])
    return {k: r.to_dict() for k, r in zip(keys, results)}
