"""Simulation-as-a-service: the ``repro serve`` job server.

One process multiplexes many concurrent clients over the sweep engine:
:mod:`repro.serve.jobs` validates requests against the versioned job
schema and lowers them to sweep-cell work units, :mod:`repro.serve.pool`
runs those units on a bounded worker pool fronted by the shared result
cache, :mod:`repro.serve.server` is the asyncio HTTP/JSON front end
(lifecycle, streaming, quotas, graceful drain), and
:mod:`repro.serve.loadgen` is the in-process server and resilient client
that the tests, CI and ``perfbench``'s ``serve_mix`` drive.
:mod:`repro.serve.journal` adds durability — a fsync'd write-ahead
journal so ``--resume`` recovers interrupted jobs after a crash — and
:mod:`repro.serve.drill` proves it (``repro serve --chaos-kill``).  API reference: ``docs/SERVICE.md``; durability story:
``docs/RESILIENCE.md``.
"""

from repro.serve.jobs import (
    JOB_KINDS,
    JOB_SCHEMA,
    JOB_STATES,
    MAX_UNITS,
    TERMINAL_STATES,
    CompiledJob,
    JobError,
    Unit,
    compile_job,
)
from repro.serve.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalState,
    RecoveredJob,
    job_digest,
)
from repro.serve.loadgen import LocalServer
from repro.serve.pool import (
    UnitOutcome,
    WorkerCrash,
    WorkerFaultPlan,
    WorkerPool,
    WorkItem,
)
from repro.serve.server import Job, JobServer, ServerConfig, run

__all__ = [
    "JOB_KINDS",
    "JOB_SCHEMA",
    "JOB_STATES",
    "MAX_UNITS",
    "TERMINAL_STATES",
    "JOURNAL_SCHEMA",
    "CompiledJob",
    "Job",
    "JobError",
    "JobServer",
    "Journal",
    "JournalState",
    "LocalServer",
    "RecoveredJob",
    "ServerConfig",
    "Unit",
    "UnitOutcome",
    "WorkItem",
    "WorkerCrash",
    "WorkerFaultPlan",
    "WorkerPool",
    "compile_job",
    "job_digest",
    "run",
]
