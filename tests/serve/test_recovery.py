"""Crash-recovery e2e tests: WAL journal + resume + self-healing cache.

The centrepiece boots a **real** ``repro serve`` subprocess, SIGKILLs it
mid-flight, restarts it with ``--journal DIR --resume``, and proves the
ISSUE 9 durability contract: the interrupted job comes back under its
original id, completes, and its result is bit-identical to a direct
:class:`~repro.eval.parallel.SweepExecutor` run.  The rest covers the
in-process seams: graceful drain leaving open jobs resumable, recovery /
dedupe / corruption counters on ``/v1/metrics``, journal rotation
without ``--resume``, and a smoke run of the full chaos drill.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import intra_config
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.serve import LocalServer, ServerConfig
from repro.serve.drill import ServerProc, _free_port, chaos_drill
from repro.serve.jobs import JOB_SCHEMA
from repro.serve.journal import JOURNAL_NAME, STALE_SUFFIX
from repro.serve.loadgen import ResilientClient, RetryPolicy

APPS = ("fft", "lu_cont", "volrend", "water_nsq")
CONFIGS = ("Base", "B+M", "B+M+I")


def wait_for_unit_record(journal_dir, deadline_s=30.0):
    """Block until the journal shows at least one completed unit.

    Killing (or draining) on a timer is racy: on a fast machine the whole
    12-unit job can finalize before a fixed sleep elapses, and the test
    would then correctly recover nothing.  Watching the fsynced journal
    pins the interruption to a moment the job is provably mid-flight.
    """
    path = journal_dir / JOURNAL_NAME
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        if path.exists() and '"rec":"unit"' in path.read_text():
            return
        time.sleep(0.005)
    raise AssertionError("no unit record appeared in the journal")


def big_payload(scale=0.5, threads=4):
    """12 units — slow enough on one worker to be killed mid-flight."""
    return {
        "schema": JOB_SCHEMA,
        "kind": "sweep",
        "spec": {
            "apps": list(APPS),
            "configs": list(CONFIGS),
            "scale": scale,
            "num_threads": threads,
        },
    }


def direct_matrix(scale=0.5, threads=4):
    flat = iter(SweepExecutor(jobs=1).run_cells([
        SweepCell.make("intra", app, intra_config(cfg),
                       scale=scale, num_threads=threads)
        for app in APPS for cfg in CONFIGS
    ]))
    return {app: {cfg: next(flat).to_dict() for cfg in CONFIGS}
            for app in APPS}


class TestSigkillResume:
    def test_kill9_resume_same_id_bit_identical(self, tmp_path):
        """The tentpole: kill -9 loses no acknowledged work."""
        port = _free_port()
        server = ServerProc(
            host="127.0.0.1", port=port, workers=1,
            cache_dir=str(tmp_path / "cache"),
            journal_dir=str(tmp_path / "journal"),
            log_path=str(tmp_path / "server.log"),
        )
        client = ResilientClient(
            "127.0.0.1", port, policy=RetryPolicy(attempts=10, cap_s=0.5)
        )
        server.start()
        server.wait_ready()
        try:
            status, sub = client.request(
                "POST", "/v1/jobs", big_payload(), client="e2e"
            )
            assert status == 200 and not sub["deduped"]
            jid = sub["id"]
            # let at least one unit land, then pull the plug mid-flight
            wait_for_unit_record(tmp_path / "journal")

            server.kill()  # SIGKILL: no drain, no flush, memory gone
            server.start()
            server.wait_ready()

            status, met = client.request("GET", "/v1/metrics")
            assert status == 200
            assert met["durability"]["recovered_jobs"] == 1
            assert met["durability"]["resumed"] is True

            # identical resubmission dedupes onto the recovered job
            status, dup = client.request(
                "POST", "/v1/jobs", big_payload(), client="e2e"
            )
            assert status == 200 and dup["deduped"] and dup["id"] == jid
            status, met = client.request("GET", "/v1/metrics")
            assert met["durability"]["deduped_jobs"] == 1

            # the SAME id completes, bit-identical to direct execution
            final = client.wait(jid, timeout=180.0)
            assert final is not None and final["state"] == "done"
            assert final["recovered"] is True
            assert final["result"]["matrix"] == direct_matrix()

            # once finalized, another crash cycle recovers nothing
            server.kill()
            server.start()
            server.wait_ready()
            status, met = client.request("GET", "/v1/metrics")
            assert met["durability"]["recovered_jobs"] == 0
            status, doc = client.request("GET", f"/v1/jobs/{jid}")
            assert status == 404  # compacted away; resubmission would
            # be idempotent and cache-served
        finally:
            server.stop(client)

    def test_chaos_drill_smoke(self, tmp_path):
        """One full kill/corrupt/resume cycle of the drill machinery."""
        doc = chaos_drill(
            jobs=8, kills=1, corrupt=2, concurrency=4, workers=4,
            scale=0.2, out=None, work_dir=str(tmp_path), job_timeout=120.0,
        )
        assert doc["ok"], doc
        assert doc["completed"] == 8
        assert doc["kills"] == 1 and doc["incarnations"] == 2
        assert doc["divergences"] == 0
        assert doc["corrupt_undetected"] == 0
        assert doc["corrupted_files"] == doc["corrupt_healed"] + \
            doc["corrupt_quarantined"]

    @pytest.mark.parametrize("flag,value", [
        ("--jobs-count", "0"), ("--concurrency", "0"), ("--workers", "0"),
        ("--kills", "-2"), ("--corrupt", "-1"), ("--scale", "0"),
        ("--scale", "-0.5"),
    ])
    def test_out_of_range_drill_input_is_a_usage_error(
        self, tmp_path, capsys, flag, value
    ):
        """A drill that would check nothing exits 2 naming the flag.

        Validation runs before any server or client starts.
        """
        from repro.cli import main

        code = main([
            "serve", "--chaos-kill", "--work-dir", str(tmp_path),
            "--out", str(tmp_path / "verdict.json"), flag, value,
        ])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()


class TestGracefulDrainRecovery:
    def test_drained_jobs_resume_on_next_start(self, tmp_path):
        """Drain-cancelled jobs are not finalized: --resume requeues them."""
        journal = str(tmp_path / "journal")
        cache = str(tmp_path / "cache")
        cfg = ServerConfig(workers=1, cache_dir=cache, journal_dir=journal)
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", big_payload())
            assert st == 200
            jid = sub["id"]
            # drain while provably mid-flight (some units done, not all)
            wait_for_unit_record(tmp_path / "journal")
        # graceful drain happened: in-memory job settled as cancelled,
        # but the journal still holds it open
        resumed = ServerConfig(
            workers=2, cache_dir=cache, journal_dir=journal, resume=True
        )
        with LocalServer(resumed) as srv:
            st, met = srv.request("GET", "/v1/metrics")
            assert met["durability"]["recovered_jobs"] == 1
            final = srv.wait(jid)
            assert final["state"] == "done"
            assert final["result"]["matrix"] == direct_matrix()

    def test_explicit_cancel_is_final_across_restarts(self, tmp_path):
        """A client cancel IS journaled: resume must not resurrect it."""
        journal = str(tmp_path / "journal")
        cache = str(tmp_path / "cache")
        cfg = ServerConfig(workers=1, cache_dir=cache, journal_dir=journal)
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", big_payload())
            st, ack = srv.request("POST", f"/v1/jobs/{sub['id']}/cancel")
            assert st == 200
            assert srv.wait(sub["id"])["state"] == "cancelled"
            jid = sub["id"]
        resumed = ServerConfig(
            workers=1, cache_dir=cache, journal_dir=journal, resume=True
        )
        with LocalServer(resumed) as srv:
            st, met = srv.request("GET", "/v1/metrics")
            assert met["durability"]["recovered_jobs"] == 0
            st, _ = srv.request("GET", f"/v1/jobs/{jid}")
            assert st == 404

    def test_without_resume_the_journal_is_rotated_aside(self, tmp_path):
        journal_dir = tmp_path / "journal"
        cfg = ServerConfig(
            workers=1, cache_dir=str(tmp_path / "cache"),
            journal_dir=str(journal_dir),
        )
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", big_payload(scale=0.2))
            srv.wait(sub["id"])
        with LocalServer(cfg) as srv:  # resume=False: fresh journal
            st, met = srv.request("GET", "/v1/metrics")
            assert met["durability"]["recovered_jobs"] == 0
        stale = list(journal_dir.glob(f"{JOURNAL_NAME}{STALE_SUFFIX}*"))
        assert stale, "old journal must be rotated aside, not destroyed"


class TestCacheCorruptionMetrics:
    def test_corrupt_entry_quarantined_recomputed_and_counted(self, tmp_path):
        """Satellite: /v1/metrics surfaces corrupt_detected/quarantined."""
        cache_dir = tmp_path / "cache"
        cfg = ServerConfig(workers=2, cache_dir=str(cache_dir))
        payload = big_payload(scale=0.25)
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", payload)
            first = srv.wait(sub["id"])
            assert first["state"] == "done"

            entries = [
                p for p in cache_dir.rglob("*.json")
                if p.parent.name != "quarantine"
            ]
            assert len(entries) == 12
            entries[0].write_text("garbage", encoding="utf-8")

            st, sub2 = srv.request("POST", "/v1/jobs", payload)
            second = srv.wait(sub2["id"])
            assert second["state"] == "done"
            assert second["result"] == first["result"]  # never served corrupt
            assert second["cache_hits"] == 11
            assert second["cache_misses"] == 1  # the healed entry

            st, met = srv.request("GET", "/v1/metrics")
            assert met["cache"]["corrupt_detected"] == 1
            assert met["cache"]["quarantined"] == 1
            assert met["metrics"]["counters"]["cache.corrupt_detected"] == 1


class TestSchemaMigration:
    def test_schema_1_sweep_in_the_journal_is_finalized_failed(self, tmp_path):
        """A journaled job the current schema rejects fails, never loops."""
        import json

        from repro.serve.journal import job_digest

        journal = tmp_path / "journal"
        journal.mkdir()
        old = {"schema": 1, "kind": "sweep", "spec": {
            "model": "intra", "apps": ["fft"], "configs": ["Base"]}}
        (journal / JOURNAL_NAME).write_text(json.dumps({
            "rec": "submitted", "id": "j00007", "client": "old",
            "digest": job_digest("sweep", old["spec"], "old"),
            "payload": old, "units": 1, "ts": 0.0,
        }) + "\n")
        cfg = ServerConfig(
            workers=1, cache_dir=str(tmp_path / "cache"),
            journal_dir=str(journal), resume=True,
        )
        with LocalServer(cfg) as srv:
            st, met = srv.request("GET", "/v1/metrics")
        records = [
            json.loads(line)
            for line in (journal / JOURNAL_NAME).read_text().splitlines()
        ]
        [final] = [r for r in records if r["rec"] == "finalized"]
        assert final["id"] == "j00007" and final["state"] == "failed"
        assert "unsupported job schema 1" in final["error"]
        assert met["metrics"]["counters"]["serve.jobs.recovery_failed"] == 1
        assert met["durability"]["recovered_jobs"] == 0
