"""End-to-end job-server tests over real HTTP (repro.serve.server).

Each test boots a :class:`~repro.serve.loadgen.LocalServer` — a real
asyncio server on an ephemeral port, driven from client threads with
``http.client`` — and exercises the ISSUE 8 acceptance behaviours:
served results bit-identical to a direct :class:`SweepExecutor` run,
cancellation freeing worker slots, 429 quota/backpressure rejections,
and cache-served resubmission.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.core.config import intra_config
from repro.eval.parallel import SweepCell, SweepExecutor
from repro.serve import LocalServer, ServerConfig, WorkerFaultPlan
from repro.serve.jobs import JOB_SCHEMA, MAX_UNITS, compile_job, run_job


def sweep_payload(apps=("fft",), configs=("Base",), scale=0.25, threads=4):
    return {
        "schema": JOB_SCHEMA,
        "kind": "sweep",
        "spec": {
            "apps": list(apps),
            "configs": list(configs),
            "scale": scale,
            "num_threads": threads,
        },
    }


#: One small request per job kind (two for litmus) for the parity check.
KIND_PAYLOADS = {
    "sweep": sweep_payload(configs=("Base", "B+M+I")),
    "sweep-rc": {"kind": "sweep", "spec": {
        "apps": ["ep"], "configs": ["HCC", "Addr+L"], "scale": 0.25,
        "num_blocks": 2, "cores_per_block": 2, "model": "rc"}},
    "gen": {"kind": "gen", "spec": {
        "pattern": "migratory", "configs": ["Base", "B+M+I"]}},
    "litmus": {"kind": "litmus", "spec": {
        "kernels": ["mp_flag", "lock_counter"], "model": "rc"}},
    "litmus-matrix": {"kind": "litmus", "spec": {
        "matrix": True, "models": ["base", "sisd"], "engines": ["ref"],
        "kernels": ["mp_flag", "lock_handoff_three_threads_broken"]}},
    "chaos": {"kind": "chaos", "spec": {
        "workloads": ["mp_flag"], "plans": 2, "seed": 1, "model": "sisd"}},
    "chaos-engine": {"kind": "chaos", "spec": {
        "workloads": ["mp_flag"], "plans": 1, "seed": 2, "engine": "fast"}},
    "lint": {"kind": "lint", "spec": {
        "workloads": ["fft", "redundant_wb_hint"], "model": "rc"}},
    "fleet": {"kind": "fleet", "spec": {
        "scenarios": 2, "seed": 5, "configs": ["B+M+I"]}},
}


def serve_one(server, payload) -> dict:
    """Submit *payload*, wait for it, and return its ``result`` document."""
    st, sub = server.request("POST", "/v1/jobs", payload)
    assert st == 200, sub
    final = server.wait(sub["id"])
    assert final["state"] == "done", final
    return final["result"]


def cli_json(argv, capsys, monkeypatch, tmp_path) -> dict:
    """Run one ``repro ... --json`` command and parse its document."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    capsys.readouterr()
    main([*argv, "--json"])
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def server(tmp_path):
    cfg = ServerConfig(workers=4, cache_dir=str(tmp_path / "cache"))
    with LocalServer(cfg) as srv:
        yield srv


class TestLifecycle:
    def test_health_schema_metrics(self, server):
        st, health = server.request("GET", "/healthz")
        assert st == 200 and health["ok"] and not health["draining"]
        st, schema = server.request("GET", "/v1/schema")
        assert st == 200 and schema["schema"] == JOB_SCHEMA == 2
        assert "sweep" in schema["kinds"] and "cancelled" in schema["states"]
        st, metrics = server.request("GET", "/v1/metrics")
        assert st == 200 and metrics["workers"] == 4

    def test_submit_poll_done(self, server):
        st, sub = server.request("POST", "/v1/jobs", sweep_payload())
        assert st == 200 and sub["ok"] and sub["units"] == 1
        final = server.wait(sub["id"])
        assert final["state"] == "done"
        assert final["done_units"] == 1 and final["failed_units"] == 0
        assert final["result"]["kind"] == "sweep"

    def test_unknown_job_404_and_bad_body_400(self, server):
        st, doc = server.request("GET", "/v1/jobs/j99999")
        assert st == 404
        st, doc = server.request("POST", "/v1/jobs", {"kind": "nope"})
        assert st == 400 and "kind" in doc["error"]
        st, doc = server.request(
            "POST", "/v1/jobs", {**sweep_payload(), "schema": 1}
        )
        assert st == 400 and "unsupported job schema 1" in doc["error"]
        st, doc = server.request(
            "POST", "/v1/jobs", sweep_payload(apps=("fft", "ep"))
        )
        assert st == 400 and "'ep' is inter-block" in doc["error"]
        st, doc = server.request("GET", "/v1/nowhere")
        assert st == 404

    def test_job_listing_filters_by_client(self, server):
        for client in ("alice", "bob"):
            st, sub = server.request(
                "POST", "/v1/jobs", sweep_payload(), client=client
            )
            server.wait(sub["id"])
        st, all_jobs = server.request("GET", "/v1/jobs")
        assert st == 200 and len(all_jobs["jobs"]) == 2
        st, alice = server.request("GET", "/v1/jobs?client=alice")
        assert [j["client"] for j in alice["jobs"]] == ["alice"]


class TestBitIdentical:
    def test_served_result_matches_direct_executor(self, server):
        """The tentpole contract: serving changes nothing but the transport."""
        apps, configs = ("fft", "volrend"), ("Base", "B+M+I")
        st, sub = server.request(
            "POST", "/v1/jobs", sweep_payload(apps, configs)
        )
        final = server.wait(sub["id"])
        assert final["state"] == "done"

        direct = SweepExecutor(jobs=1).run_cells([
            SweepCell.make("intra", app, intra_config(cfg),
                           scale=0.25, num_threads=4)
            for app in apps for cfg in configs
        ])
        flat = iter(direct)
        expect = {
            app: {cfg: next(flat).to_dict() for cfg in configs}
            for app in apps
        }
        assert final["result"]["matrix"] == expect

    @pytest.mark.parametrize("kind", sorted(KIND_PAYLOADS))
    def test_served_result_matches_run_job(self, server, kind):
        """Every job kind: the served document is what run_job returns."""
        payload = KIND_PAYLOADS[kind]
        served = serve_one(server, payload)
        local = run_job(compile_job(payload), SweepExecutor(jobs=1))
        assert served == json.loads(json.dumps(local))

    def test_served_chaos_honours_model(self, server, capsys, monkeypatch,
                                        tmp_path):
        """A served sisd chaos job equals ``repro chaos --model sisd``."""
        served = serve_one(server, KIND_PAYLOADS["chaos"])
        cli = cli_json(
            ["chaos", "--workload", "mp_flag", "--plans", "2", "--seed", "1",
             "--model", "sisd", "--jobs", "1"],
            capsys, monkeypatch, tmp_path,
        )
        assert served == cli

    def test_served_lint_honours_model(self, server, capsys, monkeypatch,
                                       tmp_path):
        """A served rc lint job equals ``repro lint --model rc``."""
        served = serve_one(server, KIND_PAYLOADS["lint"])
        cli = cli_json(
            ["lint", "fft", "redundant_wb_hint", "--model", "rc"],
            capsys, monkeypatch, tmp_path,
        )
        assert served == cli
        report = served["reports"]["redundant_wb_hint"]
        assert report["model"] == "rc" and report["summary"]["waived"] == 1

    def test_event_stream_is_ordered_and_terminal(self, server):
        st, sub = server.request(
            "POST", "/v1/jobs", sweep_payload(configs=("Base", "B+M+I"))
        )
        final = server.wait(sub["id"])
        events = server.stream_events(sub["id"])
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0] == {
            "event": "state", "state": "queued", "kind": "sweep",
            "units": 2, "job": sub["id"], "seq": 0, "ts": events[0]["ts"],
        }
        unit_events = [e for e in events if e["event"] == "unit"]
        assert len(unit_events) == 2
        assert all(e["cache"] in ("hit", "miss") for e in unit_events)
        assert events[-1]["state"] == final["state"] == "done"

    def test_drain_terminates_inflight_event_stream(self, tmp_path):
        """Graceful drain must end an open chunked stream, not hang it.

        A client tailing ``/v1/jobs/{id}/events`` when ``/v1/shutdown``
        lands must see the stream close with a terminal state event —
        ``done`` if the job squeaked through, ``cancelled`` if the drain
        skipped its remaining units — rather than blocking forever on a
        half-open chunked response.
        """
        cfg = ServerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", sweep_payload(
                apps=("fft", "lu_cont", "volrend", "water_nsq"),
                configs=("Base", "B+M", "B+M+I"),
                scale=0.5,
            ))
            assert st == 200
            got: list[dict] = []
            tail = threading.Thread(
                target=lambda: got.extend(srv.stream_events(sub["id"])),
                daemon=True,
            )
            tail.start()
            time.sleep(0.1)  # stream attached, units flowing
            st, _ = srv.request("POST", "/v1/shutdown", timeout=30.0)
            assert st == 200
            tail.join(timeout=30.0)
            assert not tail.is_alive(), "event stream hung across drain"
            assert got, "stream delivered no events"
            assert got[-1]["event"] == "state"
            assert got[-1]["state"] in ("done", "cancelled")


class TestCache:
    def test_resubmission_is_cache_served_and_10x_faster(self, server):
        """Identical submission #2 must be served from cache, >=10x faster."""
        payload = sweep_payload(
            apps=("fft", "lu_cont", "volrend", "water_nsq"),
            configs=("Base", "B+M", "B+M+I"),
            scale=1.0,
        )
        t0 = time.perf_counter()
        st, sub = server.request("POST", "/v1/jobs", payload)
        cold = server.wait(sub["id"])
        cold_s = time.perf_counter() - t0
        assert cold["state"] == "done"
        assert cold["cache_misses"] == 12 and cold["cache_hits"] == 0

        t1 = time.perf_counter()
        st, sub2 = server.request("POST", "/v1/jobs", payload)
        hot = server.wait(sub2["id"])
        hot_s = time.perf_counter() - t1
        assert hot["state"] == "done"
        assert hot["cache_hits"] == 12 and hot["cache_misses"] == 0
        assert hot["result"] == cold["result"]
        assert hot_s * 10 <= cold_s, (
            f"cache-served rerun only {cold_s / hot_s:.1f}x faster "
            f"({cold_s:.3f}s -> {hot_s:.3f}s)"
        )


class TestAdmissionControl:
    def test_quota_rejects_with_429(self, tmp_path):
        cfg = ServerConfig(
            workers=1, quota=1, cache_dir=str(tmp_path / "cache")
        )
        big = sweep_payload(
            apps=("fft", "lu_cont", "volrend", "water_nsq"),
            configs=("Base", "B+M+I"),
        )
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", big, client="greedy")
            assert st == 200 and not sub["deduped"]
            # an identical resubmission while active dedupes onto the
            # live job instead of burning quota (idempotent by digest)
            st, dup = srv.request("POST", "/v1/jobs", big, client="greedy")
            assert st == 200 and dup["deduped"] and dup["id"] == sub["id"]
            # a *different* job from the same client trips the quota
            st, err = srv.request(
                "POST", "/v1/jobs", sweep_payload(), client="greedy"
            )
            assert st == 429 and "quota" in err["error"]
            # quota is per client: another identity is admitted
            st, other = srv.request(
                "POST", "/v1/jobs", sweep_payload(), client="patient"
            )
            assert st == 200
            srv.wait(sub["id"])
            srv.wait(other["id"])
            # terminal jobs release quota (and do not dedupe)
            st, again = srv.request("POST", "/v1/jobs", big, client="greedy")
            assert st == 200 and not again["deduped"]
            assert again["id"] != sub["id"]
            srv.wait(again["id"])

    def test_oversized_job_is_rejected_400(self, server):
        payload = {"kind": "chaos", "spec": {"plans": 100}}
        assert len(compile_job(payload).units) > MAX_UNITS
        st, doc = server.request("POST", "/v1/jobs", payload)
        assert st == 400 and f"max {MAX_UNITS}" in doc["error"]

    def test_field_over_server_limit_is_rejected_400(self, server):
        payload = {"kind": "gen", "spec": {"pattern": "zipf_hot", "threads": 33}}
        compile_job(payload)  # valid: the CLI would run it
        st, doc = server.request("POST", "/v1/jobs", payload)
        assert st == 400 and "spec.threads must be at most 32" in doc["error"]

    def test_queue_limit_backpressure_429(self, tmp_path):
        cfg = ServerConfig(
            workers=1, quota=64, queue_limit=4,
            cache_dir=str(tmp_path / "cache"),
        )
        big = sweep_payload(
            apps=("fft", "lu_cont", "volrend", "water_nsq"),
            configs=("Base", "B+M+I"),
        )  # 8 units > queue_limit 4
        with LocalServer(cfg) as srv:
            st, err = srv.request("POST", "/v1/jobs", big)
            assert st == 429 and "queue full" in err["error"]
            st, ok = srv.request("POST", "/v1/jobs", sweep_payload())
            assert st == 200
            srv.wait(ok["id"])


class TestCancellation:
    def test_cancel_frees_worker_slots(self, tmp_path):
        """Pending units of a cancelled job are skipped, not executed."""
        cfg = ServerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        many = sweep_payload(
            apps=("fft", "lu_cont", "volrend", "water_nsq"),
            configs=("Base", "B+M", "B+M+I"),
            scale=1.0,
        )  # 12 units, serial worker: plenty left to cancel
        with LocalServer(cfg) as srv:
            st, sub = srv.request("POST", "/v1/jobs", many)
            assert st == 200
            st, ack = srv.request("POST", f"/v1/jobs/{sub['id']}/cancel")
            assert st == 200 and ack["ok"]
            final = srv.wait(sub["id"])
            assert final["state"] == "cancelled"
            assert final["skipped_units"] > 0
            assert final["done_units"] + final["skipped_units"] == 12

            # the freed slots serve the next job normally
            t0 = time.perf_counter()
            st, nxt = srv.request("POST", "/v1/jobs", sweep_payload())
            assert st == 200
            assert srv.wait(nxt["id"])["state"] == "done"
            assert time.perf_counter() - t0 < 30
            # cancelling a settled job is a 409
            st, ack = srv.request("POST", f"/v1/jobs/{sub['id']}/cancel")
            assert st == 409 and not ack["ok"]


class TestFaultsAndKinds:
    def test_flaky_workers_still_serve_identical_results(self, tmp_path):
        """Injected worker crashes are retried away (faults/ -> serve/)."""
        cfg = ServerConfig(
            workers=2,
            retries=10,
            cache_dir=str(tmp_path / "cache"),
            faults=WorkerFaultPlan(rate=0.4, seed=9, kind="crash"),
        )
        direct = SweepExecutor(jobs=1).run_cells([
            SweepCell.make("intra", "fft", intra_config("Base"),
                           scale=0.25, num_threads=4)
        ])[0]
        with LocalServer(cfg) as srv:
            st, sub = srv.request(
                "POST", "/v1/jobs", sweep_payload(configs=("Base",))
            )
            final = srv.wait(sub["id"])
            assert final["state"] == "done"
            assert final["result"]["matrix"]["fft"]["Base"] == direct.to_dict()
            st, met = srv.request("GET", "/v1/metrics")
            assert met["retries_used"] >= 0  # counter exposed

    def test_gen_and_lint_jobs(self, server):
        st, sub = server.request("POST", "/v1/jobs", {
            "kind": "gen",
            "spec": {"pattern": "migratory", "configs": ["Base", "B+M+I"]},
        })
        final = server.wait(sub["id"])
        assert final["state"] == "done"
        assert final["result"]["coherent"] is True

        st, sub = server.request("POST", "/v1/jobs", {
            "kind": "lint", "spec": {"workloads": ["fft", "mp_flag"]},
        })
        final = server.wait(sub["id"])
        assert final["state"] == "done"
        assert final["result"]["clean"] is True

    def test_chaos_job_clean(self, server):
        st, sub = server.request("POST", "/v1/jobs", {
            "kind": "chaos",
            "spec": {"plans": 2, "workloads": ["mp_flag", "lock_counter"]},
        })
        final = server.wait(sub["id"])
        assert final["state"] == "done"
        assert final["result"]["kind"] == "chaos"
        assert final["result"]["clean"] is True

    def test_shutdown_drains(self, tmp_path):
        cfg = ServerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        srv = LocalServer(cfg)
        with srv:
            st, doc = srv.request("POST", "/v1/shutdown")
            assert st == 200 and doc["draining"]
        # close() after shutdown is a no-op; the loop thread exited
        assert not srv._thread.is_alive()
