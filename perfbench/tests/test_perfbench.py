"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import servemix  # noqa: E402
import sim  # noqa: E402
from report import Outcome, result_line  # noqa: E402

from repro.core.config import (  # noqa: E402
    INTER_ADDR_L,
    INTRA_BASE,
    INTRA_BMI,
    INTRA_HCC,
    intra_config,
)
from repro.workloads import MODEL_TWO  # noqa: E402
from repro.workloads.gen import run_gen  # noqa: E402

# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n, ceiling, expected", [
    (9, 99.9, 50.0),      # too few for any tail: fall back to the median
    (20, 99.9, 50.0),
    (39, 99.9, 50.0),
    (40, 99.9, 75.0),     # exactly ten beyond p75
    (100, 99.9, 90.0),
    (199, 99.9, 90.0),
    (200, 99.9, 95.0),
    (1000, 99.9, 99.0),
    (10000, 99.9, 99.9),
    (165, 90.0, 90.0),
    (5000, 95.0, 95.0),   # a faster program never raises the percentile
    (60, 90.0, 75.0),     # ... but too few samples still lower it
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, ceiling, expected):
    q = measure.tail_percentile(n, ceiling)
    assert q == expected
    samples = list(range(n))
    beyond = sum(s > measure.percentile(samples, q) for s in samples)
    assert q == 50.0 or beyond >= measure.MIN_BEYOND


def test_latency_summary_reports_percentile_and_count():
    samples = [i / 1000 for i in range(1, 101)]  # 1..100 ms
    lat = measure.latency_summary(samples, 99.9)
    assert lat == {"p50_ms": 50.0, "tail_ms": 90.0, "tail_pct": 90.0,
                   "samples": 100}


# -- failure accounting --------------------------------------------------------


def test_known_failures_count_but_keep_the_run_correct():
    out = Outcome("w", attempted=3,
                  failures={"a": "AssertionError: progress total 145 != 128"},
                  known={"a": "progress total 145 != 128"})
    assert out.correct
    line = json.loads(result_line(out, [{"name": "m", "unit": "s"}], {"m": 1}))
    assert line == {"correct": True, "attempted": 3, "failed": 1,
                    "metrics": {"m": {"value": 1.0, "unit": "s"}}}


@pytest.mark.parametrize("failures", [
    {"b": "AssertionError: wrong"},                 # not a known defect
    {"a": "AssertionError: progress total 1 != 2"},  # known op, other reason
])
def test_unexpected_failures_make_the_run_incorrect(failures):
    out = Outcome("w", attempted=3, failures=failures,
                  known={"a": "progress total 145 != 128"})
    assert not out.correct
    assert json.loads(result_line(out, [], {}))["failed"] == 1


def test_result_line_refuses_a_missing_metric():
    with pytest.raises(KeyError):
        result_line(Outcome("w", attempted=1), [{"name": "m", "unit": "s"}], {})


def test_a_failing_cell_is_recorded_and_the_pass_continues():
    bad = sim.Cell("intra", "no_such_app", INTRA_HCC, "base")
    good = sim.Cell("intra", "volrend", INTRA_HCC, "base")
    runs = sim.run_pass([bad, good], measure.Spans(enabled=False))
    assert runs[0].error.startswith("KeyError")
    assert runs[1].error is None and runs[1].stats.exec_time > 0


def test_known_sisd_raytrace_defect_still_fails_as_listed():
    cell = sim.Cell("intra", "raytrace", INTRA_BASE, "sisd")
    run = sim.run_cell(cell, measure.Spans(enabled=False))
    assert cell.id in sim.KNOWN_FAILURES
    assert sim.KNOWN_FAILURES[cell.id] in run.error
    assert run.stats is not None  # simulated, then failed its verifier


def test_served_results_are_checked_bit_for_bit():
    job = servemix.job_lists(7, 0)[0][0]
    direct = run_gen(job.spec, intra_config(job.config), memory_digest=True,
                     engine=servemix.ENGINE).to_dict()
    tampered = json.loads(json.dumps(direct))
    tampered["stats"]["exec_time"] += 1

    def record(cells, error=None):
        rec = servemix.JobRecord(job, f"op{len(cells)}{error}", error=error)
        rec.detail = {"result": {"cells": cells, "coherent": True}}
        return rec

    failures = servemix.check([
        record({job.config: direct}),
        record({job.config: tampered}),
        record({}, error="job failed: boom"),
    ])
    assert list(failures.values()) == [
        "served result differs from direct run_gen", "job failed: boom"]


# -- determinism and seeds -------------------------------------------------------


def _small_matrix(seed):
    return [
        sim.Cell("intra", "volrend", INTRA_HCC, "base"),
        sim.Cell("intra", "volrend", INTRA_BMI, "rc"),
        sim.Cell("inter", "cg", INTER_ADDR_L, "base", seed),
    ]


def _fingerprint(runs):
    return measure.fingerprint(sim.stats_by_cell(runs))


def test_two_in_process_runs_give_the_same_fingerprint():
    first = sim.run_pass(_small_matrix(1), measure.Spans())
    second = sim.run_pass(_small_matrix(1), measure.Spans(enabled=False))
    assert all(r.error is None for r in first + second)
    assert _fingerprint(first) == _fingerprint(second)
    other_seed = sim.run_pass(_small_matrix(2), measure.Spans(enabled=False))
    assert _fingerprint(other_seed) != _fingerprint(first)


def test_traced_pass_records_one_span_per_layer_per_cell():
    spans = measure.Spans()
    sim.run_pass(_small_matrix(0), spans)
    names = [r["name"] for r in spans.records]
    assert names.count("cell") == 3
    for layer in ("core.build", "workloads.prepare", "sim.run",
                  "workloads.verify"):
        assert names.count(layer) == 3
    cells = [r for r in spans.records if r["name"] == "cell"]
    for rec in spans.records:
        if rec["name"] != "cell":
            parent = spans.records[rec["parent"]]
            assert parent["name"] == "cell" and rec["cell"] == parent["cell"]
            assert parent["start"] <= rec["start"] <= rec["end"] <= parent["end"]
    assert [c["parent"] for c in cells] == [None] * 3


def test_seed_zero_nas_inputs_are_fig12s():
    def shape(program):  # the IR, minus the addresses of its closures
        return re.sub(r" at 0x[0-9a-f]+", "", repr(program))

    for app, build in sim.NAS_BUILDERS.items():
        program, preloads = build(0)
        ref_program, ref_preloads = MODEL_TWO[app]().build()
        assert shape(program) == shape(ref_program), app
        assert preloads == ref_preloads, app
        assert build(1)[1] != preloads, app


def test_serve_job_lists_are_seeded_and_half_repeats():
    lists = servemix.job_lists(5, 0)
    assert lists == servemix.job_lists(5, 0)
    assert lists != servemix.job_lists(6, 0)
    assert lists != servemix.job_lists(5, 1)
    assert len(lists) == servemix.CLIENTS
    for jobs in lists:
        assert len(jobs) == servemix.JOBS_PER_CLIENT
        for i, job in enumerate(jobs):
            assert job.repeat == (i % 2 == 1)
            if job.repeat:  # repeats a job this client already finished
                earlier = {j.id for j in jobs[:i] if not j.repeat}
                assert job.id in earlier


def test_package_of_groups_profiled_code_by_repro_package():
    assert measure.package_of("~") == "builtins"
    assert measure.package_of("/x/src/repro/engines/fastcpu.py") == "engines"
    assert measure.package_of("/x/src/repro/cli.py") is None
    assert measure.package_of("/usr/lib/python3/json/__init__.py") is None


def test_nominal_seconds_cancel_the_host_speed():
    ref = measure.REF_SECONDS
    assert measure.nominal(2.0, ref, ref) == pytest.approx(2.0)
    assert measure.nominal(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert measure.nominal(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert measure.reference_work() == measure.reference_work()
    runs = sim.run_pass(_small_matrix(0)[:1], measure.Spans(enabled=False))
    assert runs[0].nominal_s > 0
    uncalibrated = sim.run_pass(_small_matrix(0)[:1], measure.Spans(enabled=False),
                                calibrate=False)
    assert uncalibrated[0].nominal_s == 0.0


def _declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("trace", [False, True])
def test_sim_measure_reports_every_declared_metric(monkeypatch, trace):
    matrix = [sim.Cell("intra", "volrend", cfg, "base")
              for cfg in (INTRA_HCC, INTRA_BMI)]
    monkeypatch.setattr(sim, "cells", lambda workload, seed: matrix)
    out = sim.measure("splash_fig9", 1, 0.0, trace)
    assert out.correct and out.attempted == 2
    if trace:
        assert set(out.per_layer) == _declared("per_layer")
        assert out.per_layer["sim.events"] > 0 and out.spans.records
    else:
        assert set(out.end_to_end) | {"setup_s", "peak_rss_mb"} == _declared(
            "end_to_end")
        assert all(v > 0 for v in out.end_to_end.values())


@pytest.mark.parametrize("trace", [False, True])
def test_serve_measure_reports_every_declared_metric(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(servemix, "JOBS_PER_CLIENT", 4)
    out = servemix.measure(3, 0.0, trace, str(tmp_path))
    passes = servemix.HEAD_PASSES
    assert out.correct and out.attempted == passes * servemix.CLIENTS * 4
    if trace:
        assert set(out.per_layer) == _declared("per_layer")
        assert out.per_layer["eval.cache_hit_ratio"] == 0.5
    else:
        assert set(out.end_to_end) | {"setup_s", "peak_rss_mb"} == _declared(
            "end_to_end")
        assert all(v > 0 for v in out.end_to_end.values())
    again = servemix.measure(3, 0.0, not trace, str(tmp_path))
    assert again.fingerprint == out.fingerprint  # traced or not, same seed


# -- the command -------------------------------------------------------------------


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "splash_fig9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
