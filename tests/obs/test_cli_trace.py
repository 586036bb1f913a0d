"""CLI tests for `repro trace` and the figure commands' --trace/--metrics."""

from __future__ import annotations

import json
import pathlib

from repro.cli import main
from repro.obs import validate_jsonl


def test_trace_subcommand_writes_valid_outputs(tmp_path, capsys):
    out = tmp_path / "cell.jsonl"
    chrome = tmp_path / "cell.chrome.json"
    metrics = tmp_path / "cell.metrics.json"
    rc = main([
        "trace", "volrend", "--config", "B+M+I", "--scale", "0.5",
        "--out", str(out), "--chrome", str(chrome), "--metrics", str(metrics),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "verified OK" in printed
    assert "exec time" in printed
    assert validate_jsonl(out) > 0
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"][0]["ph"] == "X"
    snap = json.loads(metrics.read_text())
    assert "counters" in snap and "histograms" in snap


def test_trace_subcommand_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["trace", "volrend", "--scale", "0.5"])
    assert rc == 0
    # Default config is B+M+I; default output name comes from the cell.
    assert (tmp_path / "volrend-BMI.trace.jsonl").exists()


def test_trace_subcommand_unknown_workload():
    assert main(["trace", "doom"]) == 2


#: The plain ``repro fig10 --scale 0.25`` table (tests/core/test_cli_golden.py).
FIG10_GOLDEN = pathlib.Path(__file__).parents[1] / "core" / "golden" / "fig10.txt"


def test_fig10_with_trace_and_metrics(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    metrics_path = tmp_path / "m.json"
    rc = main([
        "fig10", "--scale", "0.25",
        "--trace", str(trace_dir), "--metrics", str(metrics_path),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    # Tracing is neutral: the traced table is the untraced one, byte for byte.
    assert captured.out == FIG10_GOLDEN.read_text()
    jsonls = list(trace_dir.glob("*.trace.jsonl"))
    assert jsonls, "no per-cell traces written"
    for path in jsonls:
        assert validate_jsonl(path) > 0
    per_cell = json.loads(metrics_path.read_text())
    assert all({"HCC", "B+M+I"} <= set(v) for v in per_cell.values())
