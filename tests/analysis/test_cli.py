"""CLI-level tests for ``repro lint``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_lint_clean_litmus_kernel_exits_zero(capsys):
    assert main(["lint", "mp_flag"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_lint_canary_exits_nonzero(capsys):
    assert main(["lint", "missing_annotations"]) == 1
    out = capsys.readouterr().out
    assert "WB-FLAG" in out and "INV-FLAG" in out
    assert "docs/ANNOTATIONS.md#wb-flag" in out


def test_lint_fix_canary_verifies_and_exits_zero(capsys):
    assert main(["lint", "missing_annotations", "--fix"]) == 0
    out = capsys.readouterr().out
    assert "fix verified" in out


def test_lint_litmus_cross_validation_exits_zero():
    assert main(["lint", "--litmus"]) == 0


def test_lint_json_report_shape(capsys):
    assert main(["lint", "mp_barrier", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "lint" and doc["clean"] is True
    payload = doc["reports"]["mp_barrier"]
    assert payload["name"] == "mp_barrier"
    assert payload["summary"]["errors"] == 0
    assert payload["findings"] == []
    assert payload["machine"]["threads"] == 4
    # litmus targets carry their documented expectation
    assert payload["expected_rules"] == [] and payload["as_expected"] is True


def test_lint_json_error_findings(capsys):
    assert main(["lint", "missing_wb_barrier", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["clean"] is False
    (finding,) = doc["reports"]["missing_wb_barrier"]["findings"]
    assert finding["rule"] == "WB-BAR"
    assert finding["severity"] == "error"


def test_lint_rejects_hcc():
    assert main(["lint", "mp_flag", "--config", "HCC"]) == 2


def test_lint_unknown_target():
    assert main(["lint", "no_such_kernel"]) == 2


def test_lint_requires_a_target():
    assert main(["lint"]) == 2


def test_lint_workload_clean(capsys):
    assert main(["lint", "volrend", "--scale", "0.5"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_dump_cfg(capsys):
    assert main(["lint", "mp_flag", "--dump-cfg"]) == 0
    out = capsys.readouterr().out
    assert "thread 0" in out and "segment" in out
