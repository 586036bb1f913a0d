"""Golden-file regression tests for the lint reports.

The extraction scheduler and the checker are deterministic, so the full
JSON report for the canary kernel is stable byte-for-byte.  Any change to
the edge derivation, rule attribution, aggregation, or report schema shows
up here as a readable diff.  The ``repro lint --all-workloads`` summary
pins the op and communication-edge counts the extractor derives from
every workload, batch expansions included.

To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.cli import main
from tests.analysis.helpers import lint_litmus

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, rendered: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden file {path} missing — run with REPRO_UPDATE_GOLDEN=1"
    )
    assert rendered + "\n" == path.read_text(), (
        f"{name} drifted from its golden copy; if the change is intended, "
        f"regenerate with REPRO_UPDATE_GOLDEN=1"
    )


def test_canary_json_report_golden():
    report = lint_litmus("missing_annotations")
    rendered = json.dumps(report.to_dict(), indent=1, sort_keys=True)
    check_golden("lint_canary.json", rendered)


def test_broken_lock_handoff_text_report_golden():
    report = lint_litmus("lock_handoff_three_threads_broken")
    check_golden("lint_lock_handoff_broken.txt", report.render())


def test_all_workloads_text_summary_golden(capsys):
    assert main(["lint", "--all-workloads"]) == 0
    check_golden("lint_all_workloads.txt", capsys.readouterr().out.rstrip("\n"))
