"""Golden stdout for the job-shaped CLI subcommands.

``repro gen``/``litmus``/``chaos``/``lint``/``fleet``, the figure commands
and ``run`` print text rendered from their result documents.  These tests
pin that text byte-for-byte for one small invocation each, so a change to the lowering, the executor
plumbing, or a renderer that shifts a single character shows up as a
readable diff.  Only the sweep-summary line's host-dependent parts (wall
time, worker count, pool retries/fallbacks) are masked; each command runs
against a fresh result cache so the hit/miss counts are stable.

To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/core/test_cli_golden.py
"""

from __future__ import annotations

import os
import pathlib
import re

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: (golden file, argv, expected exit status)
COMMANDS = [
    ("lint_mp_flag.txt", ["lint", "mp_flag"], 0),
    ("lint_litmus.txt", ["lint", "--litmus"], 0),
    ("litmus_direct.txt", ["litmus", "mp_flag", "lock_counter"], 0),
    (
        "litmus_matrix.txt",
        ["litmus", "--matrix", "--models", "base,rc", "--engines", "ref"],
        0,
    ),
    (
        "chaos_mp_flag.txt",
        ["chaos", "--workload", "mp_flag", "--plans", "2", "--seed", "1"],
        0,
    ),
    ("fleet_2.txt", ["fleet", "--scenarios", "2", "--seed", "1"], 0),
    ("gen_zipf_hot.txt", ["gen", "zipf_hot", "--seed", "7"], 0),
    ("fig9.txt", ["fig9", "--scale", "0.25"], 0),
    ("fig10.txt", ["fig10", "--scale", "0.25"], 0),
    ("fig11.txt", ["fig11", "--scale", "0.25"], 0),
    ("fig12.txt", ["fig12", "--scale", "0.25"], 0),
    (
        "fig11_rc_fast.txt",
        ["fig11", "--scale", "0.25", "--model", "rc", "--engine", "fast"],
        0,
    ),
    ("run_volrend.txt", ["run", "volrend", "--scale", "0.4"], 0),
    ("run_ep.txt", ["run", "ep", "--scale", "0.25"], 0),
]

_TIMING = re.compile(r"in \d+\.\d+s, jobs=\d+")
_POOL_NOISE = re.compile(r", \d+ (?:retry\(ies\)|serial fallback\(s\))")


def mask(text: str) -> str:
    """Blank the host-dependent parts of every sweep-summary line."""
    text = _TIMING.sub("in <wall>s, jobs=<n>", text)
    return _POOL_NOISE.sub("", text)


@pytest.mark.parametrize(
    "golden,argv,status", COMMANDS, ids=[c[0][:-4] for c in COMMANDS]
)
def test_cli_text_matches_golden(golden, argv, status, tmp_path, capsys,
                                 monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # Unset for the command, and restored afterwards whatever it does.
    monkeypatch.setenv("REPRO_ENGINE", "")
    monkeypatch.delenv("REPRO_ENGINE")
    assert main(argv) == status
    rendered = mask(capsys.readouterr().out)
    path = GOLDEN_DIR / golden
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden file {path} missing — run with REPRO_UPDATE_GOLDEN=1"
    )
    assert rendered == path.read_text(), (
        f"`repro {' '.join(argv)}` drifted from {golden}; if the change is "
        "intended, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
