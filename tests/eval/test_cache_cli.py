"""``repro cache stats|verify|gc`` on a filled cache with one corrupt entry."""

from __future__ import annotations

import json

from repro.cli import main


def _cache(capsys, *args) -> tuple[int, dict]:
    """Run ``repro cache ... --json``; return (exit status, report)."""
    capsys.readouterr()
    status = main(["cache", *args, "--json"])
    return status, json.loads(capsys.readouterr().out)


def test_verify_quarantines_a_corrupt_entry_and_gc_clears_it(
    tmp_path, capsys, monkeypatch,
):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    assert main(["fig11", "--scale", "0.25", "--jobs", "1"]) == 0

    status, stats = _cache(capsys, "stats")
    assert status == 0
    entries = stats["entries"]
    assert entries == 8 and stats["quarantined_files"] == 0
    status, report = _cache(capsys, "verify")
    assert (status, report["ok"], report["corrupt"]) == (0, entries, 0)

    victim = sorted(root.glob("*/*.json"))[0]
    # A one-digit edit: valid JSON, wrong checksum.
    text = victim.read_text()
    victim.write_text(text.replace('"exec_time": ', '"exec_time": 1', 1))
    status, report = _cache(capsys, "verify", "--no-repair")
    assert (status, report["corrupt"], report["repaired"]) == (1, 1, 0)
    assert victim.exists()

    status, report = _cache(capsys, "verify")
    assert (status, report["corrupt"], report["repaired"]) == (1, 1, 1)
    assert report["corrupt_paths"] == [str(victim)]
    assert not victim.exists()
    quarantined = sorted(p.name for p in (root / "quarantine").iterdir())
    moved = victim.name + ".corrupt"
    assert quarantined == [moved, moved + ".reason"]
    status, stats = _cache(capsys, "stats")
    assert (stats["entries"], stats["quarantined_files"]) == (entries - 1, 1)

    status, report = _cache(capsys, "gc")
    assert status == 0
    assert report == {
        "stale_removed": 0, "quarantine_removed": 2,
        "corrupt_quarantined": 0, "kept": entries - 1,
    }
    status, report = _cache(capsys, "verify")
    assert (status, report["ok"], report["corrupt"]) == (0, entries - 1, 0)
    assert _cache(capsys, "stats")[1]["quarantined_files"] == 0
