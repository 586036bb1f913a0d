"""Tests for the BENCH_*.json trajectory helpers (repro.eval.bench)."""

import json

import pytest

from repro.eval import bench


class TestPercentile:
    def test_single_sample(self):
        assert bench.percentile([2.5], 95) == 2.5

    def test_nearest_rank_p50_p95(self):
        samples = [float(i) for i in range(1, 101)]
        assert bench.percentile(samples, 50) == 50.0
        assert bench.percentile(samples, 95) == 95.0

    def test_unsorted_input(self):
        assert bench.percentile([3.0, 1.0, 2.0], 95) == 3.0


class TestMeasure:
    def test_warmup_runs_not_timed(self):
        calls = []
        result, seconds = bench.measure(
            lambda: calls.append(1) or len(calls), warmup=2, repeat=3
        )
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert result == 5  # last timed run's return value
        assert len(seconds) == 3
        assert all(s >= 0 for s in seconds)

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            bench.measure(lambda: None, repeat=0)


class TestRecord:
    def test_payload_shape(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        payload = bench.record("probe", [0.2, 0.1, 0.3], warmup=1,
                               extra={"scale": 0.5})
        assert payload["name"] == "probe"
        assert payload["engine"] == "fast"
        assert payload["median_s"] == 0.2
        assert payload["p95_s"] == 0.3
        assert payload["runs_s"] == [0.2, 0.1, 0.3]
        assert payload["warmup"] == 1
        assert payload["scale"] == 0.5
        assert payload["git_rev"]  # non-empty ("unknown" outside a checkout)
        assert payload["timestamp"]
        assert payload["peak_rss_mb"] > 0

    def test_peak_rss_is_the_high_water_mark(self):
        block = bytearray(48 << 20)
        block[::4096] = b"\x01" * len(range(0, len(block), 4096))
        held = bench.peak_rss_mb()
        del block  # freed, but the high-water mark stays
        payload = bench.record("probe", [1.0])
        assert held >= 48
        assert payload["peak_rss_mb"] >= round(held, 1)

    def test_engine_defaults_to_ref(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert bench.record("probe", [1.0])["engine"] == "ref"

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert bench.record("probe", [1.0], engine="ref")["engine"] == "ref"

    def test_empty_env_records_the_engine_that_ran(self, monkeypatch):
        """``REPRO_ENGINE=""`` resolves to ``ref``; the record says so."""
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert bench.record("probe", [1.0])["engine"] == "ref"

    def test_cli_records_the_resolved_engine_and_model(self, monkeypatch,
                                                       tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_ENGINE", "")
        monkeypatch.setenv("REPRO_MODEL", "")
        out = tmp_path / "bench.json"
        assert main(["bench", "fig12", "--scale", "0.1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert (payload["engine"], payload["model"]) == ("ref", "base")
        assert payload["cpu_loops"] == {"reference": 16}  # 4 apps x 4 configs
        assert payload["peak_rss_mb"] > 0

    def test_cli_records_the_fused_loop(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["bench", "fig12", "--engine", "fast", "--model", "sisd",
                     "--scale", "0.1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["cpu_loops"] == {"fused": 16}


class TestWriteJson:
    def test_default_path_under_repo_root(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        payload = bench.record("fig9", [1.5])
        path = bench.write_bench_json(payload)
        assert path == tmp_path / "BENCH_fig9.json"
        on_disk = json.loads(path.read_text())
        assert on_disk == payload

    def test_explicit_out_path(self, tmp_path):
        payload = bench.record("fig9", [1.5])
        path = bench.write_bench_json(payload, out=tmp_path / "custom.json")
        assert path == tmp_path / "custom.json"
        assert json.loads(path.read_text())["name"] == "fig9"
