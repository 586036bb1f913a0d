"""Tests for the persistent sweep-result cache."""

import json

from repro.common.params import intra_block_machine
from repro.core.config import INTRA_BMI, INTRA_HCC
from repro.eval.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cell_key,
    default_cache_dir,
    describe_cell,
    payload_digest,
)
from repro.eval.parallel import SweepCell, _run_cell

SMALL = dict(num_threads=4, scale=0.5, machine_params=intra_block_machine(4))


def cell(app="volrend", config=INTRA_BMI, **overrides):
    kw = {**SMALL, **overrides}
    return SweepCell.make("intra", app, config, **kw)


class TestCacheKey:
    def test_key_is_stable(self):
        assert cell_key(cell()) == cell_key(cell())

    def test_key_ignores_kwarg_order(self):
        a = SweepCell.make("intra", "volrend", INTRA_BMI, scale=0.5, num_threads=4)
        b = SweepCell.make("intra", "volrend", INTRA_BMI, num_threads=4, scale=0.5)
        assert cell_key(a) == cell_key(b)

    def test_key_varies_with_every_identity_field(self):
        base = cell_key(cell())
        assert cell_key(cell(app="raytrace")) != base
        assert cell_key(cell(config=INTRA_HCC)) != base
        assert cell_key(cell(scale=0.25)) != base
        assert cell_key(cell(verify=False)) != base
        assert (
            cell_key(cell(machine_params=intra_block_machine(4, overlap=0.9)))
            != base
        )

    def test_default_machine_hashes_like_explicit(self):
        implicit = SweepCell.make("intra", "volrend", INTRA_BMI, num_threads=4)
        explicit = SweepCell.make(
            "intra", "volrend", INTRA_BMI, num_threads=4,
            machine_params=intra_block_machine(4),
        )
        assert cell_key(implicit) == cell_key(explicit)

    def test_describe_cell_names_the_invalidating_fields(self):
        d = describe_cell(cell())
        for field in ("schema", "version", "kind", "app", "config", "machine",
                      "geometry", "scale", "verify", "memory_model"):
            assert field in d

    def test_key_varies_with_memory_model(self):
        assert cell_key(cell(model="rc")) != cell_key(cell())
        assert cell_key(cell(model="rc")) != cell_key(cell(model="sisd"))

    def test_default_model_hashes_like_explicit_base(self):
        # model=None resolves to the base model, so both spellings must
        # address the same entry.
        assert cell_key(cell(model="base")) == cell_key(cell())

    def test_hcc_config_coerces_model_key(self):
        # Hardware-coherent configurations always run MESI: the requested
        # model is irrelevant to the result, so it must not split the key.
        assert cell_key(cell(config=INTRA_HCC, model="rc")) == cell_key(
            cell(config=INTRA_HCC)
        )
        assert describe_cell(cell(config=INTRA_HCC))["memory_model"] == "hcc"

    def test_key_ignores_the_environment(self, monkeypatch):
        # No environment variable selects the model: an unset model keys
        # as the default whatever the process environment holds.
        monkeypatch.setenv("REPRO_MODEL", "rc")
        assert cell_key(cell()) == cell_key(cell(model="base"))


class TestResultCache:
    def test_miss_then_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        assert cache.get(c) is None
        result = _run_cell(c)
        path = cache.put(c, result)
        assert path.is_file()
        back = cache.get(c)
        assert back is not None
        assert back.exec_time == result.exec_time
        assert back.breakdown() == result.breakdown()
        assert back.stats.summary() == result.stats.summary()
        assert cache.hits == 1 and cache.misses == 1

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _run_cell(cell())
        cache.put(cell(), result)
        cache.put(cell(app="raytrace"), _run_cell(cell(app="raytrace")))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.get(cell()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        path = cache.put(c, _run_cell(c))
        path.write_text("{not json")
        assert cache.get(c) is None

    def test_entry_payload_is_inspectable(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        path = cache.put(c, _run_cell(c))
        payload = json.loads(path.read_text())
        assert payload["cell"]["app"] == "volrend"
        assert payload["cell"]["geometry"] == {"num_threads": 4}
        assert payload["key"] == cell_key(c)

    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().root == tmp_path / "elsewhere"

    def test_default_root_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro-sweeps"


class TestIntegrity:
    """Checksummed entries, quarantine, and self-healing (ISSUE 9)."""

    def test_entries_carry_a_verifiable_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        path = cache.put(c, _run_cell(c))
        doc = json.loads(path.read_text())
        assert doc["sha256"] == payload_digest(doc)
        assert doc["cell"]["schema"] == CACHE_SCHEMA

    def test_truncated_entry_is_a_miss_not_an_exception(self, tmp_path):
        """Regression: a crash mid-write must read back as a miss."""
        cache = ResultCache(tmp_path)
        c = cell()
        path = cache.put(c, _run_cell(c))
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])  # torn file
        assert cache.get(c) is None
        assert cache.corrupt_detected == 1

    def test_bitflip_is_detected_and_never_served(self, tmp_path):
        """A parseable-but-tampered entry must fail the checksum."""
        cache = ResultCache(tmp_path)
        c = cell()
        path = cache.put(c, _run_cell(c))
        doc = json.loads(path.read_text())
        doc["result"]["stats"]["exec_time"] += 1
        path.write_text(json.dumps(doc))  # checksum now stale
        assert cache.get(c) is None
        assert cache.corrupt_detected == 1

    def test_corrupt_entry_is_quarantined_then_healed(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        result = _run_cell(c)
        path = cache.put(c, result)
        path.write_text("garbage")
        assert cache.get(c) is None  # detected -> quarantined -> miss
        assert not path.exists()
        q = list(cache.quarantine_dir.glob("*.corrupt"))
        assert len(q) == 1 and q[0].read_text() == "garbage"
        # self-heal: recompute + put rewrites the same key
        cache.put(c, result)
        back = cache.get(c)
        assert back is not None and back.exec_time == result.exec_time
        assert cache.counters()["quarantined"] == 1

    def test_quarantined_files_are_not_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        path = cache.put(c, _run_cell(c))
        path.write_text("junk")
        cache.get(c)
        assert len(cache) == 0

    def test_verify_classifies_ok_stale_and_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        cache.put(c, _run_cell(c))
        other = cache.put(cell(app="raytrace"), _run_cell(cell(app="raytrace")))
        other.write_text(other.read_text()[:40])  # corrupt one
        # forge a healthy entry from an older cache schema
        stale_doc = json.loads(
            cache.put(cell(scale=0.25), _run_cell(cell(scale=0.25))).read_text()
        )
        stale_doc["cell"]["schema"] = CACHE_SCHEMA - 1
        stale_doc["sha256"] = payload_digest(stale_doc)
        stale_path = cache._path(stale_doc["key"])
        stale_path.write_text(json.dumps(stale_doc))
        report = cache.verify()
        assert report["checked"] == 3
        assert report["ok"] == 1
        assert report["stale"] == 1
        assert report["corrupt"] == 1
        assert str(other) in report["corrupt_paths"]

    def test_gc_reclaims_stale_and_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        c = cell()
        cache.put(c, _run_cell(c))
        bad = cache.put(cell(app="raytrace"), _run_cell(cell(app="raytrace")))
        bad.write_text("xx")
        report = cache.gc()
        assert report["corrupt_quarantined"] == 1
        assert report["quarantine_removed"] >= 1
        assert report["kept"] == 1
        assert cache.get(c) is not None

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cell(), _run_cell(cell()))
        doc = cache.stats()
        assert doc["entries"] == 1 and doc["bytes"] > 0
        assert doc["by_schema"] == {str(CACHE_SCHEMA): 1}
        assert doc["quarantined_files"] == 0
