"""TuneDB storage behaviour: tiers, containment, maintenance."""

import json

import pytest

from repro.core.serialize import _config_to_dict
from repro.hw import AMPERE
from repro.tune import (
    DB_FORMAT_VERSION,
    GuidedTuner,
    TuneDB,
    TuneDBError,
    TuneEntry,
    gpu_fingerprint,
    kernel_fingerprint,
)

from .conftest import make_kernel


def entry(fp="a" * 24, best=1.5, **kw):
    defaults = dict(
        fingerprint=fp, gpu="gpu-x", kernel_name="k",
        config={"block": [["m", 8]], "tile": 16},
        best_time=best, tuning_wall_time=120.0,
        configs_evaluated=4, configs_quit_early=2,
    )
    defaults.update(kw)
    return TuneEntry(**defaults)


class TestRoundtrip:
    def test_memory_only(self):
        db = TuneDB()
        assert db.get("a" * 24) is None
        db.put(entry())
        got = db.get("a" * 24)
        assert got is not None and got.best_time == 1.5
        assert db.mem_hits == 1 and db.misses == 1

    def test_disk_roundtrip_fresh_instance(self, tmp_path):
        TuneDB(tmp_path).put(entry())
        got = TuneDB(tmp_path).get("a" * 24)
        assert got is not None
        assert got.config == {"block": [["m", 8]], "tile": 16}
        assert got.tuning_wall_time == 120.0
        assert got.created > 0  # stamped at put time

    def test_entry_dict_roundtrip(self):
        e = entry()
        assert TuneEntry.from_dict(e.to_dict()).to_dict() == e.to_dict()

    def test_put_without_fingerprint_raises(self):
        with pytest.raises(TuneDBError):
            TuneDB().put(entry(fp=""))


class TestUpgrade:
    #: Keys an entry written before the format dropped its predictor
    #: samples carries and a current one does not.
    DROPPED = ("feature_version", "kernel_features", "samples")

    def test_entry_with_predictor_samples_replays_and_rewrites_without(
            self, tmp_path, small_mha):
        """An older entry (same format version, plus feature vectors and
        campaign samples) is a hit a fresh database replays in one timing
        call; putting it again writes none of the dropped keys."""
        gpu_key = gpu_fingerprint(AMPERE)
        kernel = make_kernel(small_mha, 6)
        fp = kernel_fingerprint(kernel, gpu_key)
        winner = kernel.search_space[2]
        (tmp_path / f"{fp}.json").write_text(json.dumps({
            "format_version": 1, "fingerprint": fp, "gpu": gpu_key,
            "kernel_name": "k", "config": _config_to_dict(winner),
            "best_time": 1.0, "tuning_wall_time": 600.0,
            "configs_evaluated": 6, "configs_quit_early": 3,
            "feature_version": 1, "kernel_features": [1.0, 2.0],
            "samples": [[[1.0, 2.0, 3.0], 1.0]] * 6, "created": 1.0}))

        calls = []

        def timing(k, cfg):
            calls.append(cfg)
            return 1.0 if cfg == winner else 2.0

        db = TuneDB(tmp_path)
        res = GuidedTuner(db, gpu_key).tune(kernel, timing)
        assert calls == [winner] and res.best_config == winner
        assert (db.disk_hits, db.misses) == (1, 0)

        TuneDB(tmp_path / "again").put(db.get(fp))
        written = json.loads((tmp_path / "again" / f"{fp}.json").read_text())
        assert not set(self.DROPPED) & set(written)
        assert written["config"] == _config_to_dict(winner)


class TestLRU:
    def test_capacity_bound(self):
        db = TuneDB(capacity=2)
        for i in range(4):
            db.put(entry(fp=f"{i:024d}"))
        assert len(db.entries()) == 2
        # Oldest evicted, newest retained.
        assert db.get(f"{0:024d}") is None
        assert db.get(f"{3:024d}") is not None

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        TuneDB(tmp_path).put(entry())
        db = TuneDB(tmp_path)
        assert db.get("a" * 24) is not None
        assert db.disk_hits == 1
        assert db.get("a" * 24) is not None
        assert db.mem_hits == 1  # second read served from the LRU


class TestContainment:
    def test_corrupt_entry_is_miss_and_deleted(self, tmp_path):
        db = TuneDB(tmp_path)
        path = tmp_path / ("a" * 24 + ".json")
        path.write_text("{not json")
        assert db.get("a" * 24) is None
        assert not path.exists()
        assert db.misses == 1

    def test_version_mismatch_is_miss_and_deleted(self, tmp_path):
        db = TuneDB(tmp_path)
        payload = entry().to_dict()
        payload["format_version"] = DB_FORMAT_VERSION + 1
        path = tmp_path / ("a" * 24 + ".json")
        path.write_text(json.dumps(payload))
        assert db.get("a" * 24) is None
        assert not path.exists()

    def test_invalidate_drops_both_tiers(self, tmp_path):
        db = TuneDB(tmp_path)
        db.put(entry())
        db.invalidate("a" * 24)
        assert db.get("a" * 24) is None
        assert not (tmp_path / ("a" * 24 + ".json")).exists()


class TestMaintenance:
    def test_export_skips_unreadable(self, tmp_path):
        db = TuneDB(tmp_path)
        db.put(entry())
        (tmp_path / ("b" * 24 + ".json")).write_text("junk")
        dumped = db.export()
        assert len(dumped) == 1
        assert dumped[0]["fingerprint"] == "a" * 24

    def test_prune_keep_most_recent(self, tmp_path):
        db = TuneDB(tmp_path)
        for i in range(5):
            db.put(entry(fp=f"{i:024d}", created=float(i + 1)))
        removed = db.prune(keep=2)
        assert removed == 3
        remaining = {e["fingerprint"] for e in db.export()}
        assert remaining == {f"{3:024d}", f"{4:024d}"}

    def test_prune_max_age(self, tmp_path):
        db = TuneDB(tmp_path)
        db.put(entry(fp="c" * 24, created=1.0))  # ancient
        db.put(entry(fp="d" * 24))               # stamped now
        assert db.prune(max_age_s=3600.0) == 1
        assert [e["fingerprint"] for e in db.export()] == ["d" * 24]

    def test_prune_removes_corrupt_files(self, tmp_path):
        db = TuneDB(tmp_path)
        (tmp_path / ("e" * 24 + ".json")).write_text("junk")
        assert db.prune() == 1
        assert db.export() == []


class TestModelEntryMaintenance:
    """Model entries (``models/``) are counted, aged and bounded next to
    the kernel entries, never mistaken for one."""

    def _model(self, db, key, age_s=0.0):
        import os
        import time

        db.models.directory.mkdir(exist_ok=True)
        db.models.write(key, "{}")
        stamp = time.time() - age_s
        os.utime(db.models.path(key), (stamp, stamp))

    def test_disk_stats_count_model_entries_apart(self, tmp_path):
        db = TuneDB(tmp_path)
        db.put(entry())
        self._model(db, "m" * 24)
        stats = db.disk_stats()
        assert (stats["disk_entries"], stats["model_entries"]) == (1, 1)
        assert stats["model_bytes"] == 2
        assert stats["disk_bytes"] == (tmp_path / ("a" * 24 + ".json")
                                       ).stat().st_size

    def test_kernel_prune_keeps_a_fresh_model_entry(self, tmp_path):
        db = TuneDB(tmp_path)
        db.put(entry(fp="c" * 24, created=1.0))        # ancient kernel
        (tmp_path / ("e" * 24 + ".json")).write_text("junk")
        self._model(db, "m" * 24)
        assert db.prune(max_age_s=3600.0) == 2
        assert db.models.keys() == ["m" * 24]

    def test_max_age_removes_a_stale_model_entry(self, tmp_path):
        db = TuneDB(tmp_path)
        self._model(db, "m" * 24, age_s=7200.0)
        self._model(db, "n" * 24)
        assert db.prune(max_age_s=3600.0) == 1
        assert db.models.keys() == ["n" * 24]

    def test_keep_bounds_model_entries_too(self, tmp_path):
        db = TuneDB(tmp_path)
        for i in range(3):
            self._model(db, f"{i:024d}", age_s=100.0 * (3 - i))
        db.put(entry())
        assert db.prune(keep=1) == 2
        assert db.models.keys() == [f"{2:024d}"]
        assert db.disk_stats()["disk_entries"] == 1

    def test_a_model_directory_is_not_made_by_reads(self, tmp_path):
        db = TuneDB(tmp_path)
        db.put(entry())
        db.get("a" * 24)
        db.prune()
        assert db.disk_stats()["model_entries"] == 0
        assert not (tmp_path / "models").exists()

