"""Tests for schedule serialization and the on-disk compile cache."""

import dataclasses

import numpy as np
import pytest

from repro.core.verify import audit_program
from repro.core.serialize import (
    ScheduleCache,
    SerializeError,
    compile_cached,
    graph_from_dict,
    graph_to_dict,
    schedule_from_json,
    schedule_to_json,
)
from repro.hw import AMPERE
from repro.ir import GraphBuilder, program_from_graph
from repro.models import softmax_gemm_graph
from repro.pipeline import compile_for, compile_model_for
from repro.runtime.executor import execute_schedule
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.tune import gpu_fingerprint


class TestGraphRoundTrip:
    def test_roundtrip_preserves_structure(self, small_mha):
        clone = graph_from_dict(graph_to_dict(small_mha))
        assert [op.name for op in clone.ops] == \
            [op.name for op in small_mha.ops]
        assert clone.dims.items() == small_mha.dims.items()
        assert set(clone.tensors) == set(small_mha.tensors)

    def test_roundtrip_preserves_semantics(self, small_ln):
        clone = graph_from_dict(graph_to_dict(small_ln))
        feeds = random_feeds(small_ln, seed=0)
        a = execute_graph_reference(small_ln, feeds)
        b = execute_graph_reference(clone, feeds)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_scalar_attrs_survive(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4)])
        b.scalar("mul", x, 0.125)
        clone = graph_from_dict(graph_to_dict(b.build()))
        assert clone.ops[0].attrs["scalar"] == 0.125

    def test_declared_outputs_survive(self, small_lstm):
        clone = graph_from_dict(graph_to_dict(small_lstm))
        assert set(clone.output_tensors) == {"CellOut", "Out"}


class TestScheduleRoundTrip:
    def test_uta_schedule_roundtrip(self, small_mha):
        sched, _ = compile_for(small_mha, AMPERE)
        restored = schedule_from_json(schedule_to_json(sched))
        assert restored.num_kernels == sched.num_kernels
        k0, k1 = sched.kernels[0], restored.kernels[0]
        assert k1.spatial_dims == k0.spatial_dims
        assert k1.config == k0.config
        assert k1.plan is not None
        assert [s.update.describe() for s in k1.plan.stages] == \
            [s.update.describe() for s in k0.plan.stages]

    def test_restored_schedule_executes_identically(self, small_mha):
        sched, _ = compile_for(small_mha, AMPERE)
        restored = schedule_from_json(schedule_to_json(sched))
        feeds = random_feeds(small_mha, seed=4)
        a = execute_schedule(sched, feeds)
        b = execute_schedule(restored, feeds)
        np.testing.assert_array_equal(a["Out"], b["Out"])

    def test_restored_schedule_simulates_identically(self, small_ln):
        from repro.pipeline import simulate
        sched, _ = compile_for(small_ln, AMPERE)
        restored = schedule_from_json(schedule_to_json(sched))
        assert simulate(restored, AMPERE).time_s == \
            pytest.approx(simulate(sched, AMPERE).time_s)

    def test_barrier_kernels_roundtrip(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 8), ("n", 4)])
        e = b.unary("exp", x)
        b.barrier("reshape", e, [("f", 32)], out_name="Y")
        model = compile_model_for(program_from_graph(b.build()), AMPERE)
        sched = model.expanded_schedule()
        restored = schedule_from_json(schedule_to_json(sched))
        assert restored.num_kernels == sched.num_kernels
        feeds = random_feeds(b.graph, seed=0)
        env = execute_schedule(restored, {"X": feeds["X"]})
        assert env["Y"].shape == (32,)

    def test_bad_version_rejected(self):
        with pytest.raises(SerializeError, match="version"):
            schedule_from_json('{"version": 99, "name": "x", "meta": {}, '
                               '"kernels": []}')

    def test_missing_version_rejected(self):
        with pytest.raises(SerializeError, match="version"):
            schedule_from_json('{"name": "x", "meta": {}, "kernels": []}')

    def test_malformed_json_raises_serialize_error(self):
        with pytest.raises(SerializeError, match="malformed"):
            schedule_from_json('{"version": 1, "name": ')

    def test_non_object_payload_rejected(self):
        with pytest.raises(SerializeError, match="object"):
            schedule_from_json('[1, 2, 3]')

    def test_truncated_payload_raises_serialize_error(self):
        with pytest.raises(SerializeError, match="truncated|corrupt"):
            schedule_from_json('{"version": 1, "name": "x", "meta": {}, '
                               '"kernels": [{"name": "k"}]}')


class TestScheduleCache:
    def test_miss_then_hit(self, small_mha, tmp_path):
        cache = ScheduleCache(tmp_path)
        first, stats = compile_cached(small_mha, AMPERE, cache)
        assert stats is not None            # compiled
        second, stats2 = compile_cached(small_mha, AMPERE, cache)
        assert stats2 is None               # served from cache
        assert cache.hits == 1 and cache.misses == 1
        assert second.num_kernels == first.num_kernels

    def test_cached_schedule_correct(self, small_ln, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_cached(small_ln, AMPERE, cache)
        restored, _ = compile_cached(small_ln, AMPERE, cache)
        feeds = random_feeds(small_ln, seed=1)
        ref = execute_graph_reference(small_ln, feeds)
        env = execute_schedule(restored, feeds)
        np.testing.assert_allclose(env["Y"], ref["Y"], atol=1e-9)

    def test_different_gpu_different_entry(self, small_mha, tmp_path):
        from repro.hw import VOLTA
        cache = ScheduleCache(tmp_path)
        compile_cached(small_mha, AMPERE, cache)
        _sched, stats = compile_cached(small_mha, VOLTA, cache)
        assert stats is not None  # not a hit: different target

    def test_different_graph_different_entry(self, tmp_path):
        from repro.models import layernorm_graph
        cache = ScheduleCache(tmp_path)
        compile_cached(layernorm_graph(32, 64), AMPERE, cache)
        _s, stats = compile_cached(layernorm_graph(32, 128), AMPERE, cache)
        assert stats is not None


class TestAtomicWrites:
    """A crash mid-``put`` must never leave a truncated cache entry."""

    def test_put_leaves_no_temp_files(self, small_ln, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_cached(small_ln, AMPERE, cache)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_crash_during_replace_keeps_old_entry(self, small_ln, tmp_path,
                                                  monkeypatch):
        import os as _os

        cache = ScheduleCache(tmp_path)
        sched, _ = compile_cached(small_ln, AMPERE, cache)
        entry = next(tmp_path.glob("*.json"))
        before = entry.read_text()

        def exploding_replace(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr("repro.store.os.replace",
                            exploding_replace)
        with pytest.raises(OSError, match="power loss"):
            cache.put(small_ln, gpu_fingerprint(AMPERE), sched)
        monkeypatch.undo()
        # The previous entry is byte-identical and no temp debris remains.
        assert entry.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get(small_ln, gpu_fingerprint(AMPERE)) is not None
        assert _os.path.exists(entry)

    def test_crash_during_write_leaves_no_partial_entry(self, small_ln,
                                                        tmp_path,
                                                        monkeypatch):
        cache = ScheduleCache(tmp_path)
        sched, _ = compile_for(small_ln, AMPERE)[0], None

        monkeypatch.setattr(
            "repro.core.serialize.schedule_to_json",
            lambda s: (_ for _ in ()).throw(OSError("disk full")))
        with pytest.raises(OSError, match="disk full"):
            cache.put(small_ln, AMPERE.name, sched)
        # Neither a target entry nor temp debris exists.
        assert list(tmp_path.iterdir()) == []


class TestDoctoredCacheEntries:
    """A poisoned on-disk entry must degrade to a miss, never a crash."""

    def _doctor_entries(self, tmp_path, text):
        entries = list(tmp_path.glob("*.json"))
        assert entries, "cache should have written an entry"
        for path in entries:
            path.write_text(text)

    def test_version_mismatch_is_a_miss(self, small_ln, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_cached(small_ln, AMPERE, cache)
        self._doctor_entries(
            tmp_path, '{"version": 999, "name": "x", "meta": {}, '
                      '"kernels": []}')
        schedule, stats = compile_cached(small_ln, AMPERE, cache)
        assert stats is not None              # recompiled, not crashed
        assert cache.misses == 2              # cold boot + doctored entry
        feeds = random_feeds(small_ln, seed=3)
        ref = execute_graph_reference(small_ln, feeds)
        env = execute_schedule(schedule, feeds)
        np.testing.assert_allclose(env["Y"], ref["Y"], atol=1e-9)

    def test_corrupt_json_is_a_miss(self, small_ln, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_cached(small_ln, AMPERE, cache)
        self._doctor_entries(tmp_path, "{definitely not json")
        _schedule, stats = compile_cached(small_ln, AMPERE, cache)
        assert stats is not None

    def test_doctored_entry_is_replaced_on_disk(self, small_ln, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_cached(small_ln, AMPERE, cache)
        self._doctor_entries(tmp_path, '{"version": 999}')
        compile_cached(small_ln, AMPERE, cache)
        # The recompile overwrote the bad entry: next boot hits again.
        _schedule, stats = compile_cached(small_ln, AMPERE, cache)
        assert stats is None

    def test_direct_get_raises_nothing(self, small_ln, tmp_path):
        cache = ScheduleCache(tmp_path)
        compile_cached(small_ln, AMPERE, cache)
        self._doctor_entries(tmp_path, '{"version": null}')
        assert cache.get(small_ln, gpu_fingerprint(AMPERE)) is None
        assert list(tmp_path.glob("*.json")) == []      # contained


class TestCacheIsKeyedByTheWholeDeviceModel:
    """Regression: ``compile_cached`` keyed entries by ``gpu.name``, so an
    edited spec that kept a preset's name was served the preset's schedule
    instead of the one its own compile picks."""

    def test_an_edited_spec_is_a_miss_and_gets_its_own_schedule(
            self, tmp_path):
        graph = softmax_gemm_graph(512, 1024, 64)
        small = dataclasses.replace(
            AMPERE, smem_per_block=AMPERE.smem_per_block // 4)
        assert small.name == AMPERE.name
        cache = ScheduleCache(tmp_path)
        preset, stats = compile_cached(graph, AMPERE, cache)
        assert stats is not None
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
        assert len(before) == 1

        schedule, stats = compile_cached(graph, small, cache)
        assert stats is not None          # compiled, not read back
        assert schedule_to_json(schedule) \
            == schedule_to_json(compile_for(graph, small)[0])
        assert [k.config for k in schedule.kernels] \
            != [k.config for k in preset.kernels]
        assert audit_program(schedule, small).ok

        after = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
        assert len(after) == 2
        assert all(after[name] == data for name, data in before.items())
        # Each spec now hits its own entry.
        for gpu, expected in ((AMPERE, preset), (small, schedule)):
            hit, stats = compile_cached(graph, gpu, cache)
            assert stats is None
            assert schedule_to_json(hit) == schedule_to_json(expected)


class TestStoredSchedulesAreShared:
    """Every reader of one stored entry's bytes gets the same read-only
    schedule, alive while some reader keeps it."""

    def _filled(self, graph, tmp_path):
        compile_cached(graph, AMPERE, ScheduleCache(tmp_path))
        return gpu_fingerprint(AMPERE)

    def test_two_caches_on_one_directory_share_one_object(self, small_ln,
                                                          tmp_path):
        key = self._filled(small_ln, tmp_path)
        first = ScheduleCache(tmp_path).get(small_ln, key)
        assert ScheduleCache(tmp_path).get(small_ln, key) is first

    def test_a_rewritten_entry_is_a_new_object(self, small_ln, tmp_path):
        key = self._filled(small_ln, tmp_path)
        cache = ScheduleCache(tmp_path)
        first = cache.get(small_ln, key)
        first_json = schedule_to_json(first)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(entry.read_text() + "\n")  # same schedule, new bytes
        second = cache.get(small_ln, key)
        assert second is not first
        assert schedule_to_json(second) == first_json

    def test_the_table_forgets_unreferenced_schedules(self, small_ln,
                                                      tmp_path):
        import gc

        from repro.core import serialize

        key = self._filled(small_ln, tmp_path)
        (entry,) = tmp_path.glob("*.json")
        digest = serialize.text_digest(entry.read_text())
        schedule = ScheduleCache(tmp_path).get(small_ln, key)
        assert serialize._SHARED[digest] is schedule
        del schedule
        gc.collect()
        assert digest not in serialize._SHARED

    def test_a_corrupt_entry_is_still_a_contained_miss(self, small_ln,
                                                       tmp_path):
        key = self._filled(small_ln, tmp_path)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(entry.read_text()[:200])
        cache = ScheduleCache(tmp_path)
        assert cache.get(small_ln, key) is None
        assert cache.misses == 1 and not entry.exists()

    def test_readers_leave_a_stored_schedule_unchanged(self, small_mha,
                                                       tmp_path):
        from repro.pipeline import simulate
        from repro.runtime.compiled import host_plan
        from repro.serve import InferenceSession, TieredScheduleCache

        key = self._filled(small_mha, tmp_path)
        stored = ScheduleCache(tmp_path).get(small_mha, key)
        before = schedule_to_json(stored)
        simulate(stored, AMPERE)
        assert schedule_to_json(stored) == before
        host_plan(stored)
        assert schedule_to_json(stored) == before
        session = InferenceSession(
            small_mha, AMPERE, eager=True,
            cache=TieredScheduleCache(disk=ScheduleCache(tmp_path)))
        assert session.schedule is stored
        session.execute(random_feeds(small_mha, seed=0))
        session.info()
        assert schedule_to_json(stored) == before
