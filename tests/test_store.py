"""repro.store: the one LRU + atomic-disk + single-flight mechanism, and
the two disk facades (ScheduleCache, TuneDB) built on it."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

from repro.core.serialize import ScheduleCache, cache_key, schedule_to_json
from repro.hw import AMPERE
from repro.ir import GraphBuilder
from repro.serve import ServeMetrics
from repro.store import HAVE_FCNTL, LRU, DiskStore, FileLock, single_flight
from repro.tune import TuneDB

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "store"
needs_flock = pytest.mark.skipif(not HAVE_FCNTL,
                                 reason="fcntl unavailable on this platform")


class TestLRU:
    def test_bound_and_eviction_callback(self):
        evicted = []
        lru = LRU(2, on_evict=lambda k, v: evicted.append((k, v)))
        for i in range(4):
            lru.put(i, str(i))
        assert len(lru) == 2
        assert evicted == [(0, "0"), (1, "1")]
        assert lru.get(0) is None and lru.get(3) == "3"

    def test_get_and_put_touch(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1        # a is now the most recent
        lru.put("c", 3)                 # ... so b goes
        assert lru.get("b") is None and lru.get("a") == 1
        lru.put("a", 10)                # overwrite touches too
        lru.put("d", 4)
        assert lru.values() == [10, 4]

    def test_pop_is_not_an_eviction(self):
        evicted = []
        lru = LRU(2, on_evict=lambda k, v: evicted.append(k))
        lru.put("a", 1)
        assert lru.pop("a") == 1 and lru.pop("a") is None
        assert len(lru) == 0 and evicted == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRU(0)

    def test_concurrent_put_get_holds_the_bound(self):
        """More threads than cores, short switch interval: every put is
        either resident or reported evicted exactly once."""
        capacity, threads_n, per_thread = 8, 16, 300
        evictions = []
        lru = LRU(capacity, on_evict=lambda k, v: evictions.append(k))

        def hammer(tid: int) -> None:
            for i in range(per_thread):
                lru.put((tid, i), i)
                lru.get((tid, i // 2))
                assert len(lru) <= capacity

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert len(lru) == capacity
        assert len(evictions) == threads_n * per_thread - capacity
        assert len(set(evictions)) == len(evictions)


class TestDiskStore:
    def test_roundtrip_keys_delete(self, tmp_path):
        store = DiskStore(tmp_path / "nested" / "dir")
        assert store.read("k") is None and store.keys() == []
        store.write("k", "one")
        store.write("k", "two")         # overwrite is a replace
        store.write("j", "x")
        assert store.read("k") == "two"
        assert store.keys() == ["j", "k"]
        assert store.path("k").name == "k.json"
        assert store.lock_path("k").name == "k.lock"
        store.delete("k")
        store.delete("k")               # idempotent
        assert store.keys() == ["j"]
        assert list(store.directory.glob("*.tmp")) == []

    def test_crash_during_replace_keeps_old_entry(self, tmp_path,
                                                  monkeypatch):
        store = DiskStore(tmp_path)
        store.write("k", "old")

        def exploding_replace(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr("repro.store.os.replace", exploding_replace)
        with pytest.raises(OSError, match="power loss"):
            store.write("k", "new")
        monkeypatch.undo()
        assert store.read("k") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]

    def test_crash_mid_write_leaves_no_partial_entry(self, tmp_path,
                                                     monkeypatch):
        store = DiskStore(tmp_path)
        real_fdopen = os.fdopen

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(
            "repro.store.os.fdopen",
            lambda *a, **k: HalfWriter(real_fdopen(*a, **k)))
        with pytest.raises(OSError, match="disk full"):
            store.write("k", "0123456789")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []   # no entry, no *.tmp

    def test_load_contains_undecodable_entry(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.load("k", json.loads, (ValueError,)) == (None, False)
        store.write("k", '{"a": 1}')
        assert store.load("k", json.loads, (ValueError,)) == ({"a": 1}, False)
        store.write("k", "{not json")
        assert store.load("k", json.loads, (ValueError,)) == (None, True)
        assert store.read("k") is None          # deleted, not left to re-trip

    def test_load_propagates_unlisted_errors(self, tmp_path):
        store = DiskStore(tmp_path)
        store.write("k", "text")
        with pytest.raises(KeyError):
            store.load("k", lambda text: {}["boom"], (ValueError,))
        assert store.read("k") == "text"


@needs_flock
class TestSingleFlight:
    def _held(self, store, key):
        lock = FileLock(store.lock_path(key))
        assert lock.acquire()
        return lock

    def test_free_lock_produces_without_recheck(self, tmp_path):
        calls = []
        out = single_flight(DiskStore(tmp_path), "k", 1.0,
                            lambda: calls.append("recheck"),
                            lambda: "made")
        assert out == "made" and calls == []

    def test_waiter_rechecks_and_reuses(self, tmp_path):
        store = DiskStore(tmp_path)
        holder = self._held(store, "k")
        threading.Timer(0.1, holder.release).start()
        produced = []
        out = single_flight(store, "k", 10.0, lambda: "theirs",
                            lambda: produced.append(1) or "mine")
        assert out == "theirs" and produced == []

    def test_waiter_produces_when_recheck_misses(self, tmp_path):
        store = DiskStore(tmp_path)
        holder = self._held(store, "k")
        threading.Timer(0.1, holder.release).start()
        out = single_flight(store, "k", 10.0, lambda: None, lambda: "mine")
        assert out == "mine"

    def test_timeout_reports_and_produces_anyway(self, tmp_path):
        store = DiskStore(tmp_path)
        holder = self._held(store, "k")
        try:
            events = []
            out = single_flight(store, "k", 0.05,
                                lambda: events.append("recheck"),
                                lambda: "mine",
                                on_timeout=lambda: events.append("timeout"))
            assert out == "mine" and events == ["timeout"]
        finally:
            holder.release()

    def test_unmakeable_lock_file_produces_unlocked(self, tmp_path):
        """A lock file that cannot be created (here a directory in its
        place, as a read-only directory would refuse it) is no lock and
        no timeout: produce, report nothing."""
        store = DiskStore(tmp_path)
        store.lock_path("k").mkdir()
        lock = FileLock(store.lock_path("k"), timeout_s=0.0)
        assert not lock.acquire() and not lock.timed_out
        events = []
        out = single_flight(store, "k", 1.0, lambda: events.append("recheck"),
                            lambda: "mine",
                            on_timeout=lambda: events.append("timeout"))
        assert out == "mine" and events == []

    def test_missing_directory_is_empty_until_written(self, tmp_path):
        store = DiskStore(tmp_path / "later", create=False)
        assert store.keys() == [] and store.read("k") is None
        assert not store.directory.exists()

    def test_lock_released_after_produce_raises(self, tmp_path):
        store = DiskStore(tmp_path)
        with pytest.raises(RuntimeError):
            single_flight(store, "k", 1.0, lambda: None,
                          lambda: (_ for _ in ()).throw(RuntimeError("x")))
        again = FileLock(store.lock_path("k"), timeout_s=0.0)
        assert again.acquire()
        again.release()


def test_single_flight_without_disk_tier_just_produces():
    assert single_flight(None, "k", 1.0, lambda: pytest.fail("recheck"),
                         lambda: "made") == "made"


class TestFacades:
    """ScheduleCache and TuneDB are codecs over the one DiskStore."""

    def _fixture_graph(self):
        b = GraphBuilder("store_fixture")
        x = b.input("X", [("m", 4), ("n", 8)])
        b.unary("relu", x, out_name="Y")
        return b.build()

    def test_parent_format_schedule_entry_is_a_hit(self, tmp_path):
        """An entry written by the pre-store ScheduleCache: its bytes are
        a hit and come back out of the codec unchanged.  It was written
        under the key of the graph's sort-keys ``graph_to_dict`` JSON;
        under that name it misses once, and the put that follows writes
        the same bytes under today's ``graph_key_text`` key."""
        (entry,) = (FIXTURES / "sched").glob("*.json")
        graph = self._fixture_graph()
        old = ScheduleCache(tmp_path / "old")
        shutil.copy(entry, tmp_path / "old" / entry.name)
        assert old.get(graph, AMPERE.name) is None
        key = cache_key(graph, AMPERE.name)
        assert key != entry.stem
        cache = ScheduleCache(tmp_path / "c")
        shutil.copy(entry, tmp_path / "c" / f"{key}.json")
        schedule = cache.get(graph, AMPERE.name)
        assert schedule is not None and (cache.hits, cache.misses) == (1, 0)
        assert schedule_to_json(schedule) == entry.read_text()
        old.put(graph, AMPERE.name, schedule)
        assert (tmp_path / "old" / f"{key}.json").read_bytes() == \
            entry.read_bytes()

    def test_parent_format_tune_entry_is_a_hit(self, tmp_path):
        shutil.copytree(FIXTURES / "tunedb", tmp_path / "db")
        (entry,) = (FIXTURES / "tunedb").glob("*.json")
        db = TuneDB(tmp_path / "db")
        got = db.get(entry.stem)
        assert got is not None and (db.disk_hits, db.misses) == (1, 0)
        assert got.config == {"block": [["m", 2]], "tile": None}
        TuneDB(tmp_path / "db2").put(got)
        # The fixture predates the entries' predictor samples being
        # dropped: a re-put writes everything else byte for byte.
        dropped = ("feature_version", "kernel_features", "samples")
        kept = {key: value for key, value in json.loads(entry.read_text())
                .items() if key not in dropped}
        assert (tmp_path / "db2" / entry.name).read_text() == json.dumps(kept)

    def test_tunedb_put_crash_is_contained_and_leaves_no_debris(
            self, tmp_path, monkeypatch):
        """The DiskStore crash case seen through the TuneDB facade: the
        failed persist is counted, not raised; old entry intact."""
        shutil.copytree(FIXTURES / "tunedb", tmp_path / "db")
        (entry,) = (FIXTURES / "tunedb").glob("*.json")
        metrics = ServeMetrics()
        db = TuneDB(tmp_path / "db", metrics=metrics)
        got = db.get(entry.stem)
        got.best_time *= 2

        def exploding_replace(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr("repro.store.os.replace", exploding_replace)
        db.put(got)
        monkeypatch.undo()
        assert metrics.get("tunedb.disk_errors") == 1
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == \
            [entry.name]
        assert (tmp_path / "db" / entry.name).read_bytes() == \
            entry.read_bytes()

    def test_tunedb_corrupt_entry_counts_a_disk_error(self, tmp_path):
        metrics = ServeMetrics()
        db = TuneDB(tmp_path, metrics=metrics)
        (tmp_path / "k.json").write_text("{not json")
        assert db.get("k") is None
        assert metrics.get("tunedb.disk_errors") == 1
        assert not (tmp_path / "k.json").exists()
        assert db.get("k") is None              # plain miss the second time
        assert metrics.get("tunedb.disk_errors") == 1


class TestLayering:
    """The store sits below every package that uses it."""

    @pytest.mark.parametrize("module", ["repro.tune", "repro.core.serialize",
                                        "repro.store"])
    def test_import_does_not_load_serving_stack(self, module):
        code = (f"import sys, {module}; "
                "bad = [m for m in sys.modules if m.startswith("
                "('repro.serve', 'repro.cluster'))]; "
                "assert not bad, bad")
        src = pathlib.Path(__file__).parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={"PYTHONPATH": str(src), "PATH": ""},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
