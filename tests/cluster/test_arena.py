"""The feed/reply arena: slot book, views, and the fleet riding on it.

The unit tests map the supervisor-side file in this process, so both
halves can be checked against each other without a fork; the fleet tests
fork real workers (chaos-sized workloads, context-managed).
"""

import os
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSupervisor
from repro.cluster.arena import (
    ARENA_SLOTS,
    SlotArena,
    SlotViews,
    slot_bytes_for,
)
from repro.models import layernorm_graph, mha_graph, mlp_graph
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import HAVE_FCNTL

pytestmark = pytest.mark.skipif(
    not (HAVE_FCNTL and SlotArena.supported()),
    reason="the arena needs fork, memfd_create and preadv")


@pytest.fixture
def arena():
    a = SlotArena(8192, slots=3)
    yield a
    a.close()


@pytest.fixture
def views(arena):
    v = SlotViews(os.dup(arena.fd), arena.slot_bytes, arena.slots)
    yield v
    v.close()


def _feeds(seed=0):
    rng = np.random.default_rng(seed)
    return {"X": rng.standard_normal((4, 8)),
            "W": rng.standard_normal((8, 3)).astype(np.float32),
            "n": np.arange(5)}


class TestSlotBook:
    def test_lifo_reuse_and_exhaustion(self, arena):
        (s1, _, _), _ = arena.put(1, _feeds())
        (s2, _, _), _ = arena.put(2, _feeds())
        (s3, _, _), _ = arena.put(3, _feeds())
        assert sorted((s1, s2, s3)) == [0, 1, 2]
        assert arena.put(4, _feeds()) is None           # no free slot
        arena.release(2)
        (s4, _, _), _ = arena.put(4, _feeds())
        assert s4 == s2                                 # hottest slot first
        assert arena.held() == {1: s1, 3: s3, 4: s2}

    def test_release_is_idempotent_and_release_all_frees_everything(
            self, arena):
        arena.put(1, _feeds())
        arena.put(2, _feeds())
        arena.release(1)
        arena.release(1)
        arena.release(99)
        assert list(arena.held()) == [2]
        arena.release_all()
        assert arena.held() == {}
        assert all(arena.put(i, _feeds()) is not None for i in (5, 6, 7))

    def test_feeds_larger_than_a_slot_are_refused_without_taking_one(
            self, arena):
        assert arena.put(1, {"X": np.zeros(arena.slot_bytes // 8 + 1)}) is None
        assert arena.held() == {}

    def test_slot_size_follows_the_hosted_graphs(self):
        small = layernorm_graph(48, 64, name="a_ln")
        big = mha_graph(1, 8, 1, 128, 64)
        feeds = random_feeds(big, seed=0)
        outs = execute_graph_reference(big, feeds)
        need = sum(a.nbytes for a in (*feeds.values(), *outs.values()))
        size = slot_bytes_for([small, big])
        assert need <= size < need + 4096 + 64 * (len(feeds) + len(outs))
        assert slot_bytes_for([small]) < size


class TestViews:
    def test_feed_views_are_read_only_and_alias_the_slot(self, arena, views):
        feeds = _feeds()
        (slot, desc, _end), nbytes = arena.put(7, feeds)
        assert nbytes == sum(a.nbytes for a in feeds.values())
        got = views.feeds(slot, desc)
        for name, arr in feeds.items():
            assert got[name].dtype == arr.dtype
            assert np.array_equal(got[name], arr)
            assert not got[name].flags.writeable
            assert not got[name].flags.owndata          # a view, no copy
            with pytest.raises(ValueError):
                got[name][...] = 0
        # Aliasing, not a snapshot: what lands in the file shows through.
        _name, _dtype, _shape, offset = desc[0]
        os.pwrite(arena.fd, np.full(4, -1.0).tobytes(),
                  slot * arena.slot_bytes + offset)
        assert np.all(got["X"].reshape(-1)[:4] == -1.0)

    def test_outputs_round_trip_through_the_tail_of_the_slot(
            self, arena, views):
        feeds = _feeds(1)
        (slot, desc, end), _ = arena.put(3, feeds)
        outputs = {"Y": np.arange(12.0).reshape(3, 4), "s": np.float64(2.5)}
        out_desc = views.put_outputs(slot, end, outputs)
        assert out_desc[0][3] >= end                    # after the feeds
        got = arena.read(3, out_desc)
        assert np.array_equal(got["Y"], outputs["Y"])
        assert got["s"].shape == () and got["s"] == 2.5
        assert got["Y"].flags.owndata and got["Y"].flags.writeable
        # The feeds were not scribbled on.
        for name, arr in views.feeds(slot, desc).items():
            assert np.array_equal(arr, feeds[name])

    def test_outputs_that_do_not_fit_are_refused(self, arena, views):
        (slot, _desc, end), _ = arena.put(3, _feeds())
        too_big = {"Y": np.zeros(arena.slot_bytes // 8)}
        assert views.put_outputs(slot, end, too_big) is None


def _graphs():
    return {
        "mlp": mlp_graph(3, 64, 32, 48, name="arena_mlp"),
        "ln": layernorm_graph(48, 64, name="arena_ln"),
    }


def _config(tmp_path, **overrides):
    defaults = dict(workers=2, cache_dir=str(tmp_path / "cache"),
                    health_interval_s=0.1, heartbeat_timeout_s=10.0)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _wait(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _wire(sup):
    return {k.split(".", 1)[1]: v for k, v in sup.metrics.snapshot().items()
            if k.startswith("wire.")}


def _assert_matches_reference(graph, seed, reply):
    expected = execute_graph_reference(graph, random_feeds(graph, seed=seed))
    assert not reply.degraded, reply.reason
    assert sorted(reply.outputs) == sorted(expected)
    for name, arr in expected.items():
        np.testing.assert_allclose(reply.outputs[name], arr, rtol=0,
                                   atol=1e-8)


class TestFleetOnTheArena:
    def test_pipelined_replies_all_match_their_own_reference(self, tmp_path):
        """Eight requests deep, every one with its own feeds: a reply
        that carried another request's answer (a slot handed out early,
        an output written to the wrong slot) cannot pass."""
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            for name in graphs:
                sup.infer(name, random_feeds(graphs[name], seed=0),
                          timeout=60.0)
            base = _wire(sup)
            window, total = ARENA_SLOTS, 96
            pending, checked = [], 0
            for i in range(total):
                name = ("mlp", "ln")[i % 2]
                pending.append((name, i, sup.submit(
                    name, random_feeds(graphs[name], seed=i),
                    timeout=60.0)))
                if len(pending) == window:
                    name, seed, req = pending.pop(0)
                    _assert_matches_reference(graphs[name], seed,
                                              req.result(timeout=60.0))
                    checked += 1
            for name, seed, req in pending:
                _assert_matches_reference(graphs[name], seed,
                                          req.result(timeout=60.0))
                checked += 1
            assert checked == total
            wire = _wire(sup)
            assert (wire["arena_requests"] - base["arena_requests"]
                    + wire.get("inband_requests", 0)) == total
            assert wire["arena_requests"] > base["arena_requests"]
            assert wire["arena_bytes"] > base["arena_bytes"]
            assert all(_wait(lambda a=a: not a.held(), 5.0)
                       for a in sup._arenas.values())

    def test_request_bigger_than_a_slot_goes_in_band(self, tmp_path):
        graphs = _graphs()
        sup = ClusterSupervisor(graphs, _config(tmp_path))
        for name in sup.worker_names():     # slots no request fits in
            sup._arenas[name] = SlotArena(4096)
        with sup:
            for seed in range(3):
                _assert_matches_reference(
                    graphs["mlp"], seed,
                    sup.infer("mlp", random_feeds(graphs["mlp"], seed=seed),
                              timeout=60.0))
            assert _wire(sup) == {"inband_requests": 3}

    def test_full_free_list_overflows_in_band(self, tmp_path):
        graphs = _graphs()
        sup = ClusterSupervisor(graphs, _config(tmp_path))
        for name in sup.worker_names():
            sup._arenas[name] = SlotArena(slot_bytes_for(graphs.values()),
                                          slots=1)
        with sup:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            primary = sup.owners_for("mlp")[0]
            assert sup.arm_faults(primary, {"runtime.execute": "delay(150)"})
            reqs = [sup.submit("mlp", random_feeds(graphs["mlp"], seed=s),
                               timeout=60.0) for s in range(4)]
            for seed, req in enumerate(reqs):
                _assert_matches_reference(graphs["mlp"], seed,
                                          req.result(timeout=60.0))
            wire = _wire(sup)
            assert wire["arena_requests"] >= 2      # warm-up + first of 4
            assert wire["inband_requests"] >= 2     # the slot was taken

    def test_start_stop_loop_leaks_no_fd_and_maps_nothing(self, tmp_path):
        graphs = _graphs()

        def census():
            with open("/proc/self/maps", encoding="utf-8") as fh:
                maps = fh.read()
            return len(os.listdir("/proc/self/fd")), maps.count("repro-arena")

        def cycle():
            with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
                sup.infer("ln", random_feeds(graphs["ln"], seed=0),
                          timeout=60.0)
                assert census()[1] == 0     # only the worker maps it

        cycle()
        before = census()
        for _ in range(3):
            cycle()
        assert census() == before
