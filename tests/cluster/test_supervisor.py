"""Integration tests for the multi-process cluster supervisor.

These fork real worker processes; workloads are chaos-sized so compiles
stay fast, and every cluster is context-managed so a failing assert
never leaks processes.
"""

import gc
import multiprocessing
import os
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cluster import (
    AdmissionPolicy,
    ClusterConfig,
    ClusterError,
    ClusterShed,
    ClusterSupervisor,
)
from repro.cluster import supervisor as supervisor_module
from repro.cluster.arena import SlotArena
from repro.models import layernorm_graph, mlp_graph
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import HAVE_FCNTL, InvalidRequestError, WorkerCrashed

pytestmark = pytest.mark.skipif(
    not HAVE_FCNTL, reason="cluster tests assume POSIX (fcntl, fork)")


def _graphs():
    return {
        "mlp": mlp_graph(3, 64, 32, 48, name="clu_mlp"),
        "ln": layernorm_graph(48, 64, name="clu_ln"),
    }


def _config(tmp_path, **overrides):
    defaults = dict(workers=2, cache_dir=str(tmp_path / "cache"),
                    health_interval_s=0.1, heartbeat_timeout_s=10.0)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _never_ready(conn, config, arena=None):
    """A worker process that forks fine and never says ``ready``."""
    time.sleep(60.0)


def _new_threads(before):
    """Names of the threads alive now that were not in ``before``."""
    return sorted(t.name for t in set(threading.enumerate()) - before)


def _wait(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestServing:
    def test_end_to_end_correct_answers(self, tmp_path):
        graphs = _graphs()
        refs = {(n, s): execute_graph_reference(g, random_feeds(g, seed=s))
                for n, g in graphs.items() for s in range(3)}
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            assert sup.health()["status"] == "healthy"
            for (name, seed), expected in refs.items():
                reply = sup.infer(name, random_feeds(graphs[name],
                                                     seed=seed),
                                  timeout=60.0)
                for out, arr in expected.items():
                    np.testing.assert_allclose(reply.outputs[out], arr,
                                               atol=1e-8)
            agg = sup.aggregate()
        assert agg["supervisor"]["requests.submitted"] == len(refs)
        # Fleet-wide single-flight: each workload compiled exactly once
        # across both workers; the replica loaded it from shared disk.
        assert agg["worker_totals"]["cache.compile_misses"] == len(graphs)
        assert agg["worker_totals"].get("cache.disk_hits", 0) >= 1

    def test_placement_replicated_and_deterministic(self, tmp_path):
        with ClusterSupervisor(_graphs(),
                               _config(tmp_path, replication=2)) as sup:
            placement = sup.placement()
            for name, owners in placement.items():
                assert len(owners) == 2 == len(set(owners))
            assert placement == sup.placement()

    def test_owners_are_kept_per_workload_until_the_ring_changes(
            self, tmp_path, monkeypatch):
        """``submit`` routes every request; the SHA-256 + ring walk is
        paid once per workload and ring membership, not per request."""
        sup = ClusterSupervisor(_graphs(), _config(tmp_path, workers=3))
        for name in ("w0", "w1", "w2"):         # what start() does, unforked
            sup.ring.add(name)
        walks = []
        real = sup.ring.owners
        monkeypatch.setattr(sup.ring, "owners",
                            lambda key, n=1: walks.append(key) or real(key, n))
        first = sup.owners_for("mlp")
        assert first == real("mlp", 2)
        first.append("poison")                  # callers get their own list
        assert [sup.owners_for("mlp") for _ in range(5)] == [real("mlp", 2)] * 5
        assert walks == ["mlp"]
        sup.ring.remove(first[0])               # membership moved: recompute
        assert sup.owners_for("mlp") == real("mlp", 2)
        assert first[0] not in sup.owners_for("mlp")
        assert walks == ["mlp", "mlp"]

    def test_primary_far_behind_loses_the_next_request_to_its_replica(
            self, tmp_path):
        """Four requests at once behind 0.3 s executions on the primary:
        the first three queue there (a slow copy or two moves nothing),
        the fourth goes to the replica."""
        graphs = _graphs()
        feeds = [random_feeds(graphs["mlp"], seed=s) for s in range(4)]
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            primary, replica = sup.owners_for("mlp")
            assert sup.arm_faults(primary, {"runtime.execute": "delay(300)"})
            # Answered by the primary: teaches the book it takes 0.3 s.
            sup.infer("mlp", feeds[0], timeout=60.0)
            before = {w: sup.request_stats(w).get("requests.submitted", 0)
                      for w in (primary, replica)}
            pending = [sup.submit("mlp", f, timeout=60.0) for f in feeds]
            for f, req in zip(feeds, pending):
                reply = req.result(timeout=60.0)
                for name, arr in execute_graph_reference(graphs["mlp"],
                                                         f).items():
                    np.testing.assert_allclose(reply.outputs[name], arr,
                                               atol=1e-8)
            after = {w: sup.request_stats(w)["requests.submitted"]
                     for w in (primary, replica)}
            assert sup.metrics.get("routing.spilled") == 1
        assert after[primary] - before[primary] == 3
        assert after[replica] - before[replica] == 1

    def test_unknown_workload_rejected(self, tmp_path):
        with ClusterSupervisor(_graphs(), _config(tmp_path)) as sup:
            with pytest.raises(ClusterError, match="unknown workload"):
                sup.submit("missing", {})

    def test_drain_answers_everything(self, tmp_path):
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            sup.infer("ln", random_feeds(graphs["ln"], seed=0),
                      timeout=60.0)  # warm the compile
            pending = [sup.submit("ln", random_feeds(graphs["ln"], seed=s),
                                  timeout=60.0)
                       for s in range(8)]
            sup.stop(drain=True)
            for req in pending:
                assert req.result(timeout=10.0).outputs
        stats = sup.worker_stats()
        assert stats  # drain collected final per-worker snapshots


class TestNothingLeaks:
    def test_fleet_that_cannot_become_ready_is_torn_down(self, tmp_path):
        """``__enter__`` raising means ``__exit__`` never runs: start()
        itself must take down what it forked."""
        def census():
            gc.collect()        # Process objects own a sentinel fd each
            return len(os.listdir("/proc/self/fd"))

        before, threads = census(), set(threading.enumerate())
        sup = ClusterSupervisor(_graphs(),
                                _config(tmp_path, start_timeout_s=0.0))
        with pytest.raises(ClusterError, match="failed to become ready"):
            sup.__enter__()
        procs = [w.proc for w in sup._workers.values()]
        assert len(procs) == 2
        assert not any(p.is_alive() for p in procs)
        assert not multiprocessing.active_children()
        assert _new_threads(threads) == []      # the loop is joined
        del sup, procs
        assert census() == before

    def test_a_started_fleet_runs_one_supervisor_thread(self, tmp_path):
        """Every worker pipe, the deadline timer and the health check
        share one thread, however many workers; stop() joins it."""
        graphs = _graphs()
        threads = set(threading.enumerate())
        sup = ClusterSupervisor(graphs, _config(tmp_path)).start()
        try:
            assert len(sup._workers) == 2
            assert _new_threads(threads) == ["cluster-loop"]
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            sup.submit("ln", random_feeds(graphs["ln"], seed=0),
                       timeout=60.0).result(timeout=60.0)
            assert _new_threads(threads) == ["cluster-loop"]
        finally:
            sup.stop()
        assert _new_threads(threads) == []

    def test_the_loop_sleeps_while_stop_waits_for_a_drain(self, tmp_path):
        """stop() ends the health ticks, not the loop: while it waits for
        a slow drain the loop still sleeps between messages instead of
        polling the pipes."""
        graphs = {"ln": _graphs()["ln"]}
        sup = ClusterSupervisor(graphs, _config(tmp_path, workers=1)).start()
        try:
            sup.infer("ln", random_feeds(graphs["ln"], seed=0),
                      timeout=60.0)
            assert sup.arm_faults("w0", {"runtime.execute": "delay(1500)"})
            request = sup.submit("ln", random_feeds(graphs["ln"], seed=1),
                                 timeout=60.0)
            cpu, wall = time.process_time(), time.monotonic()
            sup.stop(drain=True)
            cpu, wall = time.process_time() - cpu, time.monotonic() - wall
        finally:
            sup.stop()          # a no-op once stopped
        assert request.result(timeout=10.0).outputs
        assert wall > 1.0
        assert cpu < 0.25 * wall

    def test_settled_request_is_collectable_before_its_deadline(
            self, tmp_path):
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            request = sup.submit("mlp", random_feeds(graphs["mlp"], seed=0),
                                 timeout=60.0)
            request.result(timeout=60.0)
            ref = weakref.ref(request)
            del request
            gc.collect()
            assert ref() is None


class TestAdmission:
    def test_capacity_shed_surfaces_reason(self, tmp_path):
        graphs = {"ln": _graphs()["ln"]}
        config = _config(
            tmp_path, workers=1,
            admission=AdmissionPolicy(max_outstanding_per_worker=1,
                                      tenant_share=None),
            # Stall execution so the first request is still outstanding
            # when the second arrives.
            fault_plan={"runtime.execute": "delay(300)"})
        with ClusterSupervisor(graphs, config) as sup:
            first = sup.submit("ln", random_feeds(graphs["ln"], seed=0),
                               timeout=60.0)
            with pytest.raises(ClusterShed) as shed:
                sup.submit("ln", random_feeds(graphs["ln"], seed=1),
                           timeout=60.0)
            assert shed.value.reason == "capacity"
            assert first.result(timeout=60.0).outputs
            assert sup.metrics.get("requests.shed") == 1
            assert sup.metrics.get("shed.capacity") == 1
            # The released slot admits again.
            assert sup.infer("ln", random_feeds(graphs["ln"], seed=2),
                             timeout=60.0).outputs


class TestCrashRecovery:
    def test_inflight_fails_typed_and_worker_restarts(self, tmp_path):
        graphs = {"ln": _graphs()["ln"]}
        config = _config(tmp_path, workers=2)
        with ClusterSupervisor(graphs, config) as sup:
            sup.infer("ln", random_feeds(graphs["ln"], seed=0),
                      timeout=60.0)  # compiled and serving
            target = sup.owners_for("ln")[0]
            # Hold the next request mid-execution, then kill the worker.
            assert sup.arm_faults(target, {"runtime.execute": "delay(1000)"})
            victim = sup.submit("ln", random_feeds(graphs["ln"], seed=1),
                                timeout=60.0)
            sup.kill_worker(target)
            with pytest.raises(WorkerCrashed) as crash:
                victim.result(timeout=30.0)
            assert crash.value.worker == target
            assert sup.metrics.get("requests.worker_crashed") >= 1
            assert _wait(lambda: sup.metrics.get("workers.crashed") >= 1)
            # Self-healing: the worker restarts (breaker closed) and the
            # cluster serves the same workload again.
            assert _wait(
                lambda: sup.health()["workers"][target]["up"], 60.0)
            assert sup.restarts()[target] >= 1
            reply = sup.infer("ln", random_feeds(graphs["ln"], seed=2),
                              timeout=60.0)
            assert reply.outputs

    def test_crash_path_restarts_alone(self, tmp_path, monkeypatch):
        """A crash is seen twice — the pipe's EOF and the health tick's
        dead process — but handled once: reaping and restarting happen
        on the one loop thread, so however slow the reap, the worker is
        restarted once and no second generation is forked."""
        graphs = {"ln": _graphs()["ln"]}
        threads = set(threading.enumerate())
        with ClusterSupervisor(graphs, _config(tmp_path, workers=1)) as sup:
            sup.infer("ln", random_feeds(graphs["ln"], seed=0),
                      timeout=60.0)
            reap = sup._reap
            monkeypatch.setattr(sup, "_reap", lambda w: (
                time.sleep(0.5), reap(w)))     # five health intervals
            dead = sup._workers["w0"]
            sup.kill_worker("w0")
            assert _wait(lambda: sup.metrics.get("workers.restarts") >= 1
                         and sup.health()["workers"]["w0"]["up"])
            assert dead.conn.closed and not dead.proc.is_alive()
            assert _new_threads(threads) == ["cluster-loop"]
            time.sleep(0.5)                     # five more ticks
            assert sup.metrics.get("workers.crashed") == 1
            assert sup.metrics.get("workers.restarts") == 1
            assert sup.infer("ln", random_feeds(graphs["ln"], seed=1),
                             timeout=60.0).outputs
        assert not multiprocessing.active_children()

    def test_restart_that_never_becomes_ready_blocks_no_thread(
            self, tmp_path, monkeypatch):
        """A restart forks and returns.  The health loop that probed it
        keeps pinging the rest of the fleet while the fresh generation
        boots, and reaps one that is not ready within
        ``start_timeout_s``; the next probe brings a real worker back."""
        graphs = _graphs()
        config = _config(tmp_path, start_timeout_s=2.0,
                         restart_breaker_threshold=1,
                         restart_breaker_reset_s=0.2)
        with ClusterSupervisor(graphs, config) as sup:
            monkeypatch.setattr(supervisor_module, "worker_main",
                                _never_ready)
            sup.kill_worker("w0")
            # The breaker opens at the kill; the health loop's half-open
            # probe forks the generation that never becomes ready.
            assert _wait(lambda: sup.metrics.get("workers.restarts") >= 1)
            probed, stale = time.monotonic(), 0.0
            while (sup.metrics.get("workers.crashed") < 2
                   and time.monotonic() - probed < 30.0):
                stale = max(stale, time.monotonic()
                            - sup._workers["w1"].last_heard)
                time.sleep(0.02)
            assert sup.metrics.get("workers.crashed") == 2
            assert stale < 1.0      # w1 answered a ping every round
            monkeypatch.undo()
            assert _wait(lambda: sup._workers["w0"].ready.is_set())
            assert sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                             timeout=60.0).outputs

    def test_breaker_keeps_crashlooper_down_then_probes(self, tmp_path):
        graphs = {"ln": _graphs()["ln"]}
        config = _config(tmp_path, workers=1,
                         restart_breaker_threshold=1,
                         restart_breaker_reset_s=1.0)
        with ClusterSupervisor(graphs, config) as sup:
            sup.infer("ln", random_feeds(graphs["ln"], seed=0),
                      timeout=60.0)
            sup.kill_worker("w0")
            # Breaker opens on the first crash: the worker stays down and
            # traffic sheds with the worker_down reason.
            assert _wait(
                lambda: not sup.health()["workers"]["w0"]["up"], 30.0)
            with pytest.raises(ClusterShed) as shed:
                sup.submit("ln", random_feeds(graphs["ln"], seed=1))
            assert shed.value.reason == "worker_down"
            assert sup.metrics.get("shed.worker_down") == 1
            # After the reset timeout the health loop half-opens the
            # breaker, probes a restart, and serving resumes.
            assert _wait(lambda: sup.health()["status"] == "healthy", 60.0)

            def healed():
                try:
                    return bool(sup.infer(
                        "ln", random_feeds(graphs["ln"], seed=2),
                        timeout=60.0).outputs)
                except (ClusterShed, WorkerCrashed):
                    return False

            assert _wait(healed, 60.0)

    def test_a_restart_whose_fork_raises_does_not_end_the_loop(
            self, tmp_path, monkeypatch):
        """The loop owns every pipe, so an exception on it is counted,
        not fatal: the other worker keeps answering, and the failed
        restart is a breaker failure the next health tick retries."""
        graphs = _graphs()
        config = _config(tmp_path, drain_timeout_s=5.0)
        with ClusterSupervisor(graphs, config) as sup:
            feeds = random_feeds(graphs["ln"], seed=0)
            assert sup.infer("ln", feeds, timeout=60.0).outputs
            spawn, forks = sup._spawn, []

            def fork_fails_once(name):
                forks.append(name)
                if len(forks) == 1:
                    raise OSError("fork: resource temporarily unavailable")
                return spawn(name)

            monkeypatch.setattr(sup, "_spawn", fork_fails_once)
            dead = sup._workers["w0"]
            sup.kill_worker("w0")
            assert _wait(lambda: sup.metrics.get("loop.errors") == 1, 10.0)
            for seed in range(3):       # w1 hosts every workload
                for name, graph in graphs.items():
                    assert sup.infer(name, random_feeds(graph, seed=seed),
                                     timeout=10.0).outputs
            assert _wait(lambda: sup._workers["w0"] is not dead
                         and sup._workers["w0"].ready.is_set(), 30.0)
            assert forks == ["w0", "w0"]
            assert sup.metrics.get("loop.errors") == 1
            assert sup.health()["workers"]["w0"]["up"]


class TestTheLoopNeverBlocksOnAWorker:
    def test_inband_traffic_both_ways_with_pings_every_10ms(
            self, tmp_path, monkeypatch):
        """Both directions in-band and full: submitters block sending
        128 kB feeds to a worker that executes slowly, and the worker's
        pipe thread blocks sending 128 kB replies back.  The loop must
        keep reading them: were it stuck sending a ping (the send lock
        held by a blocked submitter, or the socket full), the worker
        would never read again and every request would hang."""
        monkeypatch.setattr(SlotArena, "supported", staticmethod(
            lambda: False))
        graphs = {"ln": layernorm_graph(128, 128, name="clu_ln_big")}
        config = _config(tmp_path, workers=1, health_interval_s=0.01)
        with ClusterSupervisor(graphs, config) as sup:
            feeds = [random_feeds(graphs["ln"], seed=s) for s in range(4)]
            assert feeds[0]["X"].nbytes > 64 * 1024
            expected = [execute_graph_reference(graphs["ln"], f)["Y"]
                        for f in feeds]
            assert sup.infer("ln", feeds[0], timeout=60.0)  # warm
            assert sup.arm_faults("w0", {"runtime.execute": "delay(5)"})
            replies: dict[tuple[int, int], object] = {}

            def client(c: int) -> None:
                pending = [(i, sup.submit("ln", feeds[i % 4],
                                          timeout=60.0))
                           for i in range(12)]
                for i, req in pending:
                    replies[c, i] = req.result(timeout=60.0)

            clients = [threading.Thread(target=client, args=(c,))
                       for c in range(4)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=90.0)
            assert not any(t.is_alive() for t in clients)
            assert len(replies) == 48
            for (_, i), reply in replies.items():
                np.testing.assert_allclose(reply.outputs["Y"],
                                           expected[i % 4], atol=1e-8)
            assert sup.metrics.get("wire.inband_requests") == 49
            assert sup.metrics.get("workers.crashed") == 0


class TestTuneDBSharing:
    def test_workers_populate_shared_tunedb(self, tmp_path):
        """With a shared tune_db_dir, worker compiles land tuning entries
        on disk (once per unique kernel) and requests stay correct."""
        from repro.tune import TuneDB

        graphs = _graphs()
        db_dir = tmp_path / "tunedb"
        config = _config(tmp_path, tune_db_dir=str(db_dir))
        with ClusterSupervisor(graphs, config) as cluster:
            for name, graph in graphs.items():
                feeds = random_feeds(graph, seed=11)
                reply = cluster.infer(name, feeds, timeout=120.0)
                expected = execute_graph_reference(graph, feeds)
                for tname, arr in expected.items():
                    np.testing.assert_allclose(reply.outputs[tname],
                                               arr, atol=1e-8)
        stats = TuneDB(db_dir).disk_stats()
        assert stats["disk_entries"] > 0


class TestArenaOwnership:
    def test_killed_workers_slots_return_only_after_reap(self, tmp_path):
        """Requests executing on a worker that is hard-killed fail typed
        while their slots are still theirs; the slots come back once the
        process is reaped, and the restarted generation answers
        correctly out of the very same arena."""
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            name = sup.owners_for("mlp")[0]
            arena = sup._workers[name].arena
            old_proc = sup._workers[name].proc
            assert sup.arm_faults(name, {"runtime.execute": "delay(3000)"})
            held_at_failure = []
            reqs = [sup.submit(
                "mlp", random_feeds(graphs["mlp"], seed=s),
                on_done=lambda _r: held_at_failure.append(arena.held()))
                for s in range(2)]
            assert _wait(lambda: len(arena.held()) == 2, timeout_s=5.0)
            sup.kill_worker(name)
            for req in reqs:
                with pytest.raises(WorkerCrashed):
                    req.result(timeout=30.0)
            # Client-visible failure came first, slot release after it.
            assert [len(h) for h in held_at_failure] == [2, 2]
            assert _wait(lambda: sup.metrics.get("workers.restarts") >= 1
                         and sup.health()["workers"][name]["up"])
            assert not old_proc.is_alive()
            assert arena.held() == {}
            assert sup._workers[name].arena is arena
            before = sup.metrics.get("wire.arena_requests")
            for seed in range(3):
                feeds = random_feeds(graphs["mlp"], seed=seed)
                reply = sup.infer("mlp", feeds, timeout=60.0)
                expected = execute_graph_reference(graphs["mlp"], feeds)
                for out, arr in expected.items():
                    np.testing.assert_allclose(reply.outputs[out], arr,
                                               atol=1e-8)
            assert sup.metrics.get("wire.arena_requests") == before + 3

    def test_nan_feed_is_refused_at_ingress_and_never_crosses_the_wire(
            self, tmp_path):
        """Feeds are validated once, by the supervisor: the worker takes
        them as validated, so the refusal must happen before dispatch."""
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            feeds = random_feeds(graphs["mlp"], seed=0)
            next(iter(feeds.values())).flat[0] = np.nan
            with pytest.raises(InvalidRequestError, match="non-finite"):
                sup.submit("mlp", feeds)
            assert sup.metrics.get("wire.arena_requests") == 0
            assert sup.metrics.get("wire.inband_requests") == 0
            assert all(snap.get("requests.submitted", 0) == 0
                       for snap in sup.worker_stats().values())
