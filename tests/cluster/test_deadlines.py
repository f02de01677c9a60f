"""End-to-end deadline propagation, hedged replicas, graceful signals,
and the exactly-once completion funnel.

The process-level tests fork real workers (chaos-sized workloads, all
context-managed); the race tests drive the request book directly, where
both sides of each race can be sequenced deterministically.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSupervisor
from repro.cluster import book
from repro.cluster.admission import PRIORITY_NORMAL
from repro.models import layernorm_graph, mlp_graph
from repro.resilience import faults
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import HAVE_FCNTL, Request, WorkerCrashed

from .test_book import Shell

pytestmark = pytest.mark.skipif(
    not HAVE_FCNTL, reason="cluster tests assume POSIX (fcntl, fork)")


def _graphs():
    return {
        "mlp": mlp_graph(3, 64, 32, 48, name="ddl_mlp"),
        "ln": layernorm_graph(48, 64, name="ddl_ln"),
    }


def _config(tmp_path, **overrides):
    defaults = dict(workers=2, cache_dir=str(tmp_path / "cache"),
                    health_interval_s=0.1, heartbeat_timeout_s=10.0)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _wait(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestDeadlinePropagation:
    def test_supervisor_elapsed_deducted_before_dispatch(self, tmp_path):
        """The regression the re-timing fix guards: time the request
        spends on the supervisor (routing, queueing) must come out of
        its end-to-end budget.  With 60ms of injected dispatch delay and
        a 30ms budget, a supervisor that forwarded the *full* budget
        would have the warm worker answer comfortably; deducting elapsed
        time leaves nothing, so the request must die at dispatch and
        never cross the wire."""
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            # Warm the shard so a dispatched request would answer in ~ms.
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            served_before = sum(
                snap.get("requests_served", 0)
                for snap in sup.worker_stats().values())
            with faults.registry().armed({"cluster.dispatch": "delay(60)"}):
                req = sup.submit("mlp", random_feeds(graphs["mlp"], seed=1),
                                 timeout=0.03)
            with pytest.raises(TimeoutError, match="budget before dispatch"):
                req.result(timeout=5.0)
            assert req.resolutions == 1
            assert sup.metrics.get("deadline.expired_dispatch") == 1
            served_after = sum(
                snap.get("requests_served", 0)
                for snap in sup.worker_stats().values())
        assert served_after == served_before

    def test_generous_budget_survives_dispatch_delay(self, tmp_path):
        """Same injected delay, budget big enough to absorb it: the
        worker receives the *remaining* budget and still answers in
        time — deduction must not expire healthy requests."""
        graphs = _graphs()
        expected = execute_graph_reference(graphs["mlp"],
                                           random_feeds(graphs["mlp"],
                                                        seed=0))
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            with faults.registry().armed({"cluster.dispatch": "delay(60)"}):
                reply = sup.infer("mlp",
                                  random_feeds(graphs["mlp"], seed=0),
                                  timeout=10.0)
            for name, arr in expected.items():
                np.testing.assert_allclose(reply.outputs[name], arr,
                                           atol=1e-8)
            assert sup.metrics.get("deadline.expired_dispatch") == 0


class TestHedging:
    def test_hedge_wins_on_slow_replica(self, tmp_path):
        """A slow routed worker forces the hedge timer to re-issue to
        the replica, and the hedge answers correctly.  (When the hedge
        falls due, that the late original is counted wasted, and the
        cap on outstanding hedges are virtual-clock examples in
        ``test_book.py::TestHedgeTiming``.)"""
        graphs = _graphs()
        config = _config(tmp_path, replication=2, hedge_delay_s=0.05,
                         hedge_max_fraction=0.5)
        expected = execute_graph_reference(graphs["mlp"],
                                           random_feeds(graphs["mlp"],
                                                        seed=0))
        with ClusterSupervisor(graphs, config) as sup:
            for name in graphs:        # warm both shards' compiles
                sup.infer(name, random_feeds(graphs[name], seed=0),
                          timeout=60.0)
            primary = sup.owners_for("mlp")[0]
            assert sup.arm_faults(primary,
                                  {"cluster.worker.slow": "delay(1500)"})
            for _ in range(2):      # the first may find the replica cold
                reply = sup.infer("mlp",
                                  random_feeds(graphs["mlp"], seed=0),
                                  timeout=30.0)
                for name, arr in expected.items():
                    np.testing.assert_allclose(reply.outputs[name], arr,
                                               atol=1e-8)
            assert sup.metrics.get("hedge.issued") >= 1
            _wait(lambda: sup.metrics.get("hedge.won") >= 1, timeout_s=5.0)
            assert sup.metrics.get("hedge.won") >= 1

    def test_adaptive_delay_is_the_supervisors_latency(self, tmp_path):
        """The hedge timer races ingress-to-reply, so the adaptive delay
        is the p95 of that — never of the worker's execute time, which
        every reply also reports (``latency_s``) and which a request
        waiting behind others on its worker far outlives."""
        sup = ClusterSupervisor(_graphs(),
                                _config(tmp_path, hedge_min_samples=5))
        for _ in range(5):
            request = Request(workload="mlp", feeds={})
            request.enqueued_at -= 0.2      # 200 ms since ingress
            entry = sup.book.open(request, "mlp", "default",
                                  PRIORITY_NORMAL, None)
            wire_id = sup.book.issue(entry, "w0").wire_id
            sup._carry_out(sup.book.settle(wire_id), payload={
                "outputs": {}, "degraded": False, "reason": None,
                "latency_s": 1e-5})
            assert request.result(timeout=0).latency_s == 1e-5
        assert sup.book.hedge_delay("mlp") >= 0.2

    def test_no_hedge_without_replica_or_when_disabled(self, tmp_path):
        graphs = _graphs()
        config = _config(tmp_path, hedge=False, hedge_delay_s=0.01)
        with ClusterSupervisor(graphs, config) as sup:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            assert sup.metrics.get("hedge.issued") == 0
            assert sup.book.hedge_delay("mlp") is None


class TestGracefulSignals:
    def test_worker_sigterm_drains_and_exits_zero(self, tmp_path):
        """SIGTERM to one worker process: it finishes in-flight work and
        exits cleanly (code 0), and the supervisor replaces it."""
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            name = sup.owners_for("mlp")[0]
            victim = sup._workers[name].proc
            restarts_before = sup.metrics.get("workers.restarts")
            os.kill(victim.pid, signal.SIGTERM)
            assert _wait(lambda: victim.exitcode is not None,
                         timeout_s=30.0)
            assert victim.exitcode == 0
            # The supervisor sees the pipe close and brings up a fresh
            # generation; the shard keeps serving.
            assert _wait(lambda: sup.metrics.get("workers.restarts")
                         > restarts_before
                         and sup.health()["workers"][name]["up"],
                         timeout_s=30.0)
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=1),
                      timeout=60.0)

    def test_supervisor_sigterm_drains_fleet(self, tmp_path):
        """SIGTERM with the cluster's handlers installed: the whole
        fleet drains (workers exit 0, final stats collected) before the
        process re-raises SystemExit(143)."""
        graphs = _graphs()
        sup = ClusterSupervisor(graphs, _config(tmp_path))
        sup.start()
        restore = sup.install_signal_handlers()
        try:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            procs = [w.proc for w in sup._workers.values()]
            with pytest.raises(SystemExit) as excinfo:
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5.0)     # interrupted by the handler
            assert excinfo.value.code == 143
            for proc in procs:
                assert _wait(lambda: proc.exitcode is not None,
                             timeout_s=30.0)
                assert proc.exitcode == 0
            assert sup.worker_stats()      # drain collected final stats
        finally:
            restore()
            sup.stop(drain=False)


class TestExactlyOnceRaces:
    """Both sides of each completion race, sequenced deterministically
    through the request book's public methods on a virtual clock (the
    book is where the supervisor decides all of them)."""

    def test_hedge_winner_then_original_resolves_once(self):
        shell = Shell(workers=2, replication=2)
        _, request, original, hedge = shell.hedged_pair()
        won = shell.carry_out(shell.book.settle(hedge))       # hedge wins
        assert won.action == book.RESOLVE
        assert won.cancel == (("wa", original),)
        shell.carry_out(shell.book.settle(original))          # loser lands
        assert request.resolutions == 1
        assert request.error is None
        assert shell.counters["hedge.won"] == 1
        assert shell.counters["hedge.wasted"] == 1
        assert shell.book.hedges_out == 0

    def test_original_beats_hedge_no_double_resolution(self):
        shell = Shell(workers=2, replication=2)
        _, request, original, hedge = shell.hedged_pair()
        won = shell.carry_out(shell.book.settle(original))
        assert won.cancel == (("wb", hedge),)
        shell.carry_out(shell.book.settle(hedge))
        assert request.resolutions == 1
        assert shell.counters["hedge.won"] == 0
        assert shell.counters["hedge.wasted"] == 1
        assert shell.book.hedges_out == 0

    def test_expiry_racing_reply_withholds_the_result(self):
        shell = Shell(hedge=False)
        entry, request = shell.open(timeout=10.0)
        wire_id = shell.book.issue(entry, "wa").wire_id
        shell.clock.now += 10.0
        assert shell.book.pop_due() == ([(book.DEADLINE, entry)], None)
        expired = shell.carry_out(shell.book.expire(entry))   # timer first
        assert expired.cancel == (("wa", wire_id),)
        assert shell.carry_out(shell.book.settle(wire_id)).action is None
        assert request.resolutions == 1
        assert isinstance(request.error, TimeoutError)
        assert shell.counters == {"deadline.expired_supervisor": 1}

    def test_reply_past_deadline_is_never_published(self):
        shell = Shell(hedge=False)
        entry, request = shell.open(timeout=1.0)
        wire_id = shell.book.issue(entry, "wa").wire_id
        shell.clock.now += 1.01         # the timer thread has not run yet
        assert shell.carry_out(shell.book.settle(wire_id)).action == book.LATE
        assert request.resolutions == 1
        assert isinstance(request.error, TimeoutError)
        assert shell.counters == {"deadline.expired_reply": 1}
        assert shell.book.pop_due() == ([], None)

    def test_crash_drain_skips_already_resolved_requests(self):
        """A crash drains the dead worker's copies through the same
        funnel: a request whose reply already resolved it must not be
        failed again by the crash sweep."""
        shell = Shell(workers=2, replication=2)
        _, request, original, hedge = shell.hedged_pair()
        shell.carry_out(shell.book.settle(hedge))
        (wire_id, verdict), = shell.book.drain("wa")
        shell.carry_out(verdict, WorkerCrashed("wa", "died mid-flight"))
        assert wire_id == original and verdict.action is None
        assert request.resolutions == 1
        assert request.error is None

    def test_first_copy_error_held_until_last_copy_fails(self):
        """An error on one copy while another is still out must wait:
        only the final copy's failure fails the request."""
        shell = Shell(workers=2, replication=2)
        _, request, _, hedge = shell.hedged_pair()
        (_, verdict), = shell.book.drain("wa")
        shell.carry_out(verdict, WorkerCrashed("wa", "died mid-flight"))
        assert not request.done()                 # hedge may still win
        shell.carry_out(shell.book.settle(hedge, failed=True),
                        WorkerCrashed("wb", "also died"))
        assert request.resolutions == 1
        assert isinstance(request.error, WorkerCrashed)


class TestSlotLifetime:
    """An arena slot is freed by the worker's terminal message for its
    wire id — not by anything the client can see."""

    def test_slot_outlives_expiry_until_the_workers_terminal_message(
            self, tmp_path, monkeypatch):
        """Two copies expire client-side while the first executes on the
        worker's pipe thread and the second waits in the pipe behind it.
        Neither cancel takes — ``cancel`` stops only a cold-path request
        still in the worker's in-process queue — so the first keeps its
        slot until its execution's terminal message.  The copy behind is
        read only then, past the supervisor's deadline it carries, and is
        refused at ingress without executing; its error frees its slot."""
        graphs = _graphs()
        config = _config(tmp_path, hedge=False)
        with ClusterSupervisor(graphs, config) as sup:
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            name = sup.owners_for("mlp")[0]
            arena = sup._workers[name].arena
            submitted = sup.request_stats(name)["requests.submitted"]
            released = []
            release = arena.release
            monkeypatch.setattr(arena, "release", lambda wire_id: (
                released.append(wire_id), release(wire_id)))
            assert sup.arm_faults(name, {"runtime.execute": "delay(1000)"})
            executing = sup.submit("mlp",
                                   random_feeds(graphs["mlp"], seed=1),
                                   timeout=0.15)
            behind = sup.submit("mlp", random_feeds(graphs["mlp"], seed=2),
                                timeout=0.15)
            for req in (executing, behind):
                with pytest.raises(TimeoutError):
                    req.result(timeout=5.0)
            held = sorted(arena.held())     # issue order: executing first
            assert len(held) == 2
            assert _wait(lambda: not arena.held(), timeout_s=10.0,
                         interval_s=0.01)
            assert released == held
            stats = sup.request_stats(name)
            assert stats.get("requests.cancelled", 0) == 0
            assert stats["deadline.expired_publish"] == 1
            assert stats["deadline.expired_ingress"] == 1
            assert stats["requests.submitted"] == submitted + 1
            assert executing.resolutions == behind.resolutions == 1

    def test_hedge_lives_in_the_targets_arena_and_loser_frees_its_own(
            self, tmp_path):
        graphs = _graphs()
        config = _config(tmp_path, replication=2, hedge_delay_s=0.05,
                         hedge_max_fraction=0.5)
        feeds = random_feeds(graphs["mlp"], seed=3)
        expected = execute_graph_reference(graphs["mlp"], feeds)
        with ClusterSupervisor(graphs, config) as sup:
            primary, replica = sup.owners_for("mlp")[:2]
            sup.infer("mlp", random_feeds(graphs["mlp"], seed=0),
                      timeout=60.0)
            assert _wait(lambda: not sup._workers[primary].arena.held()
                         and not sup._workers[replica].arena.held(),
                         timeout_s=30.0)    # a cold compile may hedge too
            issued_before = sup.metrics.get("hedge.issued")
            a_primary = sup._workers[primary].arena
            a_replica = sup._workers[replica].arena
            assert a_primary is not a_replica
            assert sup.arm_faults(primary,
                                  {"cluster.worker.slow": "delay(600)"})
            seen = []
            req = sup.submit("mlp", feeds, timeout=30.0,
                             on_done=lambda _r: seen.append(
                                 (a_primary.held(), a_replica.held())))
            reply = req.result(timeout=30.0)
            for out, arr in expected.items():
                np.testing.assert_allclose(reply.outputs[out], arr,
                                           atol=1e-8)
            assert sup.metrics.get("hedge.issued") == issued_before + 1
            # When the hedge answered, each copy sat in its own worker's
            # arena; the winner's slot goes with its reply, the loser's
            # only when the slow worker finally sends its own.
            at_win_primary, at_win_replica = seen[0]
            assert len(at_win_primary) == 1 and len(at_win_replica) == 1
            assert set(at_win_primary).isdisjoint(at_win_replica)
            assert _wait(lambda: not a_replica.held(), timeout_s=1.0,
                         interval_s=0.01)
            assert len(a_primary.held()) == 1
            assert _wait(lambda: not a_primary.held(), timeout_s=5.0)
            assert _wait(lambda: sup.metrics.get("hedge.wasted")
                         + sup.metrics.get("requests.remote_errors") >= 1,
                         timeout_s=5.0)
            assert req.resolutions == 1
