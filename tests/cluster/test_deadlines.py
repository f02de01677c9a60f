"""End-to-end deadline propagation, graceful signals, and the
exactly-once completion funnel.

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
from repro.models import layernorm_graph, mlp_graph
from repro.resilience import faults
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import HAVE_FCNTL, WorkerCrashed

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


class TestExactlyOnceRaces:
    """Both sides of each completion race, sequenced deterministically
    through the request book's public methods on a virtual clock (the
    book is where the supervisor decides all of them)."""

    def test_expiry_racing_reply_withholds_the_result(self):
        shell = Shell()
        entry, request = shell.open(timeout=10.0)
        wire_id = shell.book.issue(entry, "wa").wire_id
        shell.clock.now += 10.0
        assert shell.book.pop_due() == ([entry], None)
        expired = shell.carry_out(shell.book.expire(entry))   # timer first
        assert expired.action == book.EXPIRE
        assert shell.book.backlog("wa") == (1, 0.0)   # still out on wa
        assert shell.carry_out(shell.book.settle(wire_id)).action is None
        assert request.resolutions == 1
        assert isinstance(request.error, TimeoutError)
        assert shell.counters == {"deadline.expired_supervisor": 1}

    def test_reply_past_deadline_is_never_published(self):
        shell = Shell()
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
        funnel: a request the deadline already resolved must not be
        failed again by the crash sweep."""
        shell = Shell()
        entry, request = shell.open(timeout=1.0)
        wire_id = shell.book.issue(entry, "wa").wire_id
        shell.clock.now += 1.0
        shell.carry_out(shell.book.expire(entry))
        (drained, verdict), = shell.book.drain("wa")
        shell.carry_out(verdict, WorkerCrashed("wa", "died mid-flight"))
        assert drained == wire_id and verdict.action is None
        assert request.resolutions == 1
        assert isinstance(request.error, TimeoutError)


class TestSlotLifetime:
    """An arena slot is freed by the worker's terminal message for its
    wire id — not by anything the client can see."""

    def test_slot_outlives_expiry_until_the_workers_terminal_message(
            self, tmp_path, monkeypatch):
        """Two requests expire client-side while the first executes on
        the worker's pipe thread and the second waits in the pipe behind
        it.  Nothing is sent to the worker on expiry, so the first keeps
        its slot until its execution's terminal message.  The one behind is
        read only then, past the supervisor's deadline it carries, and is
        refused at ingress without executing; its error frees its slot."""
        graphs = _graphs()
        with ClusterSupervisor(graphs, _config(tmp_path)) as sup:
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
            assert stats["deadline.expired_publish"] == 1
            assert stats["deadline.expired_ingress"] == 1
            assert stats["requests.submitted"] == submitted + 1
            assert executing.resolutions == behind.resolutions == 1
