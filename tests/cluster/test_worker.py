"""The worker's pipe thread: warm requests run and are answered on it,
cold ones go through the in-process queue, SIGTERM never costs an
inline request its terminal message, and neither a backlog of warm
executions nor a long compile gets the worker reaped as hung.

The first test runs :func:`worker_main` in this process on a thread (no
signal handlers there); the SIGTERM test forks it for real.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSupervisor, WorkerConfig
from repro.cluster.worker import worker_main
from repro.models import mlp_graph
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import HAVE_FCNTL, InferenceSession

pytestmark = pytest.mark.skipif(
    not HAVE_FCNTL, reason="cluster tests assume POSIX (fcntl, fork)")


def _graph():
    return mlp_graph(3, 64, 32, 48, name="wrk_mlp")


def _config(tmp_path, **overrides):
    return WorkerConfig(name="wt",
                        workloads=WorkerConfig.pack_workloads(
                            {"mlp": _graph()}),
                        cache_dir=str(tmp_path / "cache"), **overrides)


class _Recording:
    """The worker's end of the pipe, noting which thread sent what."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.sent: list[tuple[str, object, threading.Thread]] = []

    def send(self, msg) -> None:
        self.sent.append((msg[0], msg[1] if len(msg) > 1 else None,
                          threading.current_thread()))
        self.conn.send(msg)

    def recv(self):
        return self.conn.recv()

    def close(self) -> None:
        self.conn.close()


def _terminal(conn, wire_id, timeout_s=60.0):
    """Read until ``wire_id``'s reply or error; returns it."""
    deadline = time.monotonic() + timeout_s
    while conn.poll(max(0.0, deadline - time.monotonic())):
        msg = conn.recv()
        if msg[0] in ("reply", "error") and msg[1] == wire_id:
            return msg
    raise AssertionError(f"no terminal message for wire id {wire_id}")


class TestPipeThread:
    def test_warm_request_executes_and_is_answered_on_the_pipe_thread(
            self, tmp_path, monkeypatch):
        executed_on = []
        real = InferenceSession.execute

        def recording(self, feeds, timeout=None):
            executed_on.append(threading.current_thread())
            return real(self, feeds, timeout)

        monkeypatch.setattr(InferenceSession, "execute", recording)
        ours, theirs = multiprocessing.Pipe(duplex=True)
        conn = _Recording(theirs)
        pipe_thread = threading.Thread(
            target=worker_main, args=(conn, _config(tmp_path)),
            name="pipe-thread", daemon=True)
        pipe_thread.start()
        try:
            assert ours.poll(60.0) and ours.recv()[0] == "ready"
            graph = _graph()
            feeds = random_feeds(graph, seed=0)
            ours.send(("req", 1, "mlp", feeds, None))     # may be cold
            assert _terminal(ours, 1)[0] == "reply"
            executed_on.clear()
            sent_before = len(conn.sent)
            ours.send(("req", 2, "mlp", feeds, None))     # warm now
            reply = _terminal(ours, 2)
            assert reply[0] == "reply" and not reply[2]["degraded"]
            for name, arr in execute_graph_reference(graph, feeds).items():
                np.testing.assert_allclose(reply[2]["outputs"][name], arr,
                                           atol=1e-8)
            assert executed_on == [pipe_thread]
            assert conn.sent[sent_before:] == [("reply", 2, pipe_thread)]
        finally:
            ours.send(("stop",))
            pipe_thread.join(timeout=30.0)
        assert not pipe_thread.is_alive()
        stopped = ours.recv()
        assert stopped[0] == "stopped"
        # Both requests count; at most the cold one went through a batch.
        assert stopped[1]["requests.submitted"] == 2
        assert stopped[1].get("batches_dispatched", 0) <= 1

    def test_sigterm_during_inline_execution_keeps_its_terminal_message(
            self, tmp_path, monkeypatch):
        """The handler must not unwind the execution (its ``except
        Exception`` would turn it into a request error and the worker
        would never drain): the request is answered, exactly once, and
        then the worker drains and exits 0."""
        ctx = multiprocessing.get_context("fork")
        executing = ctx.Event()
        real = InferenceSession.execute

        def signalling(self, feeds, timeout=None):
            executing.set()
            return real(self, feeds, timeout)

        # Patched before the fork, so the worker process inherits it.
        monkeypatch.setattr(InferenceSession, "execute", signalling)
        ours, theirs = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=worker_main,
                           args=(theirs, _config(tmp_path)), daemon=True)
        proc.start()
        theirs.close()
        try:
            assert ours.poll(60.0) and ours.recv()[0] == "ready"
            feeds = random_feeds(_graph(), seed=0)
            ours.send(("req", 1, "mlp", feeds, None))
            assert _terminal(ours, 1)[0] == "reply"       # compiled
            ours.send(("arm", {"runtime.execute": "delay(1500)"}))
            assert ours.poll(30.0) and ours.recv() == ("armed",)
            executing.clear()
            ours.send(("req", 2, "mlp", feeds, None))
            assert executing.wait(30.0)     # the 1.5 s delay starts now
            os.kill(proc.pid, signal.SIGTERM)
            messages = []
            while ours.poll(30.0):
                try:
                    messages.append(ours.recv())
                except EOFError:
                    break
                if messages[-1][0] == "stopped":
                    break
            proc.join(timeout=30.0)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
        terminal = [m for m in messages if m[0] in ("reply", "error")]
        assert [(m[0], m[1]) for m in terminal] == [("reply", 2)]
        assert not terminal[0][2]["degraded"]
        assert messages[-1][0] == "stopped"
        assert messages[-1][1]["requests.submitted"] == 2
        assert proc.exitcode == 0


class TestBusyWorker:
    def test_backlog_longer_than_the_heartbeat_is_not_hung(self, tmp_path):
        """Eight warm requests of 0.3 s each queue 2.4 s of work ahead
        of every ping — more than twice ``heartbeat_timeout_s`` — but no
        single execution reaches it.  Each reply is proof of life, so
        the busy worker is never declared hung and every answer lands."""
        graphs = {"mlp": _graph()}
        config = ClusterConfig(workers=1, cache_dir=str(tmp_path / "cache"),
                               health_interval_s=0.1,
                               heartbeat_timeout_s=1.0)
        feeds = [random_feeds(graphs["mlp"], seed=s) for s in range(8)]
        with ClusterSupervisor(graphs, config) as sup:
            sup.infer("mlp", feeds[0], timeout=60.0)    # compiled: warm
            assert sup.arm_faults("w0", {"runtime.execute": "delay(300)"})
            t0 = time.monotonic()
            pending = [sup.submit("mlp", f, timeout=60.0) for f in feeds]
            replies = [req.result(timeout=60.0) for req in pending]
            assert time.monotonic() - t0 >= 2 * config.heartbeat_timeout_s
            for f, reply in zip(feeds, replies):
                for name, arr in execute_graph_reference(graphs["mlp"],
                                                         f).items():
                    np.testing.assert_allclose(reply.outputs[name], arr,
                                               atol=1e-8)
            assert sup.metrics.get("workers.hung") == 0
            assert sup.metrics.get("workers.crashed") == 0
            assert sup.restarts() == {"w0": 0}


class TestColdPath:
    def test_compiling_worker_answers_pings_and_is_not_reaped(
            self, tmp_path):
        """A compile held past ``heartbeat_timeout_s``: the request
        waits in the in-process queue, the pipe thread keeps answering
        pings, and the worker is never declared hung."""
        graphs = {"mlp": _graph()}
        config = ClusterConfig(
            workers=1, cache_dir=str(tmp_path / "cache"),
            health_interval_s=0.1, heartbeat_timeout_s=1.0,
            fault_plan={"serve.cache.compile": "delay(2500)"})
        feeds = random_feeds(graphs["mlp"], seed=0)
        with ClusterSupervisor(graphs, config) as sup:
            t0 = time.monotonic()
            reply = sup.infer("mlp", feeds, timeout=60.0)
            assert time.monotonic() - t0 >= 2.0     # it did wait the compile
            assert not reply.degraded
            for name, arr in execute_graph_reference(graphs["mlp"],
                                                     feeds).items():
                np.testing.assert_allclose(reply.outputs[name], arr,
                                           atol=1e-8)
            stats = sup.request_stats("w0")
            assert sup.metrics.get("workers.hung") == 0
            assert sup.metrics.get("workers.crashed") == 0
            assert sup.restarts() == {"w0": 0}
        assert stats["batches_dispatched"] == 1
        assert stats["queue_wait.count"] == 1
        assert stats["requests.submitted"] == 1
