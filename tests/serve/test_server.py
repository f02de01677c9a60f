"""Integration tests for FusionServer: batching, concurrency, fallback.

The deterministic integration test of the acceptance criteria lives here:
>=4 concurrent client threads, zero wrong answers, and one forced
fallback-to-unfused downgrade — all against precomputed references.
"""

import threading
import time

import numpy as np
import pytest

from repro.hw import AMPERE
from repro.resilience import faults
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import (
    FusionServer,
    InferenceSession,
    InvalidRequestError,
    Request,
    RequestQueue,
    ServeMetrics,
    ServerError,
    WorkerCrashed,
    batch_key,
)


class TestQueueAndBatching:
    def test_fifo_and_depth(self, small_ln):
        q = RequestQueue()
        f = random_feeds(small_ln, seed=0)
        assert q.put(Request("w", f)) == 1
        assert q.put(Request("w", f)) == 2
        batch = q.take_batch(max_batch=8, max_wait_s=0.0)
        assert len(batch) == 2 and batch[0].seq < batch[1].seq
        assert q.depth() == 0

    def test_max_batch_respected(self, small_ln):
        q = RequestQueue()
        f = random_feeds(small_ln, seed=0)
        for _ in range(5):
            q.put(Request("w", f))
        assert len(q.take_batch(max_batch=3, max_wait_s=0.0)) == 3
        assert q.depth() == 2

    def test_only_same_key_coalesces(self, small_ln, small_mlp):
        q = RequestQueue()
        q.put(Request("ln", random_feeds(small_ln, seed=0)))
        q.put(Request("mlp", random_feeds(small_mlp, seed=0)))
        q.put(Request("ln", random_feeds(small_ln, seed=1)))
        batch = q.take_batch(max_batch=8, max_wait_s=0.0)
        assert [r.workload for r in batch] == ["ln", "ln"]
        assert q.depth() == 1                  # the mlp request is untouched

    def test_batch_key_tracks_shapes(self, small_ln, small_mlp):
        assert batch_key("w", random_feeds(small_ln, seed=0)) == \
            batch_key("w", random_feeds(small_ln, seed=9))
        assert batch_key("w", random_feeds(small_ln, seed=0)) != \
            batch_key("w", random_feeds(small_mlp, seed=0))

    def test_closed_empty_queue_returns_empty_batch(self):
        q = RequestQueue()
        q.close()
        assert q.take_batch(max_batch=4, max_wait_s=0.0) == []
        with pytest.raises(RuntimeError):
            q.put(Request("w", {}))

    def test_take_batch_blocks_until_put(self, small_ln):
        """Idle workers sleep on the condition (no busy-poll) and wake as
        soon as a request lands."""
        q = RequestQueue()
        out = []
        t = threading.Thread(
            target=lambda: out.append(q.take_batch(4, 0.0)))
        t.start()
        time.sleep(0.05)
        assert t.is_alive() and not out       # parked, not returned empty
        q.put(Request("w", random_feeds(small_ln, seed=0)))
        t.join(timeout=5.0)
        assert not t.is_alive() and len(out[0]) == 1

    def test_close_wakes_blocked_take_batch(self):
        q = RequestQueue()
        out = []
        t = threading.Thread(
            target=lambda: out.append(q.take_batch(4, 0.0)))
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive() and out == [[]]

    def test_expired_request_failed_at_dequeue(self, small_ln):
        """Regression: a request whose deadline passed while queued must
        never be dispatched — it is failed with TimeoutError and the
        ``on_expired`` hook fires."""
        expired = []
        q = RequestQueue(on_expired=expired.append)
        dead = Request("w", random_feeds(small_ln, seed=0), timeout_s=0.001)
        live = Request("w", random_feeds(small_ln, seed=1))
        q.put(dead)
        q.put(live)
        time.sleep(0.01)                      # dead's deadline passes
        batch = q.take_batch(max_batch=8, max_wait_s=0.0)
        assert [r.seq for r in batch] == [live.seq]
        assert len(expired) == 1 and expired[0] is dead
        assert dead.done()
        with pytest.raises(TimeoutError, match="expired"):
            dead.result(timeout=0)
        assert q.depth() == 0


class TestServerIntegration:
    def test_concurrent_clients_zero_wrong_answers(self, small_mlp):
        """Acceptance: 4 client threads through the full server stack."""
        metrics = ServeMetrics()
        session = InferenceSession(small_mlp, AMPERE, metrics=metrics)
        seeds = list(range(12))
        expected = {
            s: execute_graph_reference(small_mlp,
                                       random_feeds(small_mlp, seed=s))
            for s in seeds
        }
        wrong = []

        def client(chunk):
            for seed in chunk:
                reply = server.infer("mlp", random_feeds(small_mlp,
                                                         seed=seed))
                for name, arr in expected[seed].items():
                    if not np.allclose(reply.outputs[name], arr, atol=1e-9):
                        wrong.append(seed)

        with FusionServer({"mlp": session}, max_batch=4, max_wait_ms=5.0,
                          workers=2, metrics=metrics) as server:
            threads = [threading.Thread(target=client,
                                        args=(seeds[i::4],))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert wrong == []
        assert metrics.get("requests_served") == len(seeds)
        assert metrics.get("batches_dispatched") >= 1
        snap = metrics.snapshot()
        assert snap["request_latency.count"] == len(seeds)

    def test_forced_fallback_downgrade(self, small_ln):
        """Acceptance: one compile failure exercises the unfused path."""
        def broken():
            raise RuntimeError("no backend available")

        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   compile_fn=broken)
        feeds = random_feeds(small_ln, seed=2)
        with FusionServer({"ln": session}, metrics=metrics) as server:
            reply = server.infer("ln", feeds)
        assert reply.degraded and reply.reason == "compile_failed"
        expected = execute_graph_reference(small_ln, feeds)
        for name, arr in expected.items():
            np.testing.assert_allclose(reply.outputs[name], arr)
        assert metrics.get("fallbacks") == 1
        report = server.stats_report()
        assert "fallbacks" in report and "state=failed" in report

    def test_multi_workload_server(self, small_ln, small_mlp):
        sessions = {
            "ln": InferenceSession(small_ln, AMPERE),
            "mlp": InferenceSession(small_mlp, AMPERE),
        }
        with FusionServer(sessions, workers=2) as server:
            r_ln = server.submit("ln", random_feeds(small_ln, seed=1))
            r_mlp = server.submit("mlp", random_feeds(small_mlp, seed=1))
            out_ln = r_ln.result(timeout=120).outputs
            out_mlp = r_mlp.result(timeout=120).outputs
        ref_ln = execute_graph_reference(small_ln,
                                         random_feeds(small_ln, seed=1))
        ref_mlp = execute_graph_reference(small_mlp,
                                          random_feeds(small_mlp, seed=1))
        for name, arr in ref_ln.items():
            np.testing.assert_allclose(out_ln[name], arr, atol=1e-9)
        for name, arr in ref_mlp.items():
            np.testing.assert_allclose(out_mlp[name], arr, atol=1e-9)

    def test_unknown_workload_rejected_at_submit(self, small_ln):
        with FusionServer({"ln": InferenceSession(small_ln, AMPERE)}) \
                as server:
            with pytest.raises(ServerError, match="unknown workload"):
                server.submit("missing", {})

    def test_stop_without_drain_fails_pending(self, small_ln):
        session = InferenceSession(small_ln, AMPERE)
        server = FusionServer({"ln": session})   # never started: no workers
        req = server.submit("ln", random_feeds(small_ln, seed=0))
        server.stop(drain=False)
        with pytest.raises(ServerError, match="stopped before dispatch"):
            req.result(timeout=1.0)

    def test_stop_without_drain_fails_every_queued_request(self, small_ln):
        """Regression: nothing queued survives an abrupt stop — every
        pending request is failed, none can block its client forever."""
        server = FusionServer({"ln": InferenceSession(small_ln, AMPERE)})
        reqs = [server.submit("ln", random_feeds(small_ln, seed=i))
                for i in range(3)]
        server.stop(drain=False)
        for req in reqs:
            with pytest.raises(ServerError, match="stopped before dispatch"):
                req.result(timeout=1.0)
        assert server.queue.depth() == 0

    def test_stop_with_drain_on_never_started_server(self, small_ln):
        """drain=True on a server with no workers still leaves nothing
        unanswered: the post-join sweep fails what nobody will serve."""
        server = FusionServer({"ln": InferenceSession(small_ln, AMPERE)})
        req = server.submit("ln", random_feeds(small_ln, seed=0))
        server.stop()                            # drain=True, zero workers
        with pytest.raises(ServerError, match="stopped before dispatch"):
            req.result(timeout=1.0)

    def test_worker_crash_fails_inflight_typed_then_recovers(self,
                                                             small_ln):
        """Regression for the stop()-vs-crash hole: a request on a dying
        worker thread fails promptly with typed WorkerCrashed (never
        hangs until its timeout), the crash is counted, and the restarted
        worker keeps serving."""
        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics)
        with FusionServer({"ln": session}, workers=1,
                          metrics=metrics) as server:
            server.infer("ln", random_feeds(small_ln, seed=0))  # warm
            with faults.registry().armed(
                    {"serve.worker_crash": "fail_n_times(1)"}):
                victim = server.submit("ln",
                                       random_feeds(small_ln, seed=1),
                                       timeout=60.0)
                t0 = time.monotonic()
                with pytest.raises(WorkerCrashed, match="serve-worker"):
                    victim.result(timeout=30.0)
                assert time.monotonic() - t0 < 10.0   # typed, not hung
            assert metrics.get("workers.crashed") == 1
            assert metrics.get("requests.worker_crashed") == 1
            # The same thread re-entered its loop: still serving.
            reply = server.infer("ln", random_feeds(small_ln, seed=2))
            assert reply.outputs and not reply.degraded

    def test_on_done_fires_exactly_once(self, small_ln):
        completions = []
        session = InferenceSession(small_ln, AMPERE)
        with FusionServer({"ln": session}) as server:
            req = server.submit("ln", random_feeds(small_ln, seed=0),
                                on_done=completions.append)
            req.result(timeout=120.0)
        # Redundant completions must not re-fire the hook.
        req.resolve(req.reply)
        assert completions == [req] and req.resolutions == 2

    def test_expired_request_counted_and_reported(self, small_ln):
        """Acceptance: an expired request raises TimeoutError, bumps
        ``requests.expired``, and the report carries p50/p95/p99."""
        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics)
        server = FusionServer({"ln": session}, metrics=metrics)
        # Enqueue before any worker exists, so the deadline reliably
        # passes while the request sits in the queue.
        expired = server.submit("ln", random_feeds(small_ln, seed=0),
                                timeout=0.005)
        time.sleep(0.02)
        server.start()
        with pytest.raises(TimeoutError, match="expired"):
            expired.result(timeout=10.0)
        live = server.infer("ln", random_feeds(small_ln, seed=1))
        server.stop()
        assert not live.degraded
        assert metrics.get("requests.expired") == 1
        report = metrics.report()
        assert "requests.expired" in report
        for needle in ("p50<=", "p95<=", "p99<=", "queue_wait"):
            assert needle in report


class TestRequestClaims:
    def test_result_serves_many_waiters_and_times_out(self, small_ln):
        req = Request("w", random_feeds(small_ln, seed=0))
        with pytest.raises(TimeoutError, match="still pending"):
            req.result(timeout=0.01)
        got = []
        waiters = [threading.Thread(
            target=lambda: got.append(req.result(timeout=10.0)))
            for _ in range(4)]
        for t in waiters:
            t.start()
        req.resolve("r")
        for t in waiters:
            t.join(timeout=10.0)
        assert got == ["r"] * 4 and req.done()
        assert req.result() == "r"


class TestRunInline:
    def test_answers_on_the_calling_thread_without_queue_or_batch(
            self, small_ln):
        """``run_inline`` is ``submit`` minus the hand-off: the same
        counters, span and publish gate, but no queue wait, no batch."""
        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   eager=True)
        feeds = random_feeds(small_ln, seed=0)
        expected = execute_graph_reference(small_ln, feeds)
        threads = []
        real = session.execute
        session.execute = lambda *a, **k: (
            threads.append(threading.current_thread()) or real(*a, **k))
        with FusionServer({"ln": session}, metrics=metrics) as server:
            request = server.run_inline("ln", feeds)
            assert request.done() and request.resolutions == 1
            reply = request.result(timeout=0)
            for name, arr in expected.items():
                np.testing.assert_allclose(reply.outputs[name], arr,
                                           atol=1e-8)
            late = server.run_inline("ln", feeds,
                                     deadline_s=time.monotonic() - 1.0)
            with pytest.raises(TimeoutError, match="result withheld"):
                late.result(timeout=0)
            with pytest.raises(ServerError, match="unknown workload"):
                server.run_inline("missing", feeds)
        with pytest.raises(ServerError, match="stopped"):
            server.run_inline("ln", feeds)
        assert threads == [threading.current_thread()] * 2
        snap = metrics.snapshot()
        assert snap["requests.submitted"] == 3
        assert snap["deadline.expired_publish"] == 1
        assert snap.get("batches_dispatched", 0) == 0
        assert snap["queue_wait.count"] == 0


class TestValidateOnce:
    def _count_validations(self, monkeypatch):
        import repro.serve.server as server_mod

        calls = []
        real = server_mod.validate_feeds

        def counting(feeds, required=None):
            calls.append(1)
            return real(feeds, required=required)

        monkeypatch.setattr(server_mod, "validate_feeds", counting)
        return calls

    def test_direct_callers_are_validated_exactly_once(self, small_ln,
                                                       monkeypatch):
        calls = self._count_validations(monkeypatch)
        session = InferenceSession(small_ln, AMPERE)
        with FusionServer({"ln": session}) as server:
            server.infer("ln", random_feeds(small_ln, seed=0))
            assert len(calls) == 1
            bad = random_feeds(small_ln, seed=1)
            next(iter(bad.values())).flat[0] = np.inf
            with pytest.raises(InvalidRequestError):
                server.submit("ln", bad)
            assert len(calls) == 2

    def test_validated_feeds_are_not_scanned_again(self, small_ln,
                                                   monkeypatch):
        calls = self._count_validations(monkeypatch)
        session = InferenceSession(small_ln, AMPERE)
        with FusionServer({"ln": session}) as server:
            server.submit("ln", random_feeds(small_ln, seed=0),
                          validated=True).result(timeout=60.0)
        assert calls == []

    def test_cluster_worker_defaults_are_work_conserving(self):
        from repro.cluster import ClusterConfig, WorkerConfig

        assert ClusterConfig().max_wait_ms == 0.0
        assert WorkerConfig(name="w", workloads={}).max_wait_ms == 0.0
