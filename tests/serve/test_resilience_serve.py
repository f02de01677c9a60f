"""Resilience integration: admission control, breaker, quarantine,
disk-error tolerance, and feed validation on the serving stack."""

import threading
import time

import numpy as np
import pytest

from repro.core.compiler import CompileError
from repro.core.serialize import ScheduleCache
from repro.hw import AMPERE
from repro.resilience import faults
from repro.resilience.faults import FaultInjected
from repro.resilience.retry import CLOSED, OPEN, CircuitBreaker, RetryPolicy
from repro.runtime.compiled import PlanCache
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.serve import (
    FusionServer,
    InferenceSession,
    InvalidRequestError,
    Overloaded,
    ServeMetrics,
    TieredScheduleCache,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    faults.registry().disarm()


class _BrokenDisk(ScheduleCache):
    """Disk tier whose every I/O fails."""

    def get(self, *a, **k):
        raise OSError("disk on fire")

    def put(self, *a, **k):
        raise OSError("disk on fire")


class TestDiskErrorTolerance:
    def test_broken_disk_counts_as_miss_not_error(self, small_ln, tmp_path):
        metrics = ServeMetrics()
        cache = TieredScheduleCache(disk=_BrokenDisk(tmp_path),
                                    metrics=metrics)
        from repro.pipeline import compile_for

        sched = cache.get_or_compile(
            small_ln, AMPERE.name,
            lambda: compile_for(small_ln, AMPERE)[0])
        assert sched is not None
        assert metrics.get("cache.disk_errors") == 2     # get and put
        assert cache.stats()["disk_errors"] == 2
        # The schedule still landed in the memory tier.
        assert metrics.get("cache.memory_hits") == 0
        again = cache.get_or_compile(
            small_ln, AMPERE.name,
            lambda: compile_for(small_ln, AMPERE)[0])
        assert again is sched

    def test_disk_failpoints_injected(self, small_ln, tmp_path):
        metrics = ServeMetrics()
        cache = TieredScheduleCache(disk=ScheduleCache(tmp_path),
                                    metrics=metrics)
        from repro.pipeline import compile_for

        with faults.registry().armed({
                "serve.cache.disk_get": "fail_n_times(1)",
                "serve.cache.disk_put": "fail_n_times(1)"}):
            sched = cache.get_or_compile(
                small_ln, AMPERE.name,
                lambda: compile_for(small_ln, AMPERE)[0])
        assert sched is not None
        assert metrics.get("cache.disk_errors") == 2


class TestCompileRetry:
    def test_transient_compile_failure_retried(self, small_ln):
        metrics = ServeMetrics()
        cache = TieredScheduleCache(
            metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.001))
        from repro.pipeline import compile_for

        calls = []

        def flaky_compile():
            calls.append(1)
            if len(calls) == 1:
                raise FaultInjected("transient tuner crash")
            return compile_for(small_ln, AMPERE)[0]

        sched = cache.get_or_compile(small_ln, AMPERE.name, flaky_compile)
        assert sched is not None and len(calls) == 2
        assert metrics.get("cache.compile_retries") == 1

    def test_persistent_failure_still_raises(self, small_ln):
        cache = TieredScheduleCache(
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.001))

        def broken():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            cache.get_or_compile(small_ln, AMPERE.name, broken)

    def test_a_deterministic_compile_error_is_not_retried(self, small_ln):
        metrics = ServeMetrics()
        calls = []

        def broken():
            calls.append(1)
            raise CompileError("no legal schedule")

        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   compile_fn=broken)
        feeds = random_feeds(small_ln, seed=3)
        reply = session.execute(feeds)
        assert len(calls) == 1
        assert metrics.get("cache.compile_retries") == 0
        assert reply.degraded and reply.reason == "compile_failed"
        assert session.compile_error.startswith("CompileError")
        expected = execute_graph_reference(small_ln, feeds)
        for name, arr in expected.items():
            np.testing.assert_array_equal(reply.outputs[name], arr)

    @pytest.mark.parametrize("exc", [FaultInjected, OSError])
    def test_a_transient_compile_error_is_retried(self, small_ln, exc):
        from repro.pipeline import compile_for

        metrics = ServeMetrics()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise exc("flaky measurement")
            return compile_for(small_ln, AMPERE)[0]

        session = InferenceSession(
            small_ln, AMPERE, metrics=metrics, compile_fn=flaky,
            cache=TieredScheduleCache(
                metrics=metrics,
                retry_policy=RetryPolicy(base_delay_s=0.001)))
        assert session.ensure_compiled(timeout=60.0)
        assert session.state == "ready"
        assert len(calls) == 2
        assert metrics.get("cache.compile_retries") == 1
        assert not session.execute(random_feeds(small_ln, seed=4)).degraded


class TestSessionBreaker:
    def test_engine_errors_degrade_then_open_breaker(self, small_ln):
        metrics = ServeMetrics()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=0.02)
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   breaker=breaker, eager=True)
        feeds = random_feeds(small_ln, seed=0)
        expected = execute_graph_reference(small_ln, feeds)

        with faults.registry().armed({
                "runtime.execute": "fail_n_times(2)"}):
            for _ in range(2):
                reply = session.execute(feeds)
                assert reply.degraded and reply.reason == "engine_error"
                for name, arr in expected.items():
                    np.testing.assert_allclose(reply.outputs[name], arr,
                                               atol=1e-9)
        assert breaker.state == OPEN
        assert metrics.get("breaker.open") == 1

        # Open: requests skip the fused path entirely.
        reply = session.execute(feeds)
        assert reply.reason == "breaker_open"

        # After the reset timeout the probe succeeds and the breaker
        # closes again; the fused path is back.
        time.sleep(0.03)
        reply = session.execute(feeds)
        assert not reply.degraded
        assert breaker.state == CLOSED
        assert breaker.cycles == 1
        assert metrics.get("breaker.half_open") == 1
        assert metrics.get("breaker.closed") == 1


class TestPlanQuarantine:
    def test_poisoned_plan_evicted_and_reanswered(self, small_ln):
        metrics = ServeMetrics()
        plans = PlanCache(capacity=8)
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   plan_cache=plans, eager=True)
        feeds = random_feeds(small_ln, seed=1)
        expected = execute_graph_reference(small_ln, feeds)
        poisoned = session.program

        with faults.registry().armed({"runtime.poison": "fail_n_times(1)"}):
            reply = session.execute(feeds)

        assert reply.degraded and reply.reason == "plan_quarantined"
        for name, arr in expected.items():
            assert np.isfinite(reply.outputs[name]).all()
            np.testing.assert_allclose(reply.outputs[name], arr, atol=1e-9)
        # Regression: the plan is *really* gone and was re-lowered.
        assert plans.stats()["quarantined"] == 1
        assert session.program is not poisoned
        assert metrics.get("plans.quarantined") == 1
        assert metrics.get("fallbacks.plan_quarantined") == 1

        # Next request runs the fresh plan, no degradation.
        reply = session.execute(feeds)
        assert not reply.degraded

    def test_nonfinite_data_is_not_blamed_on_the_plan(self, small_ln):
        metrics = ServeMetrics()
        plans = PlanCache(capacity=8)
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   plan_cache=plans, eager=True)
        feeds = random_feeds(small_ln, seed=0)
        feeds["X"] = np.full_like(feeds["X"], np.inf)
        reply = session.execute(feeds)
        assert reply.reason == "nonfinite_data"
        assert plans.stats()["quarantined"] == 0
        assert metrics.get("plans.nonfinite_data") == 1


class TestAdmissionControl:
    def test_overload_sheds_promptly_and_accepted_complete(self, small_ln):
        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   eager=True)
        server = FusionServer({"ln": session}, workers=1,
                              metrics=metrics, max_queue_depth=2)
        feeds = random_feeds(small_ln, seed=0)
        expected = execute_graph_reference(small_ln, feeds)

        accepted, shed = [], []
        # Stall the batcher so the queue cannot drain while we flood it.
        with faults.registry().armed({"serve.batch": "delay(150)"}):
            server.start()
            t0 = time.perf_counter()
            for _ in range(8):
                try:
                    accepted.append(server.submit("ln", feeds))
                except Overloaded:
                    shed.append(1)
            elapsed = time.perf_counter() - t0
        assert elapsed < 1.0                   # sheds are prompt, not queued
        assert len(shed) >= 1
        assert len(accepted) >= 2
        assert metrics.get("requests.shed") == len(shed)

        for req in accepted:
            reply = req.result(timeout=30.0)
            for name, arr in expected.items():
                np.testing.assert_allclose(reply.outputs[name], arr,
                                           atol=1e-9)
        server.stop()
        assert server.queue.depth() == 0

    def test_concurrent_flood_every_request_shed_or_answered(self, small_ln):
        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   eager=True)
        server = FusionServer({"ln": session}, workers=2,
                              metrics=metrics, max_queue_depth=4)
        feeds = random_feeds(small_ln, seed=0)
        outcomes = []
        lock = threading.Lock()

        def client():
            try:
                req = server.submit("ln", feeds)
            except Overloaded:
                with lock:
                    outcomes.append("shed")
                return
            reply = req.result(timeout=30.0)
            with lock:
                outcomes.append("answered" if reply is not None else "?")

        with faults.registry().armed({"serve.batch": "delay(30)"}):
            with server:
                threads = [threading.Thread(target=client)
                           for _ in range(24)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert len(outcomes) == 24
        assert outcomes.count("shed") == metrics.get("requests.shed")
        assert outcomes.count("answered") + outcomes.count("shed") == 24

    def test_unbounded_queue_never_sheds(self, small_ln):
        session = InferenceSession(small_ln, AMPERE, eager=True)
        server = FusionServer({"ln": session}, workers=1)
        feeds = random_feeds(small_ln, seed=0)
        with server:
            reqs = [server.submit("ln", feeds) for _ in range(32)]
            for req in reqs:
                req.result(timeout=30.0)


class TestFeedValidation:
    def _server(self, graph):
        session = InferenceSession(graph, AMPERE)
        return FusionServer({"ln": session})

    def test_nan_feed_rejected_at_submit(self, small_ln):
        server = self._server(small_ln)
        feeds = random_feeds(small_ln, seed=0)
        feeds["X"][0, 0] = np.nan
        with pytest.raises(InvalidRequestError, match="non-finite"):
            server.submit("ln", feeds)

    def test_inf_feed_rejected_at_submit(self, small_ln):
        server = self._server(small_ln)
        feeds = random_feeds(small_ln, seed=0)
        feeds["G"][3] = np.inf
        with pytest.raises(InvalidRequestError, match="non-finite"):
            server.submit("ln", feeds)

    def test_wrong_dtype_rejected(self, small_ln):
        server = self._server(small_ln)
        feeds = random_feeds(small_ln, seed=0)
        feeds["X"] = feeds["X"].astype(np.complex128)
        with pytest.raises(InvalidRequestError, match="dtype"):
            server.submit("ln", feeds)
        feeds["X"] = np.array([["a", "b"]])
        with pytest.raises(InvalidRequestError, match="dtype"):
            server.submit("ln", feeds)

    def test_missing_input_rejected(self, small_ln):
        server = self._server(small_ln)
        feeds = random_feeds(small_ln, seed=0)
        del feeds["X"]
        with pytest.raises(InvalidRequestError, match="missing"):
            server.submit("ln", feeds)

    def test_float32_upcast_is_allowed(self, small_ln):
        session = InferenceSession(small_ln, AMPERE, eager=True)
        server = FusionServer({"ln": session})
        feeds = {k: v.astype(np.float32)
                 for k, v in random_feeds(small_ln, seed=0).items()}
        with server:
            reply = server.infer("ln", feeds)
        assert all(np.isfinite(v).all() for v in reply.outputs.values())


    @pytest.mark.parametrize("arr", [
        np.zeros((0, 3)), np.float64(2.5), np.array(np.nan),
        np.full(8, 1e308),                      # finite, but the sum is not
        np.array([1e308, 1e308, np.inf]), np.array([np.inf, -np.inf]),
        np.array([3.0, -np.inf]), np.array([np.nan, 1.0]),
        np.full(4, 65000.0, dtype=np.float16),
        np.arange(12.0, dtype=np.float32).reshape(3, 4)[:, ::2],
        np.where(np.arange(64.0).reshape(8, 8) == 37, np.nan, 1.0),
    ], ids=repr)
    def test_one_reduction_decides_exactly_what_isfinite_all_did(self, arr):
        """``all_finite`` sums first and only then looks element by
        element; its verdict, and the accept/reject it drives, are those
        of ``np.isfinite(arr).all()`` — with no overflow warning raised."""
        import warnings

        from repro.runtime.dtypes import all_finite
        from repro.serve.batching import validate_feeds

        expected = bool(np.isfinite(arr).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all_finite(arr) is expected
            if expected:
                validate_feeds({"X": arr})
            else:
                with pytest.raises(InvalidRequestError, match="non-finite"):
                    validate_feeds({"X": arr})


class TestHealth:
    def test_healthy_then_degraded_then_unhealthy(self, small_ln):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)
        session = InferenceSession(small_ln, AMPERE, breaker=breaker)
        server = FusionServer({"ln": session})
        assert server.health()["status"] == "healthy"

        breaker.record_failure()               # breaker opens
        health = server.health()
        assert health["status"] == "unhealthy"  # the only session is down
        assert health["sessions"]["ln"]["breaker"] == OPEN

        healthy = InferenceSession(small_ln, AMPERE)
        server.register("ln2", healthy)
        assert server.health()["status"] == "degraded"

        server.stop()
        assert server.health()["status"] == "unhealthy"
        assert server.health()["stopped"]

    def test_health_reports_queue_and_sheds(self, small_ln):
        session = InferenceSession(small_ln, AMPERE)
        server = FusionServer({"ln": session}, max_queue_depth=16)
        health = server.health()
        assert health["queue_depth"] == 0
        assert health["queue_bound"] == 16
        assert health["shed"] == 0
