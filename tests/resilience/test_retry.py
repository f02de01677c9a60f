"""Tests for RetryPolicy and CircuitBreaker."""

import pytest

from repro.resilience.faults import FaultInjected
from repro.resilience.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
)


class _Flaky:
    """Callable failing the first ``n`` invocations."""

    def __init__(self, n, exc=OSError):
        self.n = n
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n:
            raise self.exc(f"transient #{self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_first_try_success_no_sleep(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3)
        assert policy.call(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_transient_failure_retried(self):
        fn = _Flaky(2)
        retries = []
        policy = RetryPolicy(max_attempts=3, seed=0)
        result = policy.call(fn, sleep=lambda s: None,
                             on_retry=lambda n, e, d: retries.append(n))
        assert result == "ok"
        assert fn.calls == 3
        assert retries == [1, 2]

    def test_attempts_exhausted_reraises_last(self):
        fn = _Flaky(5)
        policy = RetryPolicy(max_attempts=3, seed=0)
        with pytest.raises(OSError, match="transient #3"):
            policy.call(fn, sleep=lambda s: None)
        assert fn.calls == 3

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.03)
        delays = [policy.delay_for(i) for i in range(4)]
        assert delays == pytest.approx([0.01, 0.02, 0.03, 0.03])

    def test_jitter_is_seeded_and_bounded(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        sa, sb = [], []
        with pytest.raises(OSError):
            a.call(_Flaky(9), sleep=sa.append)
        with pytest.raises(OSError):
            b.call(_Flaky(9), sleep=sb.append)
        assert sa == sb                      # same seed, same jitter
        for i, d in enumerate(sa):
            full = a.delay_for(i)            # no-rng call: undithered
            assert 0.5 * full <= d <= full

    def test_non_matching_exception_not_retried(self):
        policy = RetryPolicy(max_attempts=5)
        fn = _Flaky(2, exc=KeyError)
        with pytest.raises(KeyError):
            policy.call(fn, sleep=lambda s: None)
        assert fn.calls == 1

    @pytest.mark.parametrize("exc", [
        lambda msg: FaultInjected(msg), OSError, TimeoutError])
    def test_transient_errors_are_retried(self, exc):
        fn = _Flaky(2, exc=exc)
        assert RetryPolicy(max_attempts=3, seed=0).call(
            fn, sleep=lambda s: None) == "ok"
        assert fn.calls == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class _NoJitter:
    """An ``rng`` seam that never shortens a delay."""

    def random(self):
        return 0.0


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestRetryDeadline:
    """``deadline_s``: an absolute budget no backoff sleep may cross."""

    def test_none_deadline_keeps_legacy_behaviour(self):
        fn = _Flaky(2)
        policy = RetryPolicy(max_attempts=3, seed=0)
        assert policy.call(fn, sleep=lambda s: None,
                           deadline_s=None) == "ok"
        assert fn.calls == 3

    def test_sleep_that_would_cross_deadline_is_skipped(self):
        clock = _Clock()
        clock.now = 100.0
        fn = _Flaky(9)
        capped = []
        slept = []
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.05, seed=0)
        # First retry would sleep until 100.05 > 100.02: raise instead,
        # with the deadline hook (not the retry hook) observing it.
        with pytest.raises(OSError, match="transient #1"):
            policy.call(fn, sleep=slept.append, clock=clock,
                        rng=_NoJitter(),
                        deadline_s=100.02,
                        on_deadline=lambda n, e, d: capped.append((n, d)))
        assert fn.calls == 1
        assert slept == []
        assert capped == [(1, 0.05)]

    def test_far_deadline_never_caps(self):
        clock = _Clock()
        fn = _Flaky(2)
        capped = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=0)
        assert policy.call(fn, sleep=lambda s: clock.__setattr__(
                               "now", clock.now + s),
                           clock=clock, deadline_s=1e9,
                           on_deadline=lambda n, e, d: capped.append(n)
                           ) == "ok"
        assert fn.calls == 3
        assert capped == []

    def test_deadline_mid_chain_caps_remaining_retries(self):
        clock = _Clock()
        fn = _Flaky(9)
        slept = []

        def sleep(s):
            slept.append(s)
            clock.now += s

        policy = RetryPolicy(max_attempts=10, base_delay_s=0.05,
                             max_delay_s=0.05, seed=0)
        # Budget fits two backoffs (0.05 + 0.05 = 0.10 ≤ 0.12); the
        # third would end at 0.15 > 0.12 and must be skipped.
        with pytest.raises(OSError, match="transient #3"):
            policy.call(fn, sleep=sleep, clock=clock, deadline_s=0.12,
                        rng=_NoJitter())
        assert fn.calls == 3
        assert slept == pytest.approx([0.05, 0.05])

    def test_on_deadline_is_optional(self):
        clock = _Clock()
        policy = RetryPolicy(max_attempts=3, base_delay_s=1.0, seed=0)
        with pytest.raises(OSError):
            policy.call(_Flaky(9), sleep=lambda s: None, clock=clock,
                        deadline_s=0.5)


class TestCircuitBreaker:
    def test_closed_allows(self):
        b = CircuitBreaker()
        assert b.state == CLOSED and b.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED

    def test_half_open_probe_then_close(self):
        clock = _Clock()
        b = CircuitBreaker(failure_threshold=1, reset_timeout_s=10.0,
                           clock=clock)
        b.record_failure()
        assert b.state == OPEN and not b.allow()
        clock.now = 10.5
        assert b.allow()                     # the probe
        assert b.state == HALF_OPEN
        assert not b.allow()                 # only one probe at a time
        b.record_success()
        assert b.state == CLOSED
        assert b.cycles == 1
        assert b.transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_half_open_probe_failure_reopens(self):
        clock = _Clock()
        b = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                           clock=clock)
        b.record_failure()
        clock.now = 6.0
        assert b.allow()
        b.record_failure()
        assert b.state == OPEN and b.cycles == 0
        clock.now = 20.0
        assert b.allow()                     # a fresh probe later
        b.record_success()
        assert b.state == CLOSED and b.cycles == 1

    def test_transition_callback_sees_every_change(self):
        seen = []
        clock = _Clock()
        b = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0,
                           clock=clock,
                           on_transition=lambda o, n: seen.append((o, n)))
        b.record_failure()
        clock.now = 2.0
        b.allow()
        b.record_success()
        assert seen == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]

    def test_snapshot(self):
        b = CircuitBreaker(failure_threshold=4)
        b.record_failure()
        snap = b.snapshot()
        assert snap["state"] == CLOSED
        assert snap["consecutive_failures"] == 1
        assert snap["recovery_cycles"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
