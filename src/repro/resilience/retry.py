"""Retry with backoff, and circuit breaking, for the serving stack.

:class:`RetryPolicy` wraps an operation that may fail transiently (a
compile attempt) in capped exponential backoff with seeded jitter, so a
flaky dependency costs bounded extra latency instead of an error.

What counts as transient is decided here and nowhere else:
:data:`TRANSIENT` is an injected fault or an ``OSError`` (``TimeoutError``
is one).  Every other error is deterministic — the same input fails the
same way again — so :meth:`RetryPolicy.call` re-raises it on the first
attempt and the caller degrades at once instead of sleeping through
retries that cannot succeed.

:class:`CircuitBreaker` is the classic closed → open → half-open state
machine: after ``failure_threshold`` *consecutive* failures the breaker
opens and callers stop attempting the protected path (the session routes
requests straight to the reference fallback); after ``reset_timeout_s``
one probe is allowed through (half-open) — success closes the breaker,
failure re-opens it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from .faults import FaultInjected

#: The errors a retry can fix: an armed failpoint standing in for a
#: flaky compile or measurement, and the OS (disk, pipes, timeouts).
TRANSIENT: tuple[type[BaseException], ...] = (FaultInjected, OSError)

#: Growth of the backoff delay per retry.
BACKOFF_MULTIPLIER = 2.0
#: Fraction of each delay randomised away by the seeded jitter.
JITTER = 0.5


@dataclass
class RetryPolicy:
    """Exponential backoff with decorrelating jitter, over
    :data:`TRANSIENT` errors only."""

    max_attempts: int = 3
    base_delay_s: float = 0.005
    max_delay_s: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_for(self, retry_index: int,
                  rng: random.Random | None = None) -> float:
        """Backoff before retry number ``retry_index`` (0-based)."""
        delay = min(self.max_delay_s,
                    self.base_delay_s * BACKOFF_MULTIPLIER ** retry_index)
        if rng is not None:
            delay *= 1.0 - JITTER * rng.random()
        return delay

    def call(self, fn: Callable,
             on_retry: Callable[[int, BaseException, float], None]
             | None = None,
             rng: random.Random | None = None,
             sleep: Callable[[float], None] = time.sleep,
             deadline_s: float | None = None,
             on_deadline: Callable[[int, BaseException, float], None]
             | None = None,
             clock: Callable[[], float] = time.monotonic):
        """Run ``fn``, retrying :data:`TRANSIENT` errors; re-raises the
        last error when the attempts run out, and any other error at
        once.

        ``on_retry(attempt, exc, delay_s)`` is called before each backoff
        sleep (attempt numbering starts at 1 for the first *retry*).

        ``deadline_s`` is an absolute monotonic deadline: a backoff sleep
        that would cross it is never scheduled — the last error is raised
        immediately instead, after ``on_deadline(attempt, exc, delay_s)``
        (same signature as ``on_retry``).
        """
        if rng is None:
            rng = random.Random(self.seed)
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except TRANSIENT as exc:
                if attempt + 1 >= self.max_attempts:
                    raise
                delay = self.delay_for(attempt, rng)
                if (deadline_s is not None
                        and clock() + delay > deadline_s):
                    # Sleeping would outlive the request's budget: the
                    # caller gets the error *now*, while there is still
                    # time to degrade (e.g. answer from the reference
                    # path) before the deadline.
                    if on_deadline is not None:
                        on_deadline(attempt + 1, exc, delay)
                    raise
                if on_retry is not None:
                    on_retry(attempt + 1, exc, delay)
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


#: Circuit-breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker over a fallible path.

    Callers bracket the protected operation with :meth:`allow` (False ⇒
    take the fallback immediately) and :meth:`record_success` /
    :meth:`record_failure`.  ``on_transition(old, new)`` — settable after
    construction — observes every state change (the serving layer points
    it at metrics counters); keep it cheap and non-reentrant, it runs
    under the breaker lock.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[str, str], None] | None = None,
                 ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.transitions: list[tuple[str, str]] = []
        self._cycles = 0

    # -- internals (lock held) ------------------------------------------

    def _transition(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        self.transitions.append((old, new))
        if old == HALF_OPEN and new == CLOSED:
            self._cycles += 1
        if new == OPEN:
            self._opened_at = self._clock()
        if new == HALF_OPEN:
            self._probing = False
        if self.on_transition is not None:
            self.on_transition(old, new)

    # -- caller protocol -------------------------------------------------

    def allow(self) -> bool:
        """May the protected path be attempted right now?

        In half-open state one caller gets True until the probe's
        outcome is recorded; everyone else falls back.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.reset_timeout_s:
                    return False
                self._transition(HALF_OPEN)
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._transition(OPEN)
            elif (self._state == CLOSED
                  and self._consecutive_failures >= self.failure_threshold):
                self._transition(OPEN)

    # -- introspection ----------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def cycles(self) -> int:
        """Completed open → half-open → closed recovery cycles."""
        with self._lock:
            return self._cycles

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "transitions": list(self.transitions),
                "recovery_cycles": self._cycles,
            }
