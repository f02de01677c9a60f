"""Two-tier compile cache: in-memory LRU over the on-disk schedule cache.

Tier 1 is a bounded LRU of live :class:`~repro.core.schedule.ProgramSchedule`
objects (no deserialisation cost on hit); tier 2 is the persistent
:class:`~repro.core.serialize.ScheduleCache` shared across processes.  A
miss in both tiers compiles under a per-key *single-flight* lock so that
concurrent sessions racing on the same cold graph run one autotuning
campaign, not N — the others block and reuse the winner's schedule.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..core.schedule import ProgramSchedule
from ..core.serialize import ScheduleCache, SerializeError, cache_key
from ..ir.graph import DataflowGraph
from ..obs import span as obs_span
from ..resilience import faults as _faults
from ..resilience.retry import TRANSIENT, RetryPolicy
from ..store import LRU, single_flight
from .metrics import ServeMetrics

CompileFn = Callable[[], ProgramSchedule]

#: Failpoints on the cold-resolution path (armed only by tests/chaos).
FP_DISK_GET = _faults.register("serve.cache.disk_get")
FP_DISK_PUT = _faults.register("serve.cache.disk_put")
FP_COMPILE = _faults.register("serve.cache.compile")

#: Disk-tier errors that count as a miss instead of failing the request:
#: the transient ones, and an entry that does not decode (recompiling
#: overwrites it).
_DISK_ERRORS = TRANSIENT + (SerializeError,)


class _Flight:
    """Per-key single-flight state: a lock plus a waiter refcount.

    The refcount lets the *last* thread through drop the registry entry —
    without it, one lock per unique key would leak forever; dropping the
    entry eagerly instead would let a late waiter race a fresh lock while
    the original holders still serialize on the old one.
    """

    __slots__ = ("lock", "waiters")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.waiters = 0


class TieredScheduleCache:
    """Thread-safe memory-LRU + disk compile cache."""

    def __init__(self, capacity: int = 64,
                 disk: ScheduleCache | None = None,
                 metrics: ServeMetrics | None = None,
                 retry_policy: RetryPolicy | None = None,
                 lock_timeout_s: float = 30.0) -> None:
        self.disk = disk
        #: Bound on waiting for another *process* compiling the same key
        #: (see :meth:`_resolve_cold`).  On timeout we compile anyway: a
        #: stuck fleet member may cost a duplicate campaign, never a hang.
        self.lock_timeout_s = lock_timeout_s
        self.metrics = metrics or ServeMetrics()
        #: Backoff policy around compile attempts: transient compiler
        #: faults retry instead of degrading the session for its whole
        #: lifetime; a deterministic compile error degrades it at once.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=0.005, max_delay_s=0.05)
        self._memory = LRU(capacity, on_evict=lambda _key, _sched:
                           self.metrics.inc("cache.memory_evictions"))
        self._lock = threading.Lock()       # guards ``_inflight``
        self._inflight: dict[str, _Flight] = {}

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------

    def get_or_compile(self, graph: DataflowGraph, gpu_name: str,
                       compile_fn: CompileFn,
                       options_repr: str = "",
                       deadline_s: float | None = None) -> ProgramSchedule:
        """Return the schedule for ``graph`` on ``gpu_name``.

        Resolution order: memory LRU, disk cache, ``compile_fn()`` (which
        runs at most once per key at a time; losers of the race reuse the
        winner's result).  Whatever tier resolves, the result is promoted
        into every tier above it.

        ``deadline_s`` (absolute monotonic, optional) caps the compile
        retry backoff: a retry sleep that would cross the deadline is
        skipped and the last compile error raised immediately, so the
        caller can degrade while its request still has budget.
        """
        # Same key as the disk tier's entry and lock file names.
        key = cache_key(graph, gpu_name, options_repr)
        with obs_span("cache_lookup", category="serve",
                      workload=graph.name) as sp:
            sched = self._memory.get(key)
            if sched is not None:
                self.metrics.inc("cache.memory_hits")
                sp.note(tier="memory")
                return sched

            # Single-flight: one compile (or disk load) per key at a time.
            with self._lock:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                flight.waiters += 1
            try:
                with flight.lock:
                    return self._resolve_cold(key, graph, gpu_name,
                                              compile_fn, options_repr, sp,
                                              deadline_s)
            finally:
                with self._lock:
                    flight.waiters -= 1
                    if (flight.waiters == 0
                            and self._inflight.get(key) is flight):
                        del self._inflight[key]

    def _resolve_cold(self, key: str, graph: DataflowGraph, gpu_name: str,
                      compile_fn: CompileFn, options_repr: str,
                      sp, deadline_s: float | None = None) -> ProgramSchedule:
        """Resolve a memory miss while holding the key's flight lock."""
        sched = self._memory.get(key)
        if sched is not None:           # raced: the winner already filled it
            self.metrics.inc("cache.memory_hits")
            sp.note(tier="memory")
            return sched
        sched = self._disk_get(key, graph, gpu_name, options_repr, sp)
        if sched is not None:
            return sched

        # The in-process flight lock cannot see other fleet members;
        # :func:`~repro.store.single_flight` makes "compile once" hold
        # across the processes sharing the disk tier.
        def recheck() -> ProgramSchedule | None:
            sched = self._disk_get(key, graph, gpu_name, options_repr, sp)
            if sched is not None:
                sp.note(fleet_lock="hit_after_wait")
            return sched

        def on_timeout() -> None:
            self.metrics.inc("cache.lock_timeouts")
            sp.note(fleet_lock="timeout")

        return single_flight(
            self.disk.store if self.disk is not None else None, key,
            self.lock_timeout_s, recheck,
            lambda: self._compile_and_store(graph, gpu_name, compile_fn,
                                            options_repr, key, sp,
                                            deadline_s),
            on_timeout)

    def _disk_get(self, key: str, graph: DataflowGraph, gpu_name: str,
                  options_repr: str, sp) -> ProgramSchedule | None:
        """Disk-tier lookup; a broken disk tier must never fail the
        request: an I/O or deserialisation error is a miss (we can still
        compile)."""
        if self.disk is None:
            return None
        try:
            _faults.fire(FP_DISK_GET)
            sched = self.disk.get(graph, gpu_name, options_repr)
        except _DISK_ERRORS as exc:
            self.metrics.inc("cache.disk_errors")
            sp.note(disk_error=f"{type(exc).__name__}: {exc}")
            sched = None
        if sched is None:
            return None
        self.metrics.inc("cache.disk_hits")
        sp.note(tier="disk")
        self._memory.put(key, sched)
        return sched

    def _compile_and_store(self, graph: DataflowGraph, gpu_name: str,
                           compile_fn: CompileFn, options_repr: str,
                           key: str, sp,
                           deadline_s: float | None = None) -> ProgramSchedule:
        self.metrics.inc("cache.compile_misses")
        sp.note(tier="compile")
        t0 = time.perf_counter()
        sched = self._compile_with_retry(compile_fn, sp, deadline_s)
        self.metrics.observe_compile(time.perf_counter() - t0)
        if self.disk is not None:
            # Same policy on the write side: the compiled schedule is
            # already in hand, a failed persist only loses warm restarts.
            try:
                _faults.fire(FP_DISK_PUT)
                self.disk.put(graph, gpu_name, sched, options_repr)
            except _DISK_ERRORS as exc:
                self.metrics.inc("cache.disk_errors")
                sp.note(disk_put_error=f"{type(exc).__name__}: {exc}")
        self._memory.put(key, sched)
        return sched

    def _compile_with_retry(self, compile_fn: CompileFn, sp,
                            deadline_s: float | None = None,
                            ) -> ProgramSchedule:
        def attempt() -> ProgramSchedule:
            _faults.fire(FP_COMPILE)
            return compile_fn()

        def on_retry(attempt_no: int, exc: BaseException,
                     delay_s: float) -> None:
            self.metrics.inc("cache.compile_retries")
            sp.note(compile_retries=attempt_no,
                    last_error=f"{type(exc).__name__}: {exc}")

        def on_deadline(attempt_no: int, exc: BaseException,
                        delay_s: float) -> None:
            self.metrics.inc("retry.deadline_capped")
            sp.note(retry_deadline_capped=attempt_no)

        return self.retry_policy.call(attempt, on_retry=on_retry,
                                      deadline_s=deadline_s,
                                      on_deadline=on_deadline)

    def inflight_keys(self) -> int:
        """Live single-flight registry size (0 whenever nothing compiles)."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> dict[str, int]:
        m = self.metrics
        return {
            "memory_hits": m.get("cache.memory_hits"),
            "disk_hits": m.get("cache.disk_hits"),
            "compile_misses": m.get("cache.compile_misses"),
            "compile_retries": m.get("cache.compile_retries"),
            "disk_errors": m.get("cache.disk_errors"),
            "lock_timeouts": m.get("cache.lock_timeouts"),
            "memory_evictions": m.get("cache.memory_evictions"),
            "resident": len(self),
            "inflight": self.inflight_keys(),
        }
