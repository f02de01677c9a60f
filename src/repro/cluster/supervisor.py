"""ClusterSupervisor: sharded multi-process serving with self-healing.

The supervisor scales :class:`~repro.serve.server.FusionServer` past one
process: it forks ``N`` worker processes (each hosting inference
sessions behind its own in-process server, see
:mod:`repro.cluster.worker`), shards workloads across them with a
consistent-hash ring, admits requests under a priority/tenant-aware
policy *before* they cross the process boundary, health-checks the fleet
with heartbeats, and restarts crashed workers behind a per-worker
circuit breaker.

Delivery guarantees:

* every accepted (admitted) request is answered **exactly once** — with
  outputs, a typed rejection, or :class:`~repro.serve.batching.WorkerCrashed`
  when its worker died mid-flight; nothing ever hangs a submitter past
  its timeout;
* a key is **compiled once fleet-wide**: workers share one disk schedule
  cache directory, and the per-key advisory file lock in
  :class:`~repro.serve.cache.TieredScheduleCache` extends single-flight
  across processes;
* ``stop(drain=True)`` is a **graceful drain**: workers stop accepting,
  finish their queues, and report their final metrics, which the
  supervisor aggregates into the cluster report.

The degradation ladder under overload, from the outside in: tenant
fair-share shed → priority-class shed → capacity shed (all supervisor
side, cheap) → worker-queue shed (:class:`~repro.serve.batching.Overloaded`
over the wire) → per-session compiled→reference fallback inside the
worker (never an error).
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing as mp
import signal as _signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..ir.graph import DataflowGraph
from ..obs import event as obs_event
from ..resilience import faults as _faults
from ..resilience.retry import CircuitBreaker
from ..serve import (
    Overloaded,
    Request,
    ServeMetrics,
    SessionReply,
    WorkerCrashed,
    validate_feeds,
)
from .admission import (
    PRIORITY_NORMAL,
    SHED_WORKER_DOWN,
    AdmissionController,
    AdmissionPolicy,
)
from .arena import SlotArena, slot_bytes_for
from .sharding import HashRing
from .worker import (
    ERR_CRASHED,
    ERR_DRAINING,
    ERR_INVALID,
    ERR_OVERLOADED,
    ERR_TIMEOUT,
    WorkerConfig,
    worker_main,
)


#: Failpoint on the supervisor's dispatch path (between ingress and the
#: wire send).  A ``delay(ms)`` here simulates slow routing/queueing so
#: tests can prove supervisor-side elapsed time is deducted from the
#: request's end-to-end budget before the worker sees it.
FP_DISPATCH = _faults.register("cluster.dispatch")


class ClusterError(Exception):
    """Invalid cluster usage (unknown workload, stopped cluster)."""


class ClusterShed(Overloaded):
    """Typed supervisor-side load shed; ``reason`` names the policy rung
    (``capacity`` / ``priority`` / ``tenant`` / ``worker_down``)."""

    def __init__(self, reason: str, worker: str | None = None) -> None:
        RuntimeError.__init__(
            self, f"cluster shed ({reason})"
            + (f" routing to worker {worker!r}" if worker else ""))
        self.reason = reason
        self.worker = worker
        self.depth = -1
        self.bound = -1


#: Wire error kind → exception factory (message carried verbatim).
def _rebuild_error(kind: str, msg: str, worker: str) -> Exception:
    if kind == ERR_OVERLOADED or kind == ERR_DRAINING:
        exc: Exception = ClusterShed("worker_queue", worker)
        exc.args = (msg,)
        return exc
    if kind == ERR_CRASHED:
        return WorkerCrashed(worker, msg)
    if kind == ERR_TIMEOUT:
        return TimeoutError(msg)
    if kind == ERR_INVALID:
        from ..serve import InvalidRequestError

        return InvalidRequestError(msg)
    return ClusterError(f"worker {worker}: {msg}")


@dataclass
class ClusterConfig:
    """Knobs for the whole cluster tier (worker knobs included)."""

    workers: int = 2
    gpu: str = "ampere"
    engine: str = "compiled"
    #: Shared disk schedule-cache directory (None = no cross-process
    #: cache — each worker compiles privately; set it in production).
    cache_dir: str | None = None
    #: Shared tuning-database directory (None = per-process tuning only;
    #: point the fleet at one directory so each kernel's campaign runs
    #: once cluster-wide — see :mod:`repro.tune`).
    tune_db_dir: str | None = None
    #: How many distinct workers host each workload (primary + warm
    #: fallbacks for routing around a down worker).
    replication: int = 2
    vnodes: int = 64
    max_batch: int = 8
    #: 0 = work-conserving batching (see ``WorkerConfig.max_wait_ms``).
    max_wait_ms: float = 0.0
    threads_per_worker: int = 2
    worker_queue_depth: int | None = 64
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    health_interval_s: float = 0.25
    heartbeat_timeout_s: float = 5.0
    #: Consecutive-crash breaker per worker: after ``threshold`` crashes
    #: the worker stays down until ``reset`` elapses, then one restart
    #: probe is allowed (half-open).
    restart_breaker_threshold: int = 3
    restart_breaker_reset_s: float = 2.0
    start_timeout_s: float = 30.0
    drain_timeout_s: float = 60.0
    #: Failpoint plan armed inside every worker at boot (chaos/tests).
    fault_plan: dict[str, str] = field(default_factory=dict)
    #: Hedged replica requests: when the routed worker has not answered
    #: within the hedge delay, re-issue to the next live replica; first
    #: response wins, the loser is cancelled.
    hedge: bool = True
    #: Fixed hedge delay in seconds; ``None`` adapts online to each
    #: workload's observed p95 reply latency (no hedging until
    #: ``hedge_min_samples`` replies have been seen — cold workloads
    #: include compile time and must not be double-compiled by hedges).
    hedge_delay_s: float | None = None
    hedge_min_delay_s: float = 0.01
    hedge_min_samples: int = 50
    #: Cap on concurrently outstanding hedges as a fraction of open
    #: requests (a brown-out must not double the fleet's load); at least
    #: one hedge is always allowed so light traffic can still hedge.
    hedge_max_fraction: float = 0.1
    #: Per-session compile budget inside workers: retry backoff never
    #: sleeps past it (``retry.deadline_capped`` counts when it bites).
    compile_deadline_s: float | None = None


class _Tracked:
    """Supervisor-side book entry for one *logical* client request.

    A request has one :class:`~repro.serve.batching.Request` the client
    holds and one or two *wire copies* (the routed original plus at most
    one hedge), each outstanding on some worker under its own wire id.
    All completion paths — replies, wire errors, crash drains, deadline
    expiry — converge on :meth:`ClusterSupervisor._finish_copy`, which
    uses ``done_handled`` under ``lock`` as the single exactly-once
    latch: whatever races, the client's Request resolves exactly once.
    """

    __slots__ = ("request", "workload", "tenant", "priority", "deadline",
                 "lock", "copies", "done_handled", "first_error",
                 "hedged", "hedge_req_id", "sent_at")

    def __init__(self, request: Request, workload: str, tenant: str,
                 priority: int, deadline: float | None) -> None:
        self.request = request
        self.workload = workload
        self.tenant = tenant
        self.priority = priority
        #: Absolute monotonic end-to-end deadline (None = unbounded).
        self.deadline = deadline
        self.lock = threading.Lock()
        #: Outstanding wire copies: wire req_id → worker name.
        self.copies: dict[int, str] = {}
        self.done_handled = False
        #: First copy error, held while another copy may still answer.
        self.first_error: Exception | None = None
        self.hedged = False
        self.hedge_req_id: int | None = None
        self.sent_at = time.monotonic()


class _Worker:
    """One worker generation: process, pipe, receiver, in-flight book."""

    def __init__(self, name: str, proc, conn, generation: int,
                 arena: SlotArena | None = None) -> None:
        self.name = name
        self.proc = proc
        self.conn = conn
        self.generation = generation
        #: This worker *name*'s feed/reply arena (shared by successive
        #: generations; None = every request travels in-band).
        self.arena = arena
        self.send_lock = threading.Lock()
        self.inflight: dict[int, _Tracked] = {}
        self.inflight_lock = threading.Lock()
        self.up = True
        self.draining = False
        self.ready = threading.Event()
        self.armed = threading.Event()
        self.drained = threading.Event()
        self.stopped = threading.Event()
        self.last_pong = time.monotonic()
        self.health: dict = {}
        self.final_stats: dict = {}
        self.stats_replies: dict[int, dict] = {}
        self.stats_event = threading.Event()
        self.receiver: threading.Thread | None = None

    def send(self, msg: tuple) -> None:
        with self.send_lock:
            self.conn.send(msg)

    def take_inflight(self, req_id: int) -> _Tracked | None:
        with self.inflight_lock:
            return self.inflight.pop(req_id, None)

    def drain_inflight(self) -> list[tuple[int, _Tracked]]:
        with self.inflight_lock:
            items = list(self.inflight.items())
            self.inflight.clear()
            return items


class ClusterSupervisor:
    """Front door for a sharded multi-worker serving fleet."""

    def __init__(self, workloads: dict[str, DataflowGraph],
                 config: ClusterConfig | None = None,
                 metrics: ServeMetrics | None = None) -> None:
        if not workloads:
            raise ClusterError("cluster needs at least one workload")
        self.config = config or ClusterConfig()
        if self.config.workers < 1:
            raise ClusterError("cluster needs at least one worker")
        self.graphs = dict(workloads)
        self.metrics = metrics or ServeMetrics()
        self._packed = WorkerConfig.pack_workloads(self.graphs)
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self.ring = HashRing(vnodes=self.config.vnodes)
        #: Fixed per workload, so not re-derived per request: the feeds a
        #: graph requires, and its owners as of one ring membership.
        self._required = {name: tuple(g.input_tensors)
                          for name, g in self.graphs.items()}
        self._owners: dict[str, tuple[int, list[str]]] = {}
        self.admission = AdmissionController(self.config.admission)
        self._workers: dict[str, _Worker] = {}
        self._arenas: dict[str, SlotArena] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._restarts: dict[str, int] = {}
        self._worker_stats: dict[str, dict] = {}
        self._req_ids = itertools.count(1)
        self._generations = itertools.count(1)
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._health_thread: threading.Thread | None = None
        self._ping_seq = itertools.count(1)
        self._stats_seq = itertools.count(1)
        # Hedge/deadline timer machinery: one heap of (at, seq, kind,
        # tracked) events drained by a single timer thread.
        self._timer_heap: list[tuple[float, int, str, _Tracked]] = []
        self._timer_cond = threading.Condition()
        self._timer_seq = itertools.count()
        self._timer_thread: threading.Thread | None = None
        self._hedge_lock = threading.Lock()
        self._hedges_out = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _worker_names(self) -> list[str]:
        return [f"w{i}" for i in range(self.config.workers)]

    def _hosted_by(self, worker: str) -> dict[str, dict]:
        """Serialized graphs for every workload ``worker`` must host:
        the ones it owns plus the ones it backs up (replication)."""
        return {name: self._packed[name] for name in self.graphs
                if worker in self.owners_for(name)}

    def owners_for(self, workload: str) -> list[str]:
        memo, version = self._owners.get(workload), self.ring.version
        if memo is None or memo[0] != version:
            r = min(self.config.workers, max(1, self.config.replication))
            memo = self._owners[workload] = (
                version, self.ring.owners(workload, r))
        return list(memo[1])

    def placement(self) -> dict[str, list[str]]:
        """workload → ordered candidate workers (primary first)."""
        return {name: self.owners_for(name) for name in sorted(self.graphs)}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterSupervisor":
        if self._started:
            return self
        self._started = True
        for name in self._worker_names():
            self.ring.add(name)
            self._breakers[name] = CircuitBreaker(
                failure_threshold=self.config.restart_breaker_threshold,
                reset_timeout_s=self.config.restart_breaker_reset_s)
            self._restarts[name] = 0
        for name in self._worker_names():
            self._spawn(name)
        deadline = time.monotonic() + self.config.start_timeout_s
        for w in list(self._workers.values()):
            if not w.ready.wait(max(0.0, deadline - time.monotonic())):
                raise ClusterError(
                    f"worker {w.name} failed to become ready within "
                    f"{self.config.start_timeout_s:.0f}s")
        self._health_thread = threading.Thread(
            target=self._health_loop, name="cluster-health", daemon=True)
        self._health_thread.start()
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name="cluster-timer", daemon=True)
        self._timer_thread.start()
        return self

    def _arena_for(self, name: str) -> SlotArena | None:
        """Worker ``name``'s arena, created before its first fork so the
        child inherits the descriptor; None where that cannot work."""
        if (name not in self._arenas and SlotArena.supported()
                and self._ctx.get_start_method() == "fork"):
            hosted = [self.graphs[wl] for wl in self._hosted_by(name)]
            if hosted:
                self._arenas[name] = SlotArena(slot_bytes_for(hosted))
        return self._arenas.get(name)

    def _spawn(self, name: str) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        arena = self._arena_for(name)
        wconfig = WorkerConfig(
            name=name, workloads=self._hosted_by(name),
            gpu=self.config.gpu, engine=self.config.engine,
            cache_dir=self.config.cache_dir,
            tune_db_dir=self.config.tune_db_dir,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            threads=self.config.threads_per_worker,
            max_queue_depth=self.config.worker_queue_depth,
            fault_plan=dict(self.config.fault_plan),
            compile_deadline_s=self.config.compile_deadline_s)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, wconfig,
                  arena.child_spec() if arena is not None else None),
            name=f"cluster-{name}", daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(name, proc, parent_conn,
                         next(self._generations), arena)
        worker.receiver = threading.Thread(
            target=self._receive_loop, args=(worker,),
            name=f"recv-{name}", daemon=True)
        with self._lock:
            self._workers[name] = worker
        worker.receiver.start()
        return worker

    def stop(self, drain: bool = True) -> None:
        """Shut the fleet down; with ``drain`` every queued request is
        answered first and each worker's final metrics are collected."""
        if self._stopping:
            return
        self._stopping = True
        with self._timer_cond:
            self._timer_cond.notify_all()
        if self._health_thread is not None:
            self._health_thread.join(
                timeout=self.config.health_interval_s * 4 + 1.0)
        if self._timer_thread is not None:
            self._timer_thread.join(timeout=2.0)
        workers = list(self._workers.values())
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            for w in workers:
                if w.up:
                    w.draining = True
                    self._try_send(w, ("drain",))
            for w in workers:
                if w.up:
                    w.drained.wait(max(0.1, deadline - time.monotonic()))
                    if w.final_stats:
                        self._worker_stats[w.name] = w.final_stats
        for w in workers:
            if w.up:
                self._try_send(w, ("stop",))
        for w in workers:
            w.stopped.wait(timeout=5.0)
            if w.final_stats:
                self._worker_stats[w.name] = w.final_stats
            w.proc.join(timeout=5.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=5.0)
            self._reap(w)
            # Anything still in flight after a full drain+stop cycle is
            # dead — never strand the submitter.
            for req_id, tracked in w.drain_inflight():
                self.metrics.inc("requests.worker_crashed")
                self._finish_copy(w, req_id, tracked,
                                  error=WorkerCrashed(
                                      w.name,
                                      "cluster stopped with request "
                                      "in flight"))
            try:
                w.conn.close()
            except OSError:
                pass
        for arena in self._arenas.values():
            arena.close()

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def install_signal_handlers(self) -> Callable[[], None]:
        """Drain the fleet on SIGTERM/SIGINT instead of orphaning
        children: Ctrl-C on a process fronting the fleet answers
        everything queued, collects worker stats, then re-raises
        (``KeyboardInterrupt`` for SIGINT, ``SystemExit(143)`` for
        SIGTERM).  Returns a callable restoring the previous handlers;
        a no-op off the main thread, where signals cannot be installed.
        """
        previous: dict[int, object] = {}

        def _handler(signum, frame):
            obs_event("signal_drain", category="cluster", signum=signum)
            self.stop(drain=True)
            if signum == _signal.SIGINT:
                raise KeyboardInterrupt
            raise SystemExit(143)

        try:
            for sig in (_signal.SIGTERM, _signal.SIGINT):
                previous[sig] = _signal.signal(sig, _handler)
        except ValueError:      # not the main thread
            return lambda: None

        def restore() -> None:
            for sig, old in previous.items():
                try:
                    _signal.signal(sig, old)
                except (ValueError, TypeError):
                    pass

        return restore

    def _try_send(self, worker: _Worker, msg: tuple) -> bool:
        try:
            worker.send(msg)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(self, workload: str, feeds: dict[str, np.ndarray],
               timeout: float | None = None,
               tenant: str = "default",
               priority: int = PRIORITY_NORMAL,
               on_done=None) -> Request:
        """Route one request to its shard; returns a future-like handle.

        ``timeout`` is the request's whole end-to-end budget, anchored
        *here* at ingress: supervisor-side routing, queueing, and wire
        time are deducted before the worker sees the remaining budget,
        and the request is never answered past it.

        Raises :class:`ClusterShed` (a typed
        :class:`~repro.serve.batching.Overloaded`) when admission policy
        or fleet health rejects the request *before* dispatch.
        """
        if self._stopping or not self._started:
            raise ClusterError("cluster is not serving"
                               if not self._started else
                               "cluster is stopping")
        required = self._required.get(workload)
        if required is None:
            raise ClusterError(
                f"unknown workload {workload!r}; registered: "
                f"{sorted(self.graphs)}")
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        self.metrics.inc("requests.submitted")
        validate_feeds(feeds, required=required)
        try:
            _faults.fire(FP_DISPATCH)
        except _faults.FaultInjected:
            self.metrics.inc("faults.dispatch")
        worker = self._route(workload)
        if worker is None:
            self._shed(SHED_WORKER_DOWN, workload)
        reason = self.admission.admit(worker.name, tenant, priority)
        if reason is not None:
            self._shed(reason, workload, worker.name)
        req_id = next(self._req_ids)
        request = Request(workload=workload, feeds=feeds,
                          timeout_s=timeout, on_done=on_done,
                          deadline_s=deadline)
        tracked = _Tracked(request, workload, tenant, priority, deadline)
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # The budget died on the supervisor (routing/queue
                # time): never dispatch a dead deadline.
                self.admission.release(worker.name, tenant)
                self.metrics.inc("deadline.expired_dispatch")
                tracked.done_handled = True
                request.fail(TimeoutError(
                    f"request for {workload!r} spent its whole "
                    f"{timeout:.3g}s budget before dispatch"))
                return request
        with tracked.lock:
            tracked.copies[req_id] = worker.name
        with worker.inflight_lock:
            worker.inflight[req_id] = tracked
        try:
            worker.send(self._request_msg(worker, req_id, workload, feeds,
                                          remaining))
        except (OSError, ValueError, BrokenPipeError):
            # The worker died between routing and send: fail typed, give
            # the slot back, and let the health loop handle the corpse.
            self._release_slot(worker, req_id)    # never delivered
            if worker.take_inflight(req_id) is not None:
                self.metrics.inc("requests.worker_crashed")
                self._finish_copy(worker, req_id, tracked,
                                  error=WorkerCrashed(
                                      worker.name,
                                      "pipe broke at dispatch"))
            return request
        if deadline is not None:
            self._schedule_at(deadline, "deadline", tracked)
        hedge_delay = self._hedge_delay(workload)
        if hedge_delay is not None:
            self._schedule_at(time.monotonic() + hedge_delay,
                              "hedge", tracked)
        return request

    def infer(self, workload: str, feeds: dict[str, np.ndarray],
              timeout: float | None = None, tenant: str = "default",
              priority: int = PRIORITY_NORMAL) -> SessionReply:
        """Synchronous convenience: submit and wait."""
        return self.submit(workload, feeds, timeout=timeout, tenant=tenant,
                           priority=priority).result(timeout=timeout)

    def _request_msg(self, worker: _Worker, req_id: int, workload: str,
                     feeds: dict, remaining: float | None) -> tuple:
        """The wire form of one request copy: the feeds go into a slot
        of the worker's arena and only ``(slot, descriptor, end)``
        crosses the pipe.  The one in-band case — no arena on this
        platform, no free slot, or feeds larger than a slot — sends the
        arrays."""
        placed = (worker.arena.put(req_id, feeds)
                  if worker.arena is not None else None)
        if placed is None:
            self.metrics.inc("wire.inband_requests")
            return ("req", req_id, workload, feeds, remaining)
        ref, nbytes = placed
        self.metrics.inc("wire.arena_requests")
        self.metrics.inc("wire.arena_bytes", nbytes)
        return ("req", req_id, workload, ref, remaining)

    @staticmethod
    def _release_slot(worker: _Worker, req_id: int) -> None:
        if worker.arena is not None:
            worker.arena.release(req_id)

    def _shed(self, reason: str, workload: str,
              worker: str | None = None) -> None:
        self.metrics.inc("requests.shed")
        self.metrics.inc(f"shed.{reason}")
        obs_event("cluster_shed", category="cluster", workload=workload,
                  reason=reason)
        raise ClusterShed(reason, worker)

    def _route(self, workload: str) -> _Worker | None:
        """Primary owner, else the first live replica in owner order."""
        with self._lock:
            for name in self.owners_for(workload):
                w = self._workers.get(name)
                if w is not None and w.up and not w.draining:
                    return w
        return None

    # ------------------------------------------------------------------
    # Completion (exactly-once) and hedging
    # ------------------------------------------------------------------

    def _finish_copy(self, worker: _Worker, req_id: int,
                     tracked: _Tracked, payload: dict | None = None,
                     error: Exception | None = None) -> None:
        """One wire copy finished (reply, wire error, or crash drain).

        Every copy passes through here exactly once — ``take_inflight``
        /``drain_inflight`` pop atomically — so the admission slot it
        held is released exactly once, and the ``done_handled`` latch
        resolves the client's Request exactly once no matter how the
        copies race.
        """
        self.admission.release(worker.name, tracked.tenant)
        now = time.monotonic()
        outcome = None
        with tracked.lock:
            tracked.copies.pop(req_id, None)
            copies_left = len(tracked.copies)
            was_done = tracked.done_handled
            is_hedge_copy = (req_id == tracked.hedge_req_id)
            was_hedged = tracked.hedged
            late = (tracked.deadline is not None
                    and now > tracked.deadline)
            if not was_done:
                if payload is not None:
                    tracked.done_handled = True
                    outcome = "late" if late else "resolve"
                elif error is not None:
                    if copies_left:
                        # Another copy may still answer: hold the error.
                        tracked.first_error = error
                    else:
                        tracked.done_handled = True
                        outcome = "fail"
        if is_hedge_copy:
            with self._hedge_lock:
                self._hedges_out -= 1
        if outcome == "resolve":
            self.metrics.observe_request(payload["latency_s"],
                                         workload=tracked.workload)
            if payload["degraded"]:
                self.metrics.record_fallback(payload["reason"]
                                             or "unknown")
            if is_hedge_copy:
                self.metrics.inc("hedge.won")
                obs_event("hedge_won", category="cluster",
                          workload=tracked.workload, worker=worker.name)
            tracked.request.resolve(SessionReply(**payload))
            self._cancel_copies(tracked)
        elif outcome == "late":
            # The answer exists but the budget is spent: a strict
            # deadline is never answered late, at any boundary.
            self.metrics.inc("deadline.expired_reply")
            tracked.request.fail(TimeoutError(
                f"request for {tracked.workload!r} answered past its "
                "end-to-end deadline; result withheld"))
            self._cancel_copies(tracked)
        elif outcome == "fail":
            tracked.request.fail(error)
        elif was_done and was_hedged:
            # The losing copy of a settled hedge pair came back.
            self.metrics.inc("hedge.wasted")

    def _cancel_copies(self, tracked: _Tracked) -> None:
        """Best-effort cancel of every still-outstanding wire copy."""
        with tracked.lock:
            copies = dict(tracked.copies)
        for rid, wname in copies.items():
            with self._lock:
                w = self._workers.get(wname)
            if w is not None and w.up:
                self._try_send(w, ("cancel", rid))

    def _hedge_delay(self, workload: str) -> float | None:
        """Seconds to wait before hedging, or None = don't hedge."""
        cfg = self.config
        if not cfg.hedge or cfg.workers < 2 or cfg.replication < 2:
            return None
        if cfg.hedge_delay_s is not None:
            return max(cfg.hedge_delay_s, cfg.hedge_min_delay_s)
        p95 = self.metrics.workload_latency_quantile(
            workload, 0.95, min_samples=cfg.hedge_min_samples)
        if p95 is None:
            return None
        return max(p95, cfg.hedge_min_delay_s)

    def _schedule_at(self, at: float, kind: str,
                     tracked: _Tracked) -> None:
        with self._timer_cond:
            heapq.heappush(self._timer_heap,
                           (at, next(self._timer_seq), kind, tracked))
            self._timer_cond.notify_all()

    def _timer_loop(self) -> None:
        while not self._stopping:
            with self._timer_cond:
                if not self._timer_heap:
                    self._timer_cond.wait(0.5)
                    continue
                at = self._timer_heap[0][0]
                delay = at - time.monotonic()
                if delay > 0:
                    self._timer_cond.wait(min(delay, 0.5))
                    continue
                _, _, kind, tracked = heapq.heappop(self._timer_heap)
            if kind == "deadline":
                self._expire_tracked(tracked)
            else:
                self._maybe_hedge(tracked)

    def _expire_tracked(self, tracked: _Tracked) -> None:
        """Deadline fired supervisor-side: fail now, cancel the copies."""
        with tracked.lock:
            if tracked.done_handled:
                return
            tracked.done_handled = True
        self.metrics.inc("deadline.expired_supervisor")
        obs_event("deadline_expired", category="cluster",
                  workload=tracked.workload)
        tracked.request.fail(TimeoutError(
            f"request for {tracked.workload!r} exceeded its "
            "end-to-end budget"))
        self._cancel_copies(tracked)

    def _maybe_hedge(self, tracked: _Tracked) -> None:
        """Hedge timer fired: re-issue to the next replica if warranted."""
        with tracked.lock:
            if (tracked.done_handled or tracked.hedged
                    or len(tracked.copies) != 1):
                return
            routed = next(iter(tracked.copies.values()))
        if (tracked.deadline is not None
                and time.monotonic() >= tracked.deadline):
            return
        # Next live replica in owner order that isn't the routed worker.
        target = None
        with self._lock:
            for name in self.owners_for(tracked.workload):
                w = self._workers.get(name)
                if (name != routed and w is not None and w.up
                        and not w.draining):
                    target = w
                    break
        if target is None:
            return
        # Budget cap: outstanding hedges never exceed the configured
        # fraction of open requests (but one is always allowed, or
        # light traffic could never hedge at all).
        open_total = max(1, self.admission.outstanding_total())
        cap = max(1, math.floor(
            self.config.hedge_max_fraction * open_total))
        with self._hedge_lock:
            if self._hedges_out >= cap:
                self.metrics.inc("hedge.suppressed")
                return
            self._hedges_out += 1
            peak = max(self.metrics.get_gauge("hedge.peak_outstanding"),
                       self._hedges_out)
        self.metrics.set_gauge("hedge.peak_outstanding", peak)
        self.metrics.set_gauge(
            "hedge.peak_open_requests",
            max(self.metrics.get_gauge("hedge.peak_open_requests"),
                open_total))
        reason = self.admission.admit(target.name, tracked.tenant,
                                      tracked.priority)
        if reason is not None:
            with self._hedge_lock:
                self._hedges_out -= 1
            self.metrics.inc("hedge.suppressed")
            return
        hedge_id = next(self._req_ids)
        with tracked.lock:
            if tracked.done_handled:        # settled while we admitted
                self.admission.release(target.name, tracked.tenant)
                with self._hedge_lock:
                    self._hedges_out -= 1
                return
            tracked.hedged = True
            tracked.hedge_req_id = hedge_id
            tracked.copies[hedge_id] = target.name
        with target.inflight_lock:
            target.inflight[hedge_id] = tracked
        remaining = (tracked.deadline - time.monotonic()
                     if tracked.deadline is not None else None)
        # Counted before the send: the hedge's answer can resolve the
        # client before this thread runs again.
        self.metrics.inc("hedge.issued")
        try:
            target.send(self._request_msg(target, hedge_id, tracked.workload,
                                          tracked.request.feeds, remaining))
        except (OSError, ValueError, BrokenPipeError):
            self.metrics.inc("hedge.issued", -1)
            self._release_slot(target, hedge_id)
            if target.take_inflight(hedge_id) is not None:
                self.admission.release(target.name, tracked.tenant)
                with tracked.lock:
                    tracked.copies.pop(hedge_id, None)
                    tracked.hedge_req_id = None
                    tracked.hedged = False
                with self._hedge_lock:
                    self._hedges_out -= 1
            return
        obs_event("hedge_issued", category="cluster",
                  workload=tracked.workload, original=routed,
                  hedge=target.name)

    # ------------------------------------------------------------------
    # Receive / health / crash handling
    # ------------------------------------------------------------------

    def _receive_loop(self, worker: _Worker) -> None:
        while True:
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            except (TypeError, ValueError):
                # conn.close() raced the blocking recv (crash handling
                # closes the pipe from another thread): same as EOF.
                break
            kind = msg[0]
            if kind == "reply":
                tracked = worker.take_inflight(msg[1])
                # None: already failed (crash race); count dupes
                if tracked is not None:
                    payload = msg[2]
                    if len(msg) > 3 and not tracked.done_handled:
                        # Outputs are in the slot; a settled request's
                        # losing copy is not worth reading.
                        outputs = worker.arena.read(msg[1], msg[3])
                        payload["outputs"] = outputs
                        self.metrics.inc(
                            "wire.arena_bytes",
                            sum(a.nbytes for a in outputs.values()))
                    self._finish_copy(worker, msg[1], tracked,
                                      payload=payload)
                self._release_slot(worker, msg[1])   # terminal message
            elif kind == "error":
                tracked = worker.take_inflight(msg[1])
                if tracked is not None:
                    self.metrics.inc("requests.remote_errors")
                    self._finish_copy(worker, msg[1], tracked,
                                      error=_rebuild_error(msg[2], msg[3],
                                                           worker.name))
                self._release_slot(worker, msg[1])   # terminal message
            elif kind == "pong":
                worker.last_pong = time.monotonic()
                worker.health = msg[2]
            elif kind == "ready":
                worker.ready.set()
            elif kind == "armed":
                worker.armed.set()
            elif kind == "stats_reply":
                worker.stats_replies[msg[1]] = msg[2]
                worker.stats_event.set()
            elif kind == "drained":
                worker.final_stats = msg[1]
                worker.drained.set()
            elif kind == "stopped":
                worker.final_stats = msg[1]
                worker.stopped.set()
        # Pipe gone.  During shutdown that is expected; otherwise the
        # worker crashed and the receiver is the first to know.
        if not self._stopping and worker.proc is not None:
            self._handle_crash(worker)

    def _handle_crash(self, worker: _Worker) -> None:
        """Fail the dead worker's in-flight, then breaker-gate a restart."""
        with self._lock:
            current = self._workers.get(worker.name)
            if current is not worker or not worker.up:
                return  # an older generation, or already handled
            worker.up = False
        self.metrics.inc("workers.crashed")
        obs_event("worker_crash", category="cluster", worker=worker.name,
                  generation=worker.generation)
        for req_id, tracked in worker.drain_inflight():
            self.metrics.inc("requests.worker_crashed")
            # Through the same exactly-once funnel as replies: a request
            # that already resolved (hedge won, reply raced the crash)
            # is not failed again, and a hedged request with a live copy
            # elsewhere survives the crash entirely.
            self._finish_copy(worker, req_id, tracked,
                              error=WorkerCrashed(
                                  worker.name, "process died mid-flight"))
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        self._reap(worker)
        breaker = self._breakers[worker.name]
        breaker.record_failure()
        if self._stopping:
            return
        if breaker.allow():
            self._restart(worker.name)
        else:
            obs_event("worker_restart_suppressed", category="cluster",
                      worker=worker.name, breaker=breaker.state)

    def _reap(self, worker: _Worker) -> None:
        """Make sure the process is gone, then — and only then — take
        back the arena slots it could still have been reading: a worker
        that ignored SIGTERM (draining, wedged) is killed first."""
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        receiver = worker.receiver
        if receiver is not None and receiver is not threading.current_thread():
            # EOF follows the exit: let the receiver finish the replies
            # already in the pipe, so none is mid-read when slots return.
            receiver.join(timeout=2.0)
        if worker.arena is not None and not worker.proc.is_alive():
            worker.arena.release_all()

    def _restart(self, name: str) -> None:
        self.metrics.inc("workers.restarts")
        self._restarts[name] += 1
        obs_event("worker_restart", category="cluster", worker=name,
                  restarts=self._restarts[name])
        fresh = self._spawn(name)
        if fresh.ready.wait(self.config.start_timeout_s):
            # A full ready cycle is the restart breaker's "success": a
            # crash-looping worker keeps the failure streak instead.
            self._breakers[name].record_success()
        else:
            self._handle_crash(fresh)

    def _health_loop(self) -> None:
        interval = self.config.health_interval_s
        while not self._stopping:
            time.sleep(interval)
            with self._lock:
                workers = list(self._workers.values())
            for w in workers:
                if self._stopping:
                    return
                if w.up:
                    if not w.proc.is_alive():
                        self._handle_crash(w)
                        continue
                    if not self._try_send(w, ("ping", next(self._ping_seq))):
                        self._handle_crash(w)
                        continue
                    if (time.monotonic() - w.last_pong
                            > self.config.heartbeat_timeout_s):
                        # Hung, not dead: a worker that cannot answer a
                        # ping cannot answer requests either.
                        self.metrics.inc("workers.hung")
                        obs_event("worker_hung", category="cluster",
                                  worker=w.name)
                        w.proc.terminate()
                        self._handle_crash(w)
                else:
                    # Down with the restart breaker open: probe once the
                    # reset timeout elapses (half-open semantics).
                    breaker = self._breakers[w.name]
                    if breaker.allow():
                        self._restart(w.name)

    # ------------------------------------------------------------------
    # Test / chaos hooks
    # ------------------------------------------------------------------

    def kill_worker(self, name: str, code: int = 1) -> None:
        """Hard-kill one worker (crash testing); the health/receiver
        machinery must detect it and recover."""
        with self._lock:
            w = self._workers.get(name)
        if w is None:
            raise ClusterError(f"unknown worker {name!r}")
        if not self._try_send(w, ("kill", code)) and w.proc.is_alive():
            w.proc.terminate()

    def arm_faults(self, name: str, plan: dict[str, str],
                   timeout: float = 5.0) -> bool:
        with self._lock:
            w = self._workers.get(name)
        if w is None:
            raise ClusterError(f"unknown worker {name!r}")
        w.armed.clear()
        if not self._try_send(w, ("arm", dict(plan))):
            return False
        return w.armed.wait(timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def worker_names(self) -> list[str]:
        return self._worker_names()

    def restarts(self) -> dict[str, int]:
        return dict(self._restarts)

    def request_stats(self, name: str, timeout: float = 5.0) -> dict | None:
        """Live metrics snapshot from one worker (None on timeout)."""
        with self._lock:
            w = self._workers.get(name)
        if w is None or not w.up:
            return self._worker_stats.get(name)
        seq = next(self._stats_seq)
        w.stats_event.clear()
        if not self._try_send(w, ("stats", seq)):
            return None
        deadline = time.monotonic() + timeout
        while seq not in w.stats_replies:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not w.stats_event.wait(remaining):
                return None
            w.stats_event.clear()
        return w.stats_replies.pop(seq)

    def worker_stats(self) -> dict[str, dict]:
        """Final per-worker metrics snapshots (populated by drain/stop;
        live workers are polled on demand)."""
        out = dict(self._worker_stats)
        if not self._stopping:
            for name in self._worker_names():
                snap = self.request_stats(name)
                if snap is not None:
                    out[name] = snap
        return out

    #: Counter families aggregated fleet-wide in :meth:`aggregate`.
    _AGG_PREFIXES = ("cache.", "breaker.", "fallbacks", "requests",
                     "plans.", "faults.", "workers.", "lower.",
                     "compile_failures", "batches_dispatched",
                     "request_errors", "deadline.", "hedge.", "retry.",
                     "tunedb.")

    def aggregate(self) -> dict:
        """Cluster-wide report: supervisor counters plus the sum of every
        worker's serving counters (cache tiers, breaker trips, fallbacks)."""
        totals: dict[str, float] = {}
        per_worker = self.worker_stats()
        for snap in per_worker.values():
            for key, value in snap.items():
                if (isinstance(value, (int, float))
                        and key.startswith(self._AGG_PREFIXES)):
                    totals[key] = totals.get(key, 0) + value
        return {
            "supervisor": self.metrics.snapshot(),
            "workers": per_worker,
            "worker_totals": totals,
            "restarts": self.restarts(),
            "placement": self.placement(),
        }

    def health(self) -> dict:
        """Fleet health: ``healthy`` (all up) / ``degraded`` (some
        workers down) / ``unhealthy`` (stopped or nothing up)."""
        with self._lock:
            states = {
                name: {
                    "up": w.up,
                    "draining": w.draining,
                    "generation": w.generation,
                    "restarts": self._restarts.get(name, 0),
                    "breaker": self._breakers[name].state,
                    "last_health": dict(w.health),
                }
                for name, w in self._workers.items()
            }
        up = sum(1 for s in states.values() if s["up"])
        if self._stopping or up == 0:
            status = "unhealthy"
        elif up < len(states):
            status = "degraded"
        else:
            status = "healthy"
        return {"status": status, "workers": states,
                "shed": self.metrics.get("requests.shed"),
                "crashes": self.metrics.get("workers.crashed")}
