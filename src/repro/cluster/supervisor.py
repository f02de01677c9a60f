"""ClusterSupervisor: sharded multi-process serving with self-healing.

The supervisor scales :class:`~repro.serve.server.FusionServer` past one
process: it forks ``N`` worker processes (each hosting inference
sessions behind its own in-process server, see
:mod:`repro.cluster.worker`), places workloads on them with a
consistent-hash ring fixed at construction, admits requests under a
per-worker and per-tenant cap *before* they cross the process boundary
(both counted by the book), health-checks the fleet
with heartbeats, and restarts crashed workers behind a per-worker
circuit breaker — on one thread, :meth:`ClusterSupervisor._loop`.

Delivery guarantees:

* every accepted (admitted) request is answered **exactly once** — with
  outputs, a typed rejection, or :class:`~repro.serve.batching.WorkerCrashed`
  when its worker died mid-flight; nothing ever hangs a submitter past
  its timeout.  Those decisions are all made in
  :class:`~repro.cluster.book.RequestBook`; this module routes, writes
  the arena, sends, and carries out the book's verdicts;
* a key is **compiled once fleet-wide**: workers share one disk schedule
  cache directory, and the per-key advisory file lock in
  :class:`~repro.serve.cache.TieredScheduleCache` extends single-flight
  across processes;
* ``stop(drain=True)`` is a **graceful drain**: workers stop accepting,
  finish their queues, and report their final metrics, which the
  supervisor aggregates into the cluster report.

The degradation ladder under overload is described once, in
``docs/resilience.md``.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import select
import selectors
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..ir.graph import DataflowGraph
from ..obs import event as obs_event
from ..resilience import faults as _faults
from ..resilience.retry import CircuitBreaker
from ..serve import (
    InvalidRequestError,
    Overloaded,
    Request,
    ServeMetrics,
    SessionReply,
    WorkerCrashed,
    validate_feeds,
)
from .arena import SlotArena, slot_bytes_for
from .book import (
    EXPIRE,
    RESOLVE,
    SHED_WORKER_DOWN,
    AdmissionPolicy,
    RequestBook,
    Verdict,
)
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
    (``capacity`` / ``tenant`` / ``worker_down``, or ``worker_queue`` from
    the worker's own queue)."""

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
    #: fallbacks for routing around a down or far-behind worker).
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
    #: Per-session compile budget inside workers: retry backoff never
    #: sleeps past it (``retry.deadline_capped`` counts when it bites).
    compile_deadline_s: float | None = None


class _Worker:
    """One worker generation: process and pipe."""

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
        self.up = True
        self.draining = False
        self.ready = threading.Event()
        self.armed = threading.Event()
        #: When the loop last read *any* message from this worker.
        self.last_heard = time.monotonic()
        self.health: dict = {}
        self.stats_replies: dict[int, dict] = {}
        self.stats_ready = threading.Condition()


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
        #: Fixed per workload, so not re-derived per request: the feeds a
        #: graph requires, and its owners (primary first) on the one ring
        #: over the fleet's worker names.
        self._required = {name: tuple(g.input_tensors)
                          for name, g in self.graphs.items()}
        ring = HashRing(self.worker_names(), self.config.vnodes)
        replicas = min(self.config.workers, max(1, self.config.replication))
        self._owners = {name: tuple(ring.owners(name, replicas))
                        for name in self.graphs}
        self._workers: dict[str, _Worker] = {}
        self._arenas: dict[str, SlotArena] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._restarts: dict[str, int] = {}
        self._worker_stats: dict[str, dict] = {}
        self.book = RequestBook(self.config.admission)
        self._generations = itertools.count(1)
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._seq = itertools.count(1)      # ping and stats messages
        #: Made by start(): the loop, its selector (every live worker pipe
        #: and the read end of ``_wake_r, _wake_w``, a pipe that takes a
        #: byte when a submit moves the earliest deadline).
        self._loop_thread: threading.Thread | None = None
        self._selector: selectors.BaseSelector | None = None
        #: Next health tick; never until start() has seen the fleet ready.
        self._health_due = math.inf
        self._closing = False   # stop(): read what is left, then exit

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def worker_names(self) -> list[str]:
        return [f"w{i}" for i in range(self.config.workers)]

    def _hosted_by(self, worker: str) -> dict[str, dict]:
        """Serialized graphs for every workload ``worker`` must host:
        the ones it owns plus the ones it backs up (replication)."""
        return {name: self._packed[name] for name in self.graphs
                if worker in self.owners_for(name)}

    def owners_for(self, workload: str) -> list[str]:
        return list(self._owners[workload])

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
        for name in self.worker_names():
            self._breakers[name] = CircuitBreaker(
                failure_threshold=self.config.restart_breaker_threshold,
                reset_timeout_s=self.config.restart_breaker_reset_s)
            self._restarts[name] = 0
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        for name in self.worker_names():
            self._spawn(name)
        # Invariant 3: the loop reads each fork's ``ready``; its health
        # tick waits for the whole fleet, not racing the teardown below.
        self._loop_thread = threading.Thread(
            target=self._loop, name="cluster-loop", daemon=True)
        self._loop_thread.start()
        deadline = time.monotonic() + self.config.start_timeout_s
        for w in list(self._workers.values()):
            if not w.ready.wait(max(0.0, deadline - time.monotonic())):
                # __enter__ raising means __exit__ never runs: take the
                # children, the loop, pipes and memfds down first.
                self.stop(drain=False)
                raise ClusterError(
                    f"worker {w.name} failed to become ready within "
                    f"{self.config.start_timeout_s:.0f}s")
        self._health_due = time.monotonic() + self.config.health_interval_s
        os.write(self._wake_w, b"\0")
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
        # By start() before the loop runs, then by the loop: one user.
        self._selector.register(parent_conn, selectors.EVENT_READ, worker)
        with self._lock:
            self._workers[name] = worker
        return worker

    def stop(self, drain: bool = True) -> None:
        """Shut the fleet down; with ``drain`` every queued request is
        answered first and each worker's final metrics are collected."""
        if self._stopping or self._loop_thread is None:
            return      # stopped already, or never started
        self._stopping = True
        workers = list(self._workers.values())
        for w in workers:
            if w.up:
                if drain:       # a worker reads "stop" once it has drained
                    w.draining = True
                    self._try_send(w, ("drain",))
                self._try_send(w, ("stop",))
        end = time.monotonic() + 10.0 + (
            self.config.drain_timeout_s if drain else 0.0)
        for w in workers:
            w.proc.join(timeout=max(0.0, end - time.monotonic()))
        # Invariant 2: the loop reads what is left in the pipes and exits
        # before anything is reaped, so no reply is mid-read when slots
        # return; and once it is joined, ``_workers`` is final.
        self._closing = True
        os.write(self._wake_w, b"\0")
        self._loop_thread.join()
        for w in list(self._workers.values()):
            self._reap(w)
            # Anything still in flight after a full drain+stop cycle is
            # dead — never strand the submitter.
            self._fail_inflight(w, "cluster stopped with request in flight")
        self._selector.close()
        os.close(self._wake_r)
        os.close(self._wake_w)
        for arena in self._arenas.values():
            arena.close()

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _try_send(self, worker: _Worker, msg: tuple) -> bool:
        try:
            with worker.send_lock:
                worker.conn.send(msg)
            return True
        except (OSError, ValueError):
            return False

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(self, workload: str, feeds: dict[str, np.ndarray],
               timeout: float | None = None,
               tenant: str = "default",
               on_done=None) -> Request:
        """Route one request to its shard; returns a future-like handle.

        ``timeout`` is the request's whole end-to-end budget, anchored
        *here* at ingress as one absolute deadline that the worker
        checks too: supervisor-side routing, queueing, and wire time
        all spend it, and the request is never answered past it.

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
        request = Request(workload=workload, feeds=feeds,
                          timeout_s=timeout, on_done=on_done,
                          deadline_s=deadline)
        issued = self.book.issue(
            self.book.open(request, workload, tenant, deadline),
            worker.name)
        if issued.shed is not None:
            self._shed(issued.shed, workload, worker.name)
        if issued.wire_id is None:      # the budget died before dispatch
            self._carry_out(issued)
            return request
        if issued.head_moved:
            os.write(self._wake_w, b"\0")
        if not self._try_send(worker, self._request_msg(
                worker, issued.wire_id, workload, feeds, deadline)):
            # The worker died between routing and send: the slot was
            # never delivered; the loop handles the corpse.
            if worker.arena is not None:
                worker.arena.release(issued.wire_id)
            verdict = self.book.retract(issued.wire_id)
            if verdict is not None:
                self._carry_out(verdict, error=WorkerCrashed(
                    worker.name, "pipe broke at dispatch"))
        return request

    def infer(self, workload: str, feeds: dict[str, np.ndarray],
              timeout: float | None = None,
              tenant: str = "default") -> SessionReply:
        """Synchronous convenience: submit and wait."""
        return self.submit(workload, feeds, timeout=timeout,
                           tenant=tenant).result(timeout=timeout)

    def _request_msg(self, worker: _Worker, req_id: int, workload: str,
                     feeds: dict, deadline: float | None) -> tuple:
        """The wire form of one request copy: the feeds go into a slot
        of the worker's arena and only ``(slot, descriptor, end)``
        crosses the pipe.  The one in-band case — no arena on this
        platform, no free slot, or feeds larger than a slot — sends the
        arrays.  ``deadline`` is absolute on this host's monotonic
        clock, which every worker process shares."""
        placed = (worker.arena.put(req_id, feeds)
                  if worker.arena is not None else None)
        if placed is None:
            self.metrics.inc("wire.inband_requests")
            return ("req", req_id, workload, feeds, deadline)
        ref, nbytes = placed
        self.metrics.inc("wire.arena_requests")
        self.metrics.inc("wire.arena_bytes", nbytes)
        return ("req", req_id, workload, ref, deadline)

    def _shed(self, reason: str, workload: str,
              worker: str | None = None) -> None:
        self.metrics.inc("requests.shed")
        self.metrics.inc(f"shed.{reason}")
        obs_event("cluster_shed", category="cluster", workload=workload,
                  reason=reason)
        raise ClusterShed(reason, worker)

    def _route(self, workload: str) -> _Worker | None:
        """The live owner the book picks: the primary unless it is far
        behind a replica (:meth:`RequestBook.route`, ``routing.spilled``
        when it is)."""
        with self._lock:
            live = [w for name in self._owners[workload]
                    if (w := self._workers.get(name)) is not None
                    and w.up and not w.draining]
        if not live:
            return None
        chosen = self.book.route([w.name for w in live])
        if chosen == live[0].name:
            return live[0]
        self.metrics.inc("routing.spilled")
        return next(w for w in live if w.name == chosen)

    # ------------------------------------------------------------------
    # Carrying out the book's verdicts
    # ------------------------------------------------------------------

    def _carry_out(self, verdict: Verdict, payload: dict | None = None,
                   error: Exception | None = None) -> None:
        """Do what the book decided: ``payload`` is the reply a RESOLVE
        publishes, ``error`` what a FAIL does (deadline verdicts bring
        their own)."""
        for name, by in verdict.counters:
            self.metrics.inc(name, by)
        request = verdict.request
        if verdict.action == RESOLVE:
            # Ingress to reply, as the supervisor sees it.
            self.metrics.observe_request(
                time.monotonic() - request.enqueued_at,
                workload=request.workload)
            if payload["degraded"]:
                self.metrics.record_fallback(payload["reason"]
                                             or "unknown")
            request.resolve(SessionReply(**payload))
        elif verdict.action is not None:
            if verdict.action == EXPIRE:
                obs_event("deadline_expired", category="cluster",
                          workload=request.workload)
            request.fail(verdict.error or error)

    def _fail_inflight(self, worker: _Worker, why: str) -> None:
        """``worker`` is gone: fail what the book says was out on it."""
        for _, verdict in self.book.drain(worker.name):
            self.metrics.inc("requests.worker_crashed")
            self._carry_out(verdict, error=WorkerCrashed(worker.name, why))

    # ------------------------------------------------------------------
    # The loop: receive / expire / health / crash handling
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        """The supervisor's one thread.  Each pass reads a message from
        every ready pipe, carries out the expiries that have come (each
        pass: a reply stream cannot starve them) and the health tick when
        due.  Only it handles crashes: one reap, at most one restart."""
        timeout, due_at = None, math.inf
        while True:
            closing = self._closing
            events = self._selector.select(0 if closing else timeout)
            if closing and not events:
                return
            try:
                for key, _ in events:
                    if key.data is None:    # the earliest deadline moved
                        os.read(self._wake_r, 65536)
                        due_at = 0.0
                    else:
                        self._receive(key.data)
                now = time.monotonic()
                tick = now >= self._health_due
                if tick or now >= due_at:
                    # A tick pops settled heads too, so the deadline of a
                    # request that is not the earliest wakes nobody.
                    due, delay = self.book.pop_due()
                    for entry in due:
                        self._carry_out(self.book.expire(entry))
                    due_at = math.inf if delay is None else now + delay
                if tick:
                    self._health_due = now + self.config.health_interval_s
                    if not self._stopping:
                        self._health_tick()
            except Exception as exc:  # noqa: BLE001 — the one thread lives on
                self.metrics.inc("loop.errors")
                obs_event("cluster_loop_error", category="cluster",
                          error=f"{type(exc).__name__}: {exc}")
            wake = min(due_at, self._health_due)
            timeout = None if wake == math.inf else wake - time.monotonic()

    def _receive(self, worker: _Worker) -> None:
        """One message from ``worker``, or its EOF."""
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            # Pipe gone: expected at shutdown, else the worker crashed.
            if self._stopping:
                self._reap(worker)
            else:
                self._handle_crash(worker)
            return
        # Any message is proof of life: a worker's pipe thread answers a
        # ping only after the warm executions ahead of it, but their
        # replies keep arriving meanwhile.
        worker.last_heard = time.monotonic()
        kind = msg[0]
        if kind == "reply" or kind == "error":
            wire_id = msg[1]
            verdict = self.book.settle(
                wire_id, failed=kind == "error",
                execute_s=None if kind == "error" else msg[2]["latency_s"])
            if verdict is None:
                pass        # a crash drain already took the id
            elif kind == "error":
                self.metrics.inc("requests.remote_errors")
                self._carry_out(verdict, error=_rebuild_error(
                    msg[2], msg[3], worker.name))
            else:
                payload = msg[2]
                if len(msg) > 3 and verdict.action == RESOLVE:
                    # Outputs are in the slot; read them only to publish.
                    payload["outputs"] = worker.arena.read(wire_id, msg[3])
                    self.metrics.inc("wire.arena_bytes", sum(
                        a.nbytes for a in payload["outputs"].values()))
                self._carry_out(verdict, payload=payload)
            if worker.arena is not None:        # terminal message
                worker.arena.release(wire_id)
        elif kind == "pong":
            worker.health = msg[2]
        elif kind == "ready":
            # A full ready cycle is the restart breaker's "success": a
            # crash-looping worker keeps the failure streak instead.
            self._breakers[worker.name].record_success()
            worker.ready.set()
        elif kind == "armed":
            worker.armed.set()
        elif kind == "stats_reply":
            with worker.stats_ready:
                worker.stats_replies[msg[1]] = msg[2]
                worker.stats_ready.notify_all()
        elif kind == "drained" or kind == "stopped":
            self._worker_stats[worker.name] = msg[1]

    def _handle_crash(self, worker: _Worker) -> None:
        """Fail the dead worker's in-flight, then breaker-gate a restart."""
        with self._lock:
            worker.up = False
        self.metrics.inc("workers.crashed")
        obs_event("worker_crash", category="cluster", worker=worker.name,
                  generation=worker.generation)
        self._fail_inflight(worker, "process died mid-flight")
        self._reap(worker)
        breaker = self._breakers[worker.name]
        breaker.record_failure()
        if breaker.allow():
            self._restart(worker.name)
        else:
            obs_event("worker_restart_suppressed", category="cluster",
                      worker=worker.name, breaker=breaker.state)

    def _reap(self, worker: _Worker) -> None:
        """Join the process (its pipe closed, it was killed or told to
        stop), SIGKILLing one still there after 5 s; drop its pipe; only
        once the process is gone take back the slots it could still be
        reading.  The loop is the caller or joined: none is mid-read."""
        if worker.conn.closed:
            return      # reaped already
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        self._selector.unregister(worker.conn)
        worker.conn.close()
        if worker.arena is not None and not worker.proc.is_alive():
            worker.arena.release_all()

    def _restart(self, name: str) -> None:
        """Fork a fresh generation and return: its ``ready`` closes the
        breaker, and the health tick reaps one that is not ready within
        ``start_timeout_s`` — nothing waits for it."""
        self.metrics.inc("workers.restarts")
        self._restarts[name] += 1
        obs_event("worker_restart", category="cluster", worker=name,
                  restarts=self._restarts[name])
        try:
            self._spawn(name)
        except Exception:   # still down: the health tick retries it
            self._breakers[name].record_failure()
            raise

    def _health_tick(self) -> None:
        # Only the loop changes ``_workers`` once started: no lock.
        for w in list(self._workers.values()):
            if w.up:
                silent = time.monotonic() - w.last_heard
                if not w.proc.is_alive() or not self._ping(w):
                    self._handle_crash(w)
                elif not w.ready.is_set():
                    # Forked but never ready: ``ready`` is the first
                    # message a worker sends.
                    if silent > self.config.start_timeout_s:
                        w.proc.kill()   # SIGTERM's grace would hold the loop
                        self._handle_crash(w)
                elif silent > self.config.heartbeat_timeout_s:
                    # Hung, not dead: nothing at all from it for the
                    # whole timeout — no pong, no reply.
                    self.metrics.inc("workers.hung")
                    obs_event("worker_hung", category="cluster",
                              worker=w.name)
                    w.proc.kill()
                    self._handle_crash(w)
            elif self._breakers[w.name].allow():
                # Down with its restart breaker open: probe once the
                # reset timeout elapses (half-open semantics).
                self._restart(w.name)

    def _ping(self, worker: _Worker) -> bool:
        """Ping ``worker`` unless that could block; False: pipe broken.

        Invariant 1 — the loop never blocks on a worker: stuck sending
        into a full socket buffer, it would never read the in-band reply
        the worker's pipe thread is stuck sending.  So a ping needs the
        send lock free and the socket writable (on Linux: a quarter of
        its buffer queued at most, so a ping fits).  A hung worker is
        reaped anyway: that reads ``last_heard``, not ping success."""
        if worker.send_lock.acquire(blocking=False):
            try:
                if select.select((), (worker.conn,), (), 0)[1]:
                    worker.conn.send(("ping", next(self._seq)))
            except (OSError, ValueError):
                return False
            finally:
                worker.send_lock.release()
        return True

    # ------------------------------------------------------------------
    # Test / chaos hooks
    # ------------------------------------------------------------------

    def _worker(self, name: str) -> _Worker:
        with self._lock:
            w = self._workers.get(name)
        if w is None:
            raise ClusterError(f"unknown worker {name!r}")
        return w

    def kill_worker(self, name: str) -> None:
        """SIGKILL one worker (crash tests) at once, not behind the
        execution its pipe thread is busy with; the loop recovers."""
        self._worker(name).proc.kill()

    def arm_faults(self, name: str, plan: dict[str, str],
                   timeout: float = 5.0) -> bool:
        w = self._worker(name)
        w.armed.clear()
        if not self._try_send(w, ("arm", dict(plan))):
            return False
        return w.armed.wait(timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def restarts(self) -> dict[str, int]:
        return dict(self._restarts)

    def request_stats(self, name: str, timeout: float = 5.0) -> dict | None:
        """Live metrics snapshot from one worker (None on timeout)."""
        with self._lock:
            w = self._workers.get(name)
        if w is None or not w.up:
            return self._worker_stats.get(name)
        seq = next(self._seq)
        if not self._try_send(w, ("stats", seq)):
            return None
        with w.stats_ready:
            if w.stats_ready.wait_for(lambda: seq in w.stats_replies,
                                      timeout):
                return w.stats_replies.pop(seq)
        return None

    def worker_stats(self) -> dict[str, dict]:
        """Final per-worker metrics snapshots (populated by drain/stop;
        live workers are polled on demand)."""
        out = dict(self._worker_stats)
        if not self._stopping:
            for name in self.worker_names():
                snap = self.request_stats(name)
                if snap is not None:
                    out[name] = snap
        return out

    #: Counter families aggregated fleet-wide in :meth:`aggregate`.
    _AGG_PREFIXES = ("cache.", "breaker.", "fallbacks", "requests",
                     "plans.", "faults.", "workers.", "lower.",
                     "compile_failures", "batches_dispatched",
                     "request_errors", "deadline.", "retry.",
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
