"""The cluster worker process: one serving slice behind a duplex pipe.

Each worker a :class:`~repro.cluster.supervisor.ClusterSupervisor` forks
runs :func:`worker_main`: it rebuilds its assigned workload graphs from
their serialized form, hosts one :class:`~repro.serve.session.InferenceSession`
per workload behind an in-process :class:`~repro.serve.server.FusionServer`
(dynamic batching, bounded queue, breaker, compiled-engine plan cache),
and speaks a small tuple protocol with the supervisor:

========================  =====================================================
supervisor → worker        meaning
========================  =====================================================
``("req", id, wl, feeds,
deadline)``                answer one inference request by the supervisor's
                           absolute deadline (None: none) — every worker
                           shares its host's monotonic clock, so time in the
                           pipe is spent budget.  ``feeds`` is an arena
                           reference ``(slot, descriptor, end)`` — the
                           arrays are already in
                           this worker's :mod:`~repro.cluster.arena` slot —
                           or, in the one in-band case, the dict of arrays
``("ping", seq)``          heartbeat; worker answers ``("pong", seq, health)``
``("stats", seq)``         request a metrics snapshot
``("arm", plan)``          arm failpoints in *this* process (tests/chaos)
``("drain",)``             stop accepting, finish in-flight, report stats
``("stop",)``              shut down and exit
========================  =====================================================

A request whose session is not still compiling runs to completion on
the pipe thread that received it (:meth:`FusionServer.run_inline`),
which also sends its terminal message; only one for a session still
compiling goes through the server's queue and executor threads (so pings
are answered through a cold compile) and is answered by its
:attr:`~repro.serve.batching.Request.on_done` hook.  Every writer takes
one send lock.  Each wire id gets exactly one ``reply`` (outputs in its
arena slot, or in-band) or ``error`` — its *terminal* message, sent only
once nothing in this process touches the request's slot again; the
supervisor frees the slot on it.

The schedule cache's disk tier points at the supervisor's shared
directory: together with the per-key advisory file lock in
:class:`~repro.serve.cache.TieredScheduleCache`, a given (graph, GPU)
key is compiled by exactly one process in the fleet and every other
worker loads it as a disk hit.
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from ..core.serialize import ScheduleCache, graph_from_dict, graph_to_dict
from ..hw import get_gpu
from ..ir.graph import DataflowGraph
from ..resilience import faults
from ..serve import (
    FusionServer,
    InferenceSession,
    InvalidRequestError,
    Overloaded,
    ServeMetrics,
    SessionReply,
    TieredScheduleCache,
    WorkerCrashed,
)
from ..serve.session import PENDING
from .arena import SlotViews

#: Chaos failpoint in the worker's pipe loop (armed only by tests): a
#: big delay makes the worker unresponsive to pings — the
#: reap-a-hung-worker path.
FP_HANG = faults.register("cluster.worker.hang")

#: Wire error kinds (worker → supervisor) and the exceptions they map to.
ERR_OVERLOADED = "overloaded"
ERR_INVALID = "invalid"
ERR_TIMEOUT = "timeout"
ERR_CRASHED = "crashed"
ERR_DRAINING = "draining"
ERR_SERVER = "server"


def error_kind(exc: BaseException) -> str:
    if isinstance(exc, Overloaded):
        return ERR_OVERLOADED
    if isinstance(exc, InvalidRequestError):
        return ERR_INVALID
    if isinstance(exc, WorkerCrashed):
        return ERR_CRASHED
    if isinstance(exc, TimeoutError):
        return ERR_TIMEOUT
    return ERR_SERVER


@dataclass
class WorkerConfig:
    """Everything a worker needs, in picklable (spawn-safe) form."""

    name: str
    #: workload name → serialized graph dict (``graph_to_dict``).
    workloads: dict[str, dict]
    gpu: str = "ampere"
    engine: str = "compiled"
    cache_dir: str | None = None
    max_batch: int = 8
    #: Work-conserving: a batch is whatever is already queued.  Batches
    #: are still executed one request at a time, so idle-waiting for
    #: stragglers would buy nothing and cost every request the wait.
    max_wait_ms: float = 0.0
    threads: int = 2
    max_queue_depth: int | None = 64
    #: Shared tuning-database directory (see :mod:`repro.tune`).  With
    #: the whole fleet pointed at one directory, a kernel's tuning
    #: campaign runs in exactly one process — single-flighted by the
    #: DB's per-fingerprint file lock — and every other worker replays
    #: the stored winner.
    tune_db_dir: str | None = None
    #: Failpoint plan armed at boot (restart-on-crash tests re-arm this
    #: way because a fresh worker process starts with a clean registry).
    fault_plan: dict[str, str] = field(default_factory=dict)
    #: Relative compile budget per session: retry backoff never sleeps
    #: past it (see :class:`~repro.serve.session.InferenceSession`).
    compile_deadline_s: float | None = None

    @staticmethod
    def pack_workloads(graphs: dict[str, DataflowGraph]) -> dict[str, dict]:
        return {name: graph_to_dict(g) for name, g in graphs.items()}


def build_server(config: WorkerConfig,
                 metrics: ServeMetrics) -> FusionServer:
    """Construct the in-worker serving stack from its config."""
    gpu = get_gpu(config.gpu)
    disk = ScheduleCache(config.cache_dir) if config.cache_dir else None
    cache = TieredScheduleCache(disk=disk, metrics=metrics)
    tune_db = None
    if config.tune_db_dir:
        from ..tune import TuneDB
        tune_db = TuneDB(config.tune_db_dir, metrics=metrics)
    sessions = {
        name: InferenceSession(graph_from_dict(gdict), gpu, cache=cache,
                               metrics=metrics, engine=config.engine,
                               tune_db=tune_db,
                               compile_deadline_s=config.compile_deadline_s)
        for name, gdict in sorted(config.workloads.items())
    }
    return FusionServer(sessions, max_batch=config.max_batch,
                        max_wait_ms=config.max_wait_ms,
                        workers=config.threads, metrics=metrics,
                        max_queue_depth=config.max_queue_depth)


class _SigTerm(Exception):
    """Raised out of the pipe loop by the SIGTERM handler: the worker
    drains in flight work and exits cleanly instead of dying mid-batch."""


def worker_main(conn, config: WorkerConfig,
                arena: tuple[int, int, int] | None = None) -> None:
    """Process entry point; returns only at clean shutdown.

    ``arena`` is the supervisor's :meth:`SlotArena.child_spec` — the
    inherited memfd to map — or ``None`` when every request is in-band.
    """
    # The forked child inherits the parent's failpoint registry — and,
    # worst case, a lock some parent thread held at fork time.  Start
    # from a clean, self-owned registry and re-arm from the config.
    registry = faults.reset_after_fork()

    # Graceful termination: SIGTERM drains (no orphaned in-flight work),
    # SIGINT is ignored — a terminal Ctrl-C signals the whole process
    # group, and shutdown must stay the supervisor's decision.  It
    # raises only while the pipe thread waits for a message: one landing
    # mid-execution or mid-send is acted on after that message is done.
    waiting = terminated = False

    def _on_sigterm(signum, frame):
        nonlocal terminated
        # The supervisor terminate()s a worker whose pipe closed: a
        # second SIGTERM landing mid-drain must not abort the drain.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        terminated = True
        if waiting:
            raise _SigTerm()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:      # not the main thread (embedded test use)
        pass

    metrics = ServeMetrics()
    server = build_server(config, metrics)
    views = SlotViews(*arena) if arena is not None else None
    # Arm the boot fault plan only after build_server: constructing the
    # stack imports every instrumented module (serve cache, tuning DB),
    # so each plan entry's failpoint name is registered by now even
    # under the spawn start method, where the child imports from
    # scratch.  Nothing can fire in between — serving starts below.
    for name, spec in config.fault_plan.items():
        registry.arm(name, spec)
    send_lock = threading.Lock()
    accepting = True

    def send(msg: tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, ValueError):
                pass    # supervisor went away; nothing left to tell

    def on_done(req_id: int, slot: int | None, tail: int, request) -> None:
        if request.error is not None:
            send(("error", req_id, error_kind(request.error),
                  f"{type(request.error).__name__}: {request.error}"))
            return
        reply: SessionReply = request.reply
        meta = {"degraded": reply.degraded, "reason": reply.reason,
                "latency_s": reply.latency_s}
        desc = (views.put_outputs(slot, tail, reply.outputs)
                if slot is not None else None)
        if desc is not None:
            send(("reply", req_id, meta, desc))
        else:
            send(("reply", req_id, {**meta, "outputs": reply.outputs}))

    def snapshot() -> dict:
        snap = metrics.snapshot()
        snap["worker"] = config.name
        snap["pid"] = os.getpid()
        return snap

    server.start()
    send(("ready", config.name, sorted(config.workloads)))

    stopping = False
    graceful = False
    try:
        while not stopping:
            waiting = True
            if terminated:
                raise _SigTerm()
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # supervisor died; daemon worker just exits
            try:
                # A delay() armed here makes the worker *hung*, not
                # dead: it stops answering pings without exiting — the
                # health loop's reap path, untestable any other way.
                faults.fire(FP_HANG)
            except faults.FaultInjected:
                metrics.inc("faults.worker_hang")
            waiting = False
            kind = msg[0]
            if kind == "req":
                # The supervisor's own deadline: a copy that waited in
                # the pipe behind warm executions is refused below.
                _, req_id, workload, feeds, deadline = msg
                if not accepting:
                    send(("error", req_id, ERR_DRAINING,
                          f"worker {config.name} is draining"))
                    continue
                if (deadline is not None
                        and time.monotonic() >= deadline):
                    metrics.inc("deadline.expired_ingress")
                    send(("error", req_id, ERR_TIMEOUT,
                          f"request {req_id} reached worker "
                          f"{config.name} past its deadline"))
                    continue
                slot, tail = None, 0
                if not isinstance(feeds, dict):     # arena reference
                    slot, desc, tail = feeds
                    feeds = views.feeds(slot, desc)
                done = functools.partial(on_done, req_id, slot, tail)
                try:
                    # The supervisor validated these feeds at ingress.
                    if server.session(workload).state != PENDING:
                        done(server.run_inline(workload, feeds, deadline))
                        continue
                    # Cold: the executor threads wait out the compile.
                    server.submit(workload, feeds, deadline_s=deadline,
                                  validated=True, on_done=done)
                except Exception as exc:  # noqa: BLE001 — typed over the wire
                    send(("error", req_id, error_kind(exc),
                          f"{type(exc).__name__}: {exc}"))
            elif kind == "ping":
                health = server.health()
                send(("pong", msg[1], {
                    "status": health["status"],
                    "queue_depth": health["queue_depth"],
                }))
            elif kind == "stats":
                send(("stats_reply", msg[1], snapshot()))
            elif kind == "arm":
                for name, spec in msg[1].items():
                    registry.arm(name, spec)
                send(("armed",))
            elif kind == "drain":
                accepting = False
                server.stop(drain=True)
                send(("drained", snapshot()))
            elif kind == "stop":
                stopping = True
    except _SigTerm:
        graceful = True

    server.stop(drain=graceful)
    send(("stopped", snapshot()))
    if views is not None:
        views.close()
    try:
        conn.close()
    except OSError:
        pass
