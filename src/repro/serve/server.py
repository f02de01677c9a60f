"""FusionServer: the concurrent serving front-end.

Clients ``submit()`` request feeds and get a future-like
:class:`~repro.serve.batching.Request` back; worker threads drain the
shared queue in dynamic batches and answer each request through its
workload's :class:`~repro.serve.session.InferenceSession`.  The server
never *errors* a request for compiler trouble: sessions degrade to the
unfused reference kernels on compile failure or deadline pressure, and
every downgrade is visible in the metrics report.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs import event as obs_event
from ..obs import span as obs_span
from ..resilience import faults as _faults
from ..resilience.retry import CLOSED as BREAKER_CLOSED
from ..resilience.retry import OPEN as BREAKER_OPEN
from .batching import (
    Overloaded,
    Request,
    RequestQueue,
    WorkerCrashed,
    validate_feeds,
)
from .metrics import ServeMetrics
from .session import FAILED, InferenceSession, SessionReply

#: Failpoint in the batch-assembly loop (armed only by tests/chaos).
FP_BATCH = _faults.register("serve.batch")
#: Failpoint that kills a worker thread with a batch in flight (the
#: crash-containment path: the batch must fail typed, not hang).
FP_WORKER_CRASH = _faults.register("serve.worker_crash")


class ServerError(Exception):
    """Raised on invalid server usage (unknown workload, closed server)."""


class FusionServer:
    """Thread-pooled request server over one or more inference sessions."""

    def __init__(self, sessions: dict[str, InferenceSession] | None = None,
                 *, max_batch: int = 8, max_wait_ms: float = 2.0,
                 workers: int = 2,
                 metrics: ServeMetrics | None = None,
                 max_queue_depth: int | None = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.sessions: dict[str, InferenceSession] = dict(sessions or {})
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1e3
        self.num_workers = max(1, workers)
        self.metrics = metrics or ServeMetrics()
        self.queue = RequestQueue(on_expired=self._on_expired,
                                  max_depth=max_queue_depth)
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Session registry
    # ------------------------------------------------------------------

    def register(self, name: str, session: InferenceSession) -> None:
        self.sessions[name] = session

    def session(self, name: str) -> InferenceSession:
        try:
            return self.sessions[name]
        except KeyError:
            raise ServerError(
                f"unknown workload {name!r}; registered: "
                f"{sorted(self.sessions)}") from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FusionServer":
        if self._started:
            return self
        self._started = True
        # Warm every session's compile in the background so the first
        # requests overlap with (rather than wait serially on) tuning.
        for session in self.sessions.values():
            session.start_compile()
        for i in range(self.num_workers):
            t = threading.Thread(target=self._worker_main,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down: close the queue and join workers.

        With ``drain=True`` (default) queued requests are still answered;
        with ``drain=False`` pending requests are failed immediately.
        Either way nothing is left unanswered: any request still queued
        after the workers exit (a submit racing the drain, or a server
        that was never started and so has no workers) is failed too, so
        no client can block forever in ``Request.result()``.
        """
        if self._stopped:
            return
        self._stopped = True
        if not drain:
            self._fail_pending()
        self.queue.close()
        for t in self._threads:
            t.join(timeout=30.0)
        self._threads.clear()
        self._fail_pending()

    def _fail_pending(self) -> None:
        for req in self.queue.drain_pending():
            req.fail(ServerError("server stopped before dispatch"))

    def __enter__(self) -> "FusionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(self, workload: str, feeds: dict[str, np.ndarray],
               timeout: float | None = None,
               on_done=None, deadline_s: float | None = None,
               validated: bool = False) -> Request:
        """Enqueue one request; returns its future-like handle.

        Raises :class:`~repro.serve.batching.InvalidRequestError` for
        garbage feeds (non-finite values, uncastable dtypes, missing
        inputs) and :class:`~repro.serve.batching.Overloaded` when the
        queue is at its depth bound — both *before* the request enters
        the batcher.

        ``on_done(request)`` (optional) fires exactly once on the first
        resolve/fail — push-style completion for callers (the cluster
        worker, the load harness) that must not block a thread per
        request.

        ``deadline_s`` (optional) is an *absolute* monotonic deadline —
        the end-to-end budget anchored at cluster ingress.  Unlike
        ``timeout`` it is strict: results are never published past it.

        ``validated=True`` says the caller already ran
        :func:`~repro.serve.batching.validate_feeds` on these very feeds
        against the same graph (the cluster supervisor does, at ingress),
        so the full non-finite scan is not repeated here.
        """
        if self._stopped:
            raise ServerError("server is stopped")
        self.metrics.inc("requests.submitted")
        session = self.session(workload)  # validate early, before enqueueing
        if not validated:
            validate_feeds(feeds, required=session.graph.input_tensors)
        request = Request(workload=workload, feeds=feeds, timeout_s=timeout,
                          on_done=on_done, deadline_s=deadline_s)
        try:
            depth = self.queue.put(request)
        except Overloaded:
            self.metrics.inc("requests.shed")
            obs_event("load_shed", category="serve", workload=workload)
            raise
        self.metrics.observe_queue_depth(depth)
        return request

    def infer(self, workload: str, feeds: dict[str, np.ndarray],
              timeout: float | None = None) -> SessionReply:
        """Synchronous convenience: submit and wait for the reply."""
        return self.submit(workload, feeds, timeout=timeout).result()

    def run_inline(self, workload: str, feeds: dict[str, np.ndarray],
                   deadline_s: float | None = None) -> Request:
        """Answer one already-validated request on the calling thread.

        The synchronous counterpart of ``submit(validated=True)``: no
        queue, no batch, no executor hand-off — the returned request is
        already complete (resolved, or failed with the error ``submit``'s
        handle would carry).  It counts ``requests.submitted`` like any
        request, but not ``queue_wait`` or a batch; the ``request`` span,
        the publish gate and ``request_errors`` are the executor
        threads' own (``_answer``).  The cluster worker calls this from
        its pipe thread for every workload that is not still compiling.
        """
        if self._stopped:
            raise ServerError("server is stopped")
        self.metrics.inc("requests.submitted")
        session = self.session(workload)
        request = Request(workload=workload, feeds=feeds,
                          deadline_s=deadline_s)
        self._answer(session, request, queued=False)
        return request

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _on_expired(self, request: Request) -> None:
        """Queue callback: a deadline passed before dispatch."""
        self.metrics.inc("requests.expired")

    def _worker_main(self) -> None:
        """Thread entry: run the loop, contain crashes, restart.

        A worker that dies with a batch in flight must not strand its
        submitters until their timeouts: ``_worker_loop`` counts the
        crash, then fails every unanswered request of the batch with a
        typed :class:`WorkerCrashed`, and — unless the server is
        stopping — the same thread re-enters the loop so serving
        capacity survives the crash.
        """
        while True:
            try:
                self._worker_loop()
                return  # queue closed and drained
            except Exception:  # noqa: BLE001 — crash containment
                if self._stopped:
                    return

    def _worker_loop(self) -> None:
        batch: list[Request] = []
        try:
            while True:
                try:
                    # Failpoint for the batcher itself: a delay stalls
                    # batch assembly (queue backs up, admission control
                    # sheds); a fail skips one round — requests stay
                    # queued and are picked up next iteration, never lost.
                    _faults.fire(FP_BATCH)
                except _faults.FaultInjected:
                    self.metrics.inc("faults.batching")
                    continue
                with obs_span("batch_assembly", category="serve") as asp:
                    batch = self.queue.take_batch(self.max_batch,
                                                  self.max_wait_s)
                    asp.note(batch=len(batch))
                if not batch:
                    return  # queue closed and drained
                _faults.fire(FP_WORKER_CRASH)
                self.metrics.observe_batch(len(batch))
                session = self.sessions.get(batch[0].workload)
                for request in batch:
                    self._answer(session, request)
        except BaseException as exc:
            # This worker is dying.  The crash is counted first, once,
            # so a client that sees WorkerCrashed also sees the count.
            # A batch that left the queue will never reach another
            # worker: fail whatever of it was not answered yet.
            worker = threading.current_thread().name
            self.metrics.inc("workers.crashed")
            obs_event("worker_crash", category="serve", worker=worker,
                      error=f"{type(exc).__name__}: {exc}")
            for request in batch:
                if not request.done():
                    request.fail(WorkerCrashed(
                        worker, f"{type(exc).__name__}: {exc}"))
                    self.metrics.inc("requests.worker_crashed")
            raise

    def _answer(self, session: InferenceSession | None,
                request: Request, queued: bool = True) -> None:
        if request.done():
            return  # already answered (expired) while it waited
        queue_wait_s = time.monotonic() - request.enqueued_at
        if queued:
            self.metrics.observe_queue_wait(queue_wait_s)
        if session is None:
            request.fail(ServerError(
                f"workload {request.workload!r} was unregistered"))
            return
        try:
            with obs_span("request", category="serve",
                          workload=request.workload,
                          seq=request.seq) as sp:
                sp.note(queue_wait_s=queue_wait_s)
                reply = session.execute(request.feeds,
                                        timeout=request.remaining())
                sp.note(degraded=reply.degraded, reason=reply.reason)
            # Publish gate: a strict end-to-end deadline is never
            # answered late — a reply that became stale during execution
            # is dropped here, the last boundary before the client.
            if (request.deadline_s is not None
                    and time.monotonic() > request.deadline_s):
                self.metrics.inc("deadline.expired_publish")
                request.fail(TimeoutError(
                    f"request {request.seq} for {request.workload!r} "
                    "completed past its end-to-end deadline; "
                    "result withheld"))
                return
            request.resolve(reply)
        except Exception as exc:  # noqa: BLE001 — surface to the client
            self.metrics.inc("request_errors")
            request.fail(exc)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Operator health snapshot: ``healthy``/``degraded``/``unhealthy``.

        A session is *impaired* when its compile failed outright or its
        circuit breaker is not closed (open = fused path disabled,
        half-open = probing recovery).  The server is ``degraded`` while
        any session is impaired (impaired sessions still answer — via
        the reference fallback) and ``unhealthy`` when it is stopped or
        *every* session's fused path is down (FAILED or breaker open).
        """
        sessions: dict[str, dict] = {}
        impaired = hard_down = 0
        for name, s in self.sessions.items():
            b_state = s.breaker.state
            sessions[name] = {"state": s.state, "breaker": b_state,
                              "engine": s.engine}
            if s.state == FAILED or b_state != BREAKER_CLOSED:
                impaired += 1
            if s.state == FAILED or b_state == BREAKER_OPEN:
                hard_down += 1
        if self._stopped or (self.sessions
                             and hard_down == len(self.sessions)):
            status = "unhealthy"
        elif impaired:
            status = "degraded"
        else:
            status = "healthy"
        return {
            "status": status,
            "stopped": self._stopped,
            "queue_depth": self.queue.depth(),
            "queue_bound": self.queue.max_depth,
            "shed": self.metrics.get("requests.shed"),
            "fallbacks": self.metrics.get("fallbacks"),
            "sessions": sessions,
        }

    def stats_report(self) -> str:
        """The serve-stats report: metrics plus per-session summaries."""
        lines = [self.metrics.render_report(), "", "sessions:"]
        for name in sorted(self.sessions):
            info = self.sessions[name].info()
            cache = info.meta.get("cache", {})
            breaker = info.meta.get("breaker", {})
            lines.append(
                f"  {name}: state={info.state} engine={info.engine} "
                f"kernels={info.kernels} "
                f"requests={info.requests} degraded={info.degraded_requests}"
                + (f" breaker={breaker['state']}" if breaker else "")
                + (f" error={info.compile_error!r}"
                   if info.compile_error else ""))
            if cache:
                lines.append(
                    f"    cache: memory_hits={cache.get('memory_hits', 0)} "
                    f"disk_hits={cache.get('disk_hits', 0)} "
                    f"compile_misses={cache.get('compile_misses', 0)} "
                    f"resident={cache.get('resident', 0)}")
        return "\n".join(lines)
