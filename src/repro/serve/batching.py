"""Request queue and dynamic batcher for the fusion server.

Requests carry a *batch key* (workload name + input shapes).  The batcher
pops the oldest request and then coalesces further same-key requests into
one batch, waiting up to ``max_wait_s`` for stragglers but never exceeding
``max_batch`` — the classic dynamic-batching tradeoff between tail latency
and dispatch amortisation.  Requests with other keys are left queued for
the next dispatch round.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..runtime.dtypes import all_finite

_seq = itertools.count()


def _held_lock() -> threading.Lock:
    lock = threading.Lock()
    lock.acquire()
    return lock


class Overloaded(RuntimeError):
    """Typed load-shed rejection: the request queue is at its bound.

    Raised at submit time — the request never entered the queue, so
    retrying later (or against another replica) is always safe.
    """

    def __init__(self, depth: int, bound: int) -> None:
        super().__init__(
            f"request queue at depth bound ({depth}/{bound}); shed")
        self.depth = depth
        self.bound = bound


class InvalidRequestError(ValueError):
    """Typed rejection for malformed request feeds (pre-queue)."""


class WorkerCrashed(RuntimeError):
    """A request was in flight on a worker (thread or process) that died.

    The request was dispatched but never answered: it may or may not have
    executed, so the submitter must treat it as *failed with unknown
    side effects* and decide about retrying (inference is idempotent, so
    retrying is safe here).  Raised instead of letting the submitter hang
    in ``Request.result()`` until its timeout.
    """

    def __init__(self, worker: str, detail: str = "") -> None:
        super().__init__(
            f"worker {worker!r} died with this request in flight"
            + (f": {detail}" if detail else ""))
        self.worker = worker


def validate_feeds(feeds: dict[str, np.ndarray],
                   required=None) -> None:
    """Reject garbage feeds before they reach the batcher.

    Non-finite values and non-numeric dtypes would surface deep in the
    engine as execution failures (and wrongly trip the circuit breaker);
    catching them at submit time turns them into an immediate, typed
    client error instead.
    """
    if not isinstance(feeds, dict):
        raise InvalidRequestError(
            f"feeds must be a dict of arrays, got {type(feeds).__name__}")
    for name, value in feeds.items():
        arr = np.asarray(value)
        if arr.dtype.kind not in "fiub":
            raise InvalidRequestError(
                f"feed {name!r} has unsupported dtype {arr.dtype} "
                f"(would not cast cleanly to the engine dtype)")
        if arr.dtype.kind == "f" and not all_finite(arr):
            raise InvalidRequestError(
                f"feed {name!r} contains non-finite values")
    if required is not None:
        missing = sorted(set(required) - set(feeds))
        if missing:
            raise InvalidRequestError(
                f"missing required input feeds: {missing}")


def batch_key(workload: str, feeds: dict[str, np.ndarray]) -> tuple:
    """Coalescing key: workload plus every input's shape."""
    shapes = tuple(sorted((name, np.asarray(arr).shape)
                          for name, arr in feeds.items()))
    return (workload, shapes)


@dataclass
class Request:
    """One in-flight inference request."""

    workload: str
    feeds: dict[str, np.ndarray]
    timeout_s: float | None = None
    seq: int = field(default_factory=lambda: next(_seq))
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Completion latch: held while pending, released by the first
    #: completion.  A bare lock, not a ``threading.Event`` (1.3 kB of
    #: condition + deque per request): a load generator that keeps every
    #: handle would otherwise pay that for each request it ever sent.
    _pending: threading.Lock = field(default_factory=_held_lock, repr=False)
    _finished: bool = field(default=False, repr=False)
    _resolve_lock: threading.Lock = field(default_factory=threading.Lock,
                                          repr=False)
    reply: Any = None
    error: Exception | None = None
    #: Completion attempts (resolve + fail).  Exactly 1 for a healthy
    #: request; the chaos harness asserts no request is ever answered
    #: twice.  First completion wins, later ones only bump the count.
    resolutions: int = 0
    #: Optional completion hook, called exactly once — after the first
    #: resolve/fail, outside the resolve lock.  The cluster worker uses
    #: it to push replies back over the supervisor pipe and the load
    #: harness to timestamp completions without polling.  Keep it cheap
    #: and non-raising; it runs on the answering worker's thread.
    on_done: Callable[["Request"], None] | None = field(default=None,
                                                       repr=False)
    #: Absolute monotonic deadline (end-to-end budget).  When set it wins
    #: over ``timeout_s``: the clock was anchored once at ingress and is
    #: *not* restarted by re-enqueues or process hops, so time spent in a
    #: supervisor queue or on the wire counts against the budget.  The
    #: server also refuses to *publish* a result past this deadline (the
    #: plain ``timeout_s`` path keeps its lenient legacy semantics).
    deadline_s: float | None = None

    @property
    def key(self) -> tuple:
        return batch_key(self.workload, self.feeds)

    def remaining(self) -> float | None:
        """Seconds left before this request's deadline (None = unbounded)."""
        if self.deadline_s is not None:
            return self.deadline_s - time.monotonic()
        if self.timeout_s is None:
            return None
        return self.timeout_s - (time.monotonic() - self.enqueued_at)

    # -- completion (server side) --------------------------------------

    def _first_completion(self) -> bool:
        with self._resolve_lock:
            self.resolutions += 1
            return self.resolutions == 1

    def resolve(self, reply) -> None:
        if self._first_completion():
            self.reply = reply
            self._notify_done()

    def fail(self, error: Exception) -> None:
        if self._first_completion():
            self.error = error
            self._notify_done()

    def _notify_done(self) -> None:
        self._finished = True       # after reply/error is in place
        self._pending.release()
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:  # noqa: BLE001 — a hook must not kill a worker
                pass

    # -- waiting (client side) -----------------------------------------

    def result(self, timeout: float | None = None):
        """Block for the reply; raises the server-side error if any."""
        if not self._finished:
            if not self._pending.acquire(
                    timeout=-1 if timeout is None else max(0.0, timeout)):
                raise TimeoutError(
                    f"request {self.seq} for {self.workload!r} "
                    "still pending")
            self._pending.release()     # let the next waiter through
        if self.error is not None:
            raise self.error
        return self.reply

    def done(self) -> bool:
        return self._finished


class RequestQueue:
    """FIFO of requests with key-aware extraction under one condition.

    ``on_expired`` (optional) is called — with the queue lock held, after
    the request has been failed with :class:`TimeoutError` — for every
    request whose deadline passed before it could be dispatched.

    ``max_depth`` (optional) bounds the queue: a :meth:`put` that would
    exceed it raises :class:`Overloaded` instead of growing latency
    without limit — admission control, not backpressure-by-blocking.
    """

    def __init__(self, on_expired: Callable[[Request], None] | None = None,
                 max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._items: list[Request] = []
        self._closed = False
        self._on_expired = on_expired
        self.max_depth = max_depth

    def put(self, request: Request) -> int:
        """Enqueue; returns the queue depth *after* insertion.

        Raises :class:`Overloaded` when the depth bound is reached — the
        request is *not* enqueued and will never be dispatched.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if (self.max_depth is not None
                    and len(self._items) >= self.max_depth):
                raise Overloaded(len(self._items), self.max_depth)
            self._items.append(request)
            depth = len(self._items)
            # notify_all, not notify: a single wake-up could land on a
            # coalescing worker whose batch key doesn't match while an
            # idle worker (who could dispatch this request) sleeps on.
            self._cond.notify_all()
            return depth

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def drain_pending(self) -> list[Request]:
        """Remove and return everything still queued (for abrupt stops)."""
        with self._cond:
            pending = list(self._items)
            self._items.clear()
            return pending

    # ------------------------------------------------------------------
    # Batch extraction
    # ------------------------------------------------------------------

    def _expire(self, request: Request) -> None:
        """Fail a request whose deadline passed while it sat queued."""
        budget = (f"after {request.timeout_s:.3g}s"
                  if request.timeout_s is not None
                  else "past its end-to-end deadline")
        request.fail(TimeoutError(
            f"request {request.seq} for {request.workload!r} expired "
            f"{budget} before dispatch"))
        if self._on_expired is not None:
            self._on_expired(request)

    def _pop_live(self, key: tuple | None = None) -> Request | None:
        """Pop the oldest non-expired request (same-``key`` only if given).

        Expired requests encountered during the scan are failed and
        dropped so a dead deadline is never dispatched.  Caller must hold
        the lock.
        """
        i = 0
        while i < len(self._items):
            req = self._items[i]
            if req.done():
                # Cancelled while queued: the resolution already
                # happened elsewhere, just drop it silently.
                del self._items[i]
                continue
            remaining = req.remaining()
            if remaining is not None and remaining <= 0:
                del self._items[i]
                self._expire(req)
                continue
            if key is None or req.key == key:
                del self._items[i]
                return req
            i += 1
        return None

    def take_batch(self, max_batch: int, max_wait_s: float,
                   ) -> list[Request]:
        """Dequeue one dynamic batch (empty list once closed and drained).

        Blocks on the condition for the first live request — requests
        whose deadline already passed are failed with ``TimeoutError`` at
        dequeue, never dispatched — then keeps absorbing same-key
        requests until the batch is full or ``max_wait_s`` has elapsed
        since the batch opened.  All waiting happens in
        ``Condition.wait``: enqueues wake coalescers immediately and idle
        workers burn no CPU.
        """
        with self._cond:
            head = self._pop_live()
            while head is None:
                if self._closed:
                    return []
                self._cond.wait()
                head = self._pop_live()
            batch = [head]
            deadline = time.monotonic() + max_wait_s
            while len(batch) < max_batch and not self._closed:
                matched = self._pop_live(key=head.key)
                if matched is not None:
                    batch.append(matched)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
        return batch
