"""The benchmark's own load generator for the serving fleet.

One generator thread.  An *open-loop* phase fires every request at the
instant its schedule says, whether or not earlier ones came back, and
times it from that **due** instant — a stalled generator therefore shows
up as latency, and how late it ran is reported as lag.  A *closed-loop*
phase keeps a fixed window of requests outstanding; the completion
callback frees a slot and the same generator thread refills it.

Every request sent is one :class:`Sample` and ends in exactly one
outcome.  Completions arrive on the supervisor's receiver threads, which
only take a timestamp and hand the reply to a checker thread, so checking
an answer never delays the timestamp of the next one.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterShed

from common import TOLERANCE, max_abs_err

OK, SHED, ERROR, WRONG, DEGRADED, LOST = (
    "ok", "shed", "error", "wrong", "degraded", "lost")
TENANTS = ("tenant0", "tenant1", "tenant2")
REQUEST_TIMEOUT_S = 30.0
SETTLE_TIMEOUT_S = 30.0


@dataclass
class Sample:
    phase: str
    workload: str
    feed: int
    due: float
    sent: float = 0.0
    submit_s: float = 0.0
    done: float | None = None
    outcome: str = LOST
    detail: str = ""
    request: object = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class Draws:
    """The seeded request stream: which graph, which feed, which tenant."""

    def __init__(self, rng: np.random.Generator, names: list[str],
                 shares: list[float], feeds_per_graph: int,
                 size: int = 1 << 15) -> None:
        probs = np.asarray(shares) / sum(shares)
        self.names = names
        self.workload = rng.choice(len(names), size=size, p=probs)
        self.feed = rng.integers(feeds_per_graph, size=size)
        self.cursor = 0

    def next(self) -> tuple[str, int, str]:
        i = self.cursor % len(self.workload)
        self.cursor += 1
        return (self.names[int(self.workload[i])], int(self.feed[i]),
                TENANTS[i % len(TENANTS)])


def poisson_offsets(rng: np.random.Generator, rps: float,
                    duration_s: float) -> list[float]:
    """Arrival offsets of a Poisson process, drawn up front."""
    gaps = rng.exponential(1.0 / rps, size=int(rps * duration_s * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return [float(t) for t in offsets[offsets < duration_s]]


class Book:
    """Sends requests, records their fate, checks their answers."""

    def __init__(self, fleet, feeds: dict, references: dict) -> None:
        self.fleet = fleet
        self.feeds = feeds
        self.references = references
        self.samples: list[Sample] = []
        self._to_check: queue.SimpleQueue = queue.SimpleQueue()
        self._open = 0
        self._cond = threading.Condition()
        self._checker = threading.Thread(target=self._check_loop,
                                         name="spine-checker", daemon=True)
        self._checker.start()

    # -- generator thread ------------------------------------------------

    def send(self, phase: str, workload: str, feed: int, tenant: str,
             due: float, on_complete=None) -> Sample:
        sample = Sample(phase, workload, feed, due)
        self.samples.append(sample)
        with self._cond:
            self._open += 1
        sample.sent = time.perf_counter()
        try:
            sample.request = self.fleet.submit(
                workload, self.feeds[workload][feed],
                timeout=REQUEST_TIMEOUT_S, tenant=tenant,
                on_done=lambda req: self._done(sample, req, on_complete))
        except Exception as exc:  # noqa: BLE001 — refused at the door
            sample.submit_s = time.perf_counter() - sample.sent
            if isinstance(exc, ClusterShed):
                self._settle(sample, SHED, exc.reason)
            else:
                self._settle(sample, ERROR, f"{type(exc).__name__}: {exc}")
            if on_complete is not None:
                on_complete()
            return sample
        sample.submit_s = time.perf_counter() - sample.sent
        return sample

    def wait_settled(self, timeout_s: float = SETTLE_TIMEOUT_S) -> bool:
        """Block until every request sent so far has an outcome."""
        with self._cond:
            return self._cond.wait_for(lambda: self._open == 0, timeout_s)

    def close(self) -> None:
        self._to_check.put(None)
        self._checker.join(timeout=SETTLE_TIMEOUT_S)

    # -- receiver threads ------------------------------------------------

    def _done(self, sample: Sample, request, on_complete) -> None:
        sample.done = time.perf_counter()
        if on_complete is not None:
            on_complete()
        self._to_check.put((sample, request))

    # -- checker thread --------------------------------------------------

    def _check_loop(self) -> None:
        while True:
            item = self._to_check.get()
            if item is None:
                return
            sample, request = item
            if request.error is not None:
                self._settle(sample, ERROR,
                             f"{type(request.error).__name__}: "
                             f"{request.error}")
                continue
            reply = request.reply
            err = max_abs_err(reply.outputs,
                              self.references[sample.workload][sample.feed])
            request.reply = None    # the outputs are checked; let them go
            if err > TOLERANCE:
                self._settle(sample, WRONG, f"off by {err:.3e}")
            elif reply.degraded:
                self._settle(sample, DEGRADED, str(reply.reason))
            else:
                self._settle(sample, OK)

    def _settle(self, sample: Sample, outcome: str, detail: str = "") -> None:
        sample.outcome, sample.detail = outcome, detail
        with self._cond:
            self._open -= 1
            if self._open == 0:
                self._cond.notify_all()

    # -- accounting -------------------------------------------------------

    def outcomes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.samples:
            counts[s.outcome] = counts.get(s.outcome, 0) + 1
        counts["duplicated"] = sum(
            1 for s in self.samples
            if s.request is not None and s.request.resolutions > 1)
        return counts


def open_loop(book: Book, phase: str, offsets: list[float],
              draws: Draws) -> None:
    """Fire one request per offset, on schedule, never waiting for replies."""
    plan = [(offset, *draws.next()) for offset in offsets]
    start = time.perf_counter() + 0.02
    for offset, workload, feed, tenant in plan:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        book.send(phase, workload, feed, tenant, due)


def closed_loop(book: Book, phase: str, duration_s: float, window: int,
                draws: Draws) -> tuple[float, float]:
    """Keep ``window`` requests outstanding for ``duration_s``; returns
    the ``(start, end)`` instants of the phase."""
    slots = threading.Semaphore(window)
    start = time.perf_counter()
    end = start + duration_s
    while True:
        if not slots.acquire(timeout=REQUEST_TIMEOUT_S):
            break       # the fleet went silent; the samples will say 'lost'
        now = time.perf_counter()
        if now >= end:
            break
        book.send(phase, *draws.next(), due=now, on_complete=slots.release)
    return start, end
