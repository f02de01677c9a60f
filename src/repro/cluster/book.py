"""RequestBook: the one place a cluster request's lifecycle is decided.

A *logical* request is one client-held
:class:`~repro.serve.batching.Request` plus one or two *wire copies* —
the routed original and at most one hedge — each out on some worker
under its own wire id.  Replies, wire errors, crash drains, sends that
never left, deadline expiry and hedge timers all land here, under one
lock, and each is answered with a :class:`Verdict` telling the caller
(:class:`~repro.cluster.supervisor.ClusterSupervisor`) what to do now.
Which owner a new original goes to is the book's too (:meth:`route`):
every copy out carries the execute time its workload is expected to
take, so the book knows how far behind each worker is.

The book does no I/O and starts nothing — no thread, pipe, process or
arena, and time only through the injected ``clock`` — so every decision
is a pure function of (book, event, now): ``tests/cluster/test_book.py``
interleaves them by the thousand without a fork.  The state × event
table is ``docs/cluster.md#request-lifecycle``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

#: Verdict actions: publish the reply this copy carried / a reply exists
#: but the budget is spent, withhold it / the deadline fired with copies
#: still out / the budget died before the first dispatch / the last copy
#: failed, publish its error.
RESOLVE, LATE, EXPIRE, DEAD, FAIL = "resolve", "late", "expire", "dead", "fail"
#: Each deadline verdict's counter, and how it reads to the caller
#: (``{0}``: the Request).
_EXPIRED = {
    LATE: ("deadline.expired_reply",
           "answered past its end-to-end deadline; result withheld"),
    EXPIRE: ("deadline.expired_supervisor", "exceeded its end-to-end budget"),
    DEAD: ("deadline.expired_dispatch",
           "spent its whole {0.timeout_s:.3g}s budget before dispatch"),
}
#: Due-time kinds handed back by :meth:`RequestBook.pop_due`.
DEADLINE, HEDGE = "deadline", "hedge"
#: :meth:`RequestBook.route` sends a new original past its primary only
#: when the primary has both this much more expected execution out than
#: the least-loaded other owner and at least this many more copies.  The
#: time keeps sub-millisecond plans on their primary however many are
#: out; the count keeps a slow copy or two (a compile, a stall) from
#: moving the next request.
SPILL_AFTER_S = 0.005
SPILL_AFTER_COPIES = 3


@dataclass(eq=False)
class Entry:
    """One logical request.  ``request`` is dropped the moment the entry
    settles: a settled entry pins neither feeds nor reply."""

    request: object
    workload: str
    tenant: str
    priority: int
    deadline: float | None      # absolute, on the book's clock
    #: Wire copies still out: wire id → worker name.
    copies: dict[int, str] = field(default_factory=dict)
    #: Worker the original went to (a hedge must go elsewhere).
    routed: str | None = None
    hedge_id: int | None = None     # the hedge copy's wire id, once issued


class Verdict(NamedTuple):
    """What the caller must do after one event.  From :meth:`settle` and
    :meth:`drain` it also means the wire id is terminal; the last three
    fields are :meth:`issue`'s."""

    action: str | None = None
    request: object = None          # the client Request ``action`` is about
    error: Exception | None = None  # what a deadline verdict fails it with
    cancel: tuple = ()              # ((worker, wire_id), ...) still out
    counters: tuple = ()            # ((metric name, delta), ...)
    wire_id: int | None = None      # the copy booked; None = refused
    head_moved: bool = False        # earliest due-time moved: wake the timer
    shed: str | None = None         # admission's refusal


_SUPPRESSED = Verdict(counters=(("hedge.suppressed", 1),))


class RequestBook:
    """Open requests, their wire copies, the hedge budget and the
    deadline/hedge due-times.

    ``config`` is anything carrying ``ClusterConfig``'s ``hedge*``,
    ``workers`` and ``replication`` fields, read on every call (cluster
    chaos mutates them on a live fleet); ``latency_quantile`` is
    ``ServeMetrics.workload_latency_quantile``.
    """

    def __init__(self, admission, config, latency_quantile: Callable,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._admission = admission
        self._config = config
        self._quantile = latency_quantile
        self._clock = clock
        self._lock = threading.Lock()
        self._wire_ids = itertools.count(1)
        #: The one index of copies out: wire id → entry (its worker is
        #: ``entry.copies[wire_id]``).
        self._wire: dict[int, Entry] = {}
        #: Hedge copies out (read-only outside the book).
        self.hedges_out = 0
        #: Heap of (at, seq, kind, entry); settled entries are skipped.
        self._due: list[tuple[float, int, str, Entry]] = []
        self._due_seq = itertools.count()
        #: Expected execute seconds per workload, learned from replies.
        self._execute: dict[str, float] = {}
        #: What each copy out was booked at, and the sums by worker.
        self._cost: dict[int, float] = {}
        self._load: dict[str, float] = {}
        self._out: dict[str, int] = {}

    def hedge_delay(self, workload: str) -> float | None:
        """Seconds to wait before hedging, or None = don't hedge."""
        cfg = self._config
        if not cfg.hedge or cfg.workers < 2 or cfg.replication < 2:
            return None
        if cfg.hedge_delay_s is not None:
            return max(cfg.hedge_delay_s, cfg.hedge_min_delay_s)
        p95 = self._quantile(workload, 0.95,
                             min_samples=cfg.hedge_min_samples)
        return None if p95 is None else max(p95, cfg.hedge_min_delay_s)

    def open(self, request, workload: str, tenant: str, priority: int,
             deadline: float | None) -> Entry:
        return Entry(request, workload, tenant, priority, deadline)

    def backlog(self, worker: str) -> tuple[int, float]:
        """Copies out on ``worker`` and their expected execute seconds."""
        return self._out.get(worker, 0), self._load.get(worker, 0.0)

    def route(self, owners: list[str]) -> str:
        """Which of a workload's live ``owners`` (primary first) a new
        original goes to: the primary, unless it is behind the
        least-loaded other owner by more than ``SPILL_AFTER_S`` of
        expected execution *and* ``SPILL_AFTER_COPIES`` copies.  A worker
        runs warm requests one at a time, so with the primary always
        chosen a closed loop over two workloads whose primaries differ
        runs at about twice the slower worker's rate while the faster
        one idles.

        Read without the lock: a stale sum moves one routing decision at
        most, and the submitting thread must not queue behind a
        receiver's ``settle``."""
        out, load = self.backlog(owners[0])
        if (len(owners) < 2 or load <= SPILL_AFTER_S
                or out < SPILL_AFTER_COPIES):
            return owners[0]
        spare = min(owners[1:], key=lambda w: self._load.get(w, 0.0))
        spare_out, spare_load = self.backlog(spare)
        if (load - spare_load > SPILL_AFTER_S
                and out - spare_out >= SPILL_AFTER_COPIES):
            return spare
        return owners[0]

    def issue(self, entry: Entry, worker: str,
              hedge: bool = False) -> Verdict:
        """Admit and book one wire copy of ``entry`` on ``worker``: the
        original (which also arms the deadline due-time) or the hedge
        (at most one, within the hedge budget)."""
        with self._lock:
            now = self._clock()
            dead = entry.deadline is not None and now >= entry.deadline
            if hedge:
                if entry.request is None or entry.hedge_id is not None or dead:
                    return Verdict()
                # Outstanding hedges never exceed the configured fraction
                # of open copies — but one is always allowed, or light
                # traffic could never hedge at all.
                if self.hedges_out >= max(1, math.floor(
                        self._config.hedge_max_fraction
                        * max(1, self._admission.outstanding_total()))):
                    return _SUPPRESSED
            shed = self._admission.admit(worker, entry.tenant,
                                         entry.priority)
            if shed is not None:
                return (_SUPPRESSED if hedge else Verdict())._replace(shed=shed)
            if dead:
                # The budget died on the supervisor (routing, queueing):
                # never dispatch a dead deadline.
                self._admission.release(worker, entry.tenant)
                return self._close(entry, DEAD)
            wire_id = next(self._wire_ids)
            entry.copies[wire_id] = worker
            self._wire[wire_id] = entry
            cost = self._cost[wire_id] = self._execute.get(entry.workload,
                                                           0.0)
            self._load[worker] = self._load.get(worker, 0.0) + cost
            self._out[worker] = self._out.get(worker, 0) + 1
            if hedge:
                entry.hedge_id = wire_id
                self.hedges_out += 1
                return Verdict(None, entry.request, None, (),
                               (("hedge.issued", 1),), wire_id)
            entry.routed = worker
            return Verdict(
                None, entry.request, None, (), (), wire_id,
                entry.deadline is not None
                and self._arm(entry.deadline, DEADLINE, entry))

    def arm_hedge(self, entry: Entry) -> bool:
        """The original is on the wire: start its hedge clock (from now,
        not from ``issue`` — the send is not the worker's time).  True
        when the earliest due-time moved."""
        delay = self.hedge_delay(entry.workload)
        with self._lock:
            return (delay is not None and entry.request is not None
                    and self._arm(self._clock() + delay, HEDGE, entry))

    def retract(self, wire_id: int) -> Verdict | None:
        """A send that never left the supervisor: un-book the copy.  A
        hedge is undone (the request may hedge again); either way the
        request fails if this was its last copy.  None: a crash drain
        got there first."""
        with self._lock:
            entry = self._take(wire_id)
            if entry is None:
                return None
            if wire_id != entry.hedge_id:
                return self._finish(entry, wire_id, True,
                                    (("requests.worker_crashed", 1),))
            entry.hedge_id = None
            return self._finish(entry, wire_id, True,
                                (("hedge.issued", -1),))

    def settle(self, wire_id: int, failed: bool = False,
               execute_s: float | None = None) -> Verdict | None:
        """The worker's terminal message for ``wire_id`` — a reply, or
        (``failed``) a wire error.  None: the id is not out (a crash
        drain already took it).

        ``execute_s`` is the execute time a reply reports (an error's is
        ignored); it is what later copies of the workload are booked at.
        The estimate drops to a faster reply at once and rises a fifth of
        the way towards a slower one, so a cold compile or a stall is
        soon forgotten and a lasting slowdown is followed within a few
        replies."""
        with self._lock:
            entry = self._take(wire_id)
            if entry is None:
                return None
            if execute_s is not None and not failed:
                est = self._execute.get(entry.workload)
                self._execute[entry.workload] = (
                    execute_s if est is None or execute_s < est
                    else est + (execute_s - est) / 5)
            return self._finish(entry, wire_id, failed)

    def drain(self, worker: str) -> list[tuple[int, Verdict]]:
        """``worker`` is gone: every copy out on it fails, through the
        same funnel as a wire error — a request that already resolved is
        not failed again, one with a live copy elsewhere survives."""
        with self._lock:
            return [(wid, self._finish(self._take(wid), wid, True))
                    for wid in [wid for wid, entry in self._wire.items()
                                if entry.copies[wid] == worker]]

    def expire(self, entry: Entry) -> Verdict:
        """``entry``'s deadline fired: fail it now, cancel its copies."""
        with self._lock:
            return Verdict() if entry.request is None else \
                self._close(entry, EXPIRE)

    def pop_due(self) -> tuple[list[tuple[str, Entry]], float | None]:
        """Due-times that have come, as ``(kind, entry)`` in due order,
        and the seconds until the next one (None = nothing scheduled)."""
        with self._lock:
            now, due = self._clock(), []
            while self._due and (self._due[0][3].request is None
                                 or self._due[0][0] <= now):
                _, _, kind, entry = heapq.heappop(self._due)
                if entry.request is not None:
                    due.append((kind, entry))
            return due, (self._due[0][0] - now if self._due else None)

    # -- under the lock -------------------------------------------------

    def _arm(self, at: float, kind: str, entry: Entry) -> bool:
        moved = not self._due or at < self._due[0][0]
        heapq.heappush(self._due, (at, next(self._due_seq), kind, entry))
        return moved

    def _take(self, wire_id: int) -> Entry | None:
        """Remove one copy from the book — the only way out, so its
        admission slot, hedge-budget unit and share of its worker's
        backlog are given back exactly once."""
        entry = self._wire.pop(wire_id, None)
        if entry is not None:
            worker = entry.copies.pop(wire_id)
            self._admission.release(worker, entry.tenant)
            cost = self._cost.pop(wire_id)
            self._out[worker] -= 1
            # Exactly zero once nothing is out: no float residue to drift.
            self._load[worker] = (self._load[worker] - cost
                                  if self._out[worker] else 0.0)
            if wire_id == entry.hedge_id:
                self.hedges_out -= 1
        return entry

    def _finish(self, entry: Entry, wire_id: int, failed: bool,
                counters: tuple = ()) -> Verdict:
        """One copy came back: what that means for its request."""
        if entry.request is None:
            # The losing copy of a settled hedge pair.
            if entry.hedge_id is not None:
                counters += (("hedge.wasted", 1),)
        elif failed:
            if not entry.copies:    # else another copy may still answer
                return self._close(entry, FAIL, counters)
        elif entry.deadline is not None and self._clock() > entry.deadline:
            # A strict deadline is never answered late, at any boundary.
            return self._close(entry, LATE, counters)
        else:
            if wire_id == entry.hedge_id:
                counters += (("hedge.won", 1),)
            return self._close(entry, RESOLVE, counters)
        return Verdict(counters=counters)

    @staticmethod
    def _close(entry: Entry, action: str, counters: tuple = ()) -> Verdict:
        """The exactly-once latch: hand the Request to the caller and
        forget it."""
        request, entry.request = entry.request, None
        error = None
        if action in _EXPIRED:
            counter, why = _EXPIRED[action]
            counters += ((counter, 1),)
            error = TimeoutError(
                f"request for {entry.workload!r} " + why.format(request))
        return Verdict(action, request, error, tuple(
            (w, wid) for wid, w in entry.copies.items()), counters)
