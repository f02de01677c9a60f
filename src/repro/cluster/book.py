"""RequestBook: the one place a cluster request's lifecycle is decided.

A *logical* request is one client-held
:class:`~repro.serve.batching.Request` and one *wire copy* of it, out on
one worker under its wire id.  Replies, wire errors, crash drains, sends
that never left and deadline expiry all land here, under one lock, and
each is answered with a :class:`Verdict` telling the caller
(:class:`~repro.cluster.supervisor.ClusterSupervisor`) what to do now.
Which owner a new request goes to is the book's too (:meth:`route`):
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
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: Verdict actions: publish the reply the copy carried / a reply exists
#: but the budget is spent, withhold it / the deadline fired with the
#: copy still out / the budget died before dispatch / the copy failed,
#: publish its error.
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
#: :meth:`RequestBook.route` sends a new request past its primary only
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
    #: The worker its one wire copy went to; None until booked and
    #: again once that copy's terminal message (or a crash) is in.
    worker: str | None = None


class Verdict(NamedTuple):
    """What the caller must do after one event.  From :meth:`settle` and
    :meth:`drain` it also means the wire id is terminal; the last three
    fields are :meth:`issue`'s."""

    action: str | None = None
    request: object = None          # the client Request ``action`` is about
    error: Exception | None = None  # what a deadline verdict fails it with
    counters: tuple = ()            # ((metric name, delta), ...)
    wire_id: int | None = None      # the copy booked; None = refused
    head_moved: bool = False        # earliest deadline moved: wake the loop
    shed: str | None = None         # admission's refusal


class RequestBook:
    """Open requests, their wire copies, each worker's backlog and the
    deadline due-times."""

    def __init__(self, admission,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._admission = admission
        self._clock = clock
        self._lock = threading.Lock()
        self._wire_ids = itertools.count(1)
        #: The one index of copies out: wire id → entry (its worker is
        #: ``entry.worker``).
        self._wire: dict[int, Entry] = {}
        #: Heap of (deadline, seq, entry); settled entries are skipped.
        self._due: list[tuple[float, int, Entry]] = []
        self._due_seq = itertools.count()
        #: Expected execute seconds per workload, learned from replies.
        self._execute: dict[str, float] = {}
        #: What each copy out was booked at, and the sums by worker.
        self._cost: dict[int, float] = {}
        self._load: dict[str, float] = {}
        self._out: dict[str, int] = {}

    def open(self, request, workload: str, tenant: str, priority: int,
             deadline: float | None) -> Entry:
        return Entry(request, workload, tenant, priority, deadline)

    def backlog(self, worker: str) -> tuple[int, float]:
        """Copies out on ``worker`` and their expected execute seconds."""
        return self._out.get(worker, 0), self._load.get(worker, 0.0)

    def route(self, owners: list[str]) -> str:
        """Which of a workload's live ``owners`` (primary first) a new
        request goes to: the primary, unless it is behind the
        least-loaded other owner by more than ``SPILL_AFTER_S`` of
        expected execution *and* ``SPILL_AFTER_COPIES`` copies.  A worker
        runs warm requests one at a time, so with the primary always
        chosen a closed loop over two workloads whose primaries differ
        runs at about twice the slower worker's rate while the faster
        one idles; and a worker that turns slow keeps only the copies it
        already has.

        Read without the lock: a stale sum moves one routing decision at
        most, and the submitting thread must not queue behind the
        loop's ``settle``."""
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

    def issue(self, entry: Entry, worker: str) -> Verdict:
        """Admit ``entry`` on ``worker`` and book its wire copy, arming
        its deadline due-time."""
        with self._lock:
            shed = self._admission.admit(worker, entry.tenant,
                                         entry.priority)
            if shed is not None:
                return Verdict(shed=shed)
            if entry.deadline is not None and self._clock() >= entry.deadline:
                # The budget died on the supervisor (routing, queueing):
                # never dispatch a dead deadline.
                self._admission.release(worker, entry.tenant)
                return self._close(entry, DEAD)
            wire_id = next(self._wire_ids)
            entry.worker = worker
            self._wire[wire_id] = entry
            cost = self._cost[wire_id] = self._execute.get(entry.workload,
                                                           0.0)
            self._load[worker] = self._load.get(worker, 0.0) + cost
            self._out[worker] = self._out.get(worker, 0) + 1
            moved = entry.deadline is not None and (
                not self._due or entry.deadline < self._due[0][0])
            if entry.deadline is not None:
                heapq.heappush(self._due, (entry.deadline,
                                           next(self._due_seq), entry))
            return Verdict(request=entry.request, wire_id=wire_id,
                           head_moved=moved)

    def retract(self, wire_id: int) -> Verdict | None:
        """A send that never left the supervisor: un-book the copy and
        fail the request.  None: a crash drain got there first."""
        with self._lock:
            entry = self._take(wire_id)
            return None if entry is None else self._finish(
                entry, True, (("requests.worker_crashed", 1),))

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
            return self._finish(entry, failed)

    def drain(self, worker: str) -> list[tuple[int, Verdict]]:
        """``worker`` is gone: every copy out on it fails, through the
        same funnel as a wire error — a request that already settled
        (expired) is not failed again."""
        with self._lock:
            return [(wid, self._finish(self._take(wid), True))
                    for wid in [wid for wid, entry in self._wire.items()
                                if entry.worker == worker]]

    def expire(self, entry: Entry) -> Verdict:
        """``entry``'s deadline fired: fail it now.  Its copy stays
        booked until the worker's terminal message for it."""
        with self._lock:
            return Verdict() if entry.request is None else \
                self._close(entry, EXPIRE)

    def pop_due(self) -> tuple[list[Entry], float | None]:
        """Entries whose deadline has come, in deadline order, and the
        seconds until the next one (None = nothing scheduled)."""
        with self._lock:
            now, due = self._clock(), []
            while self._due and (self._due[0][2].request is None
                                 or self._due[0][0] <= now):
                entry = heapq.heappop(self._due)[2]
                if entry.request is not None:
                    due.append(entry)
            return due, (self._due[0][0] - now if self._due else None)

    # -- under the lock -------------------------------------------------

    def _take(self, wire_id: int) -> Entry | None:
        """Remove the copy from the book — the only way out, so its
        admission slot and share of its worker's backlog are given back
        exactly once."""
        entry = self._wire.pop(wire_id, None)
        if entry is not None:
            worker, entry.worker = entry.worker, None
            self._admission.release(worker, entry.tenant)
            cost = self._cost.pop(wire_id)
            self._out[worker] -= 1
            # Exactly zero once nothing is out: no float residue to drift.
            self._load[worker] = (self._load[worker] - cost
                                  if self._out[worker] else 0.0)
        return entry

    def _finish(self, entry: Entry, failed: bool,
                counters: tuple = ()) -> Verdict:
        """The copy came back: what that means for its request."""
        if entry.request is None:       # expired while the copy was out
            return Verdict(counters=counters)
        if failed:
            return self._close(entry, FAIL, counters)
        if entry.deadline is not None and self._clock() > entry.deadline:
            # A strict deadline is never answered late, at any boundary.
            return self._close(entry, LATE, counters)
        return self._close(entry, RESOLVE, counters)

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
        return Verdict(action, request, error, counters)
