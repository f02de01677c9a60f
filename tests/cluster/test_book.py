"""The request book, driven without a fork, a thread or a sleep.

A hypothesis state machine plays the supervisor shell against
:class:`repro.cluster.book.RequestBook` on a virtual clock — open,
issue, retract, reply, wire error, crash-drain, advance the clock and
pop what is due, in any order, under up to three tenants — and checks
the delivery invariants, each worker's backlog and its admission counts
(per worker and per tenant) after every step.  Beside the book it drives
each worker's :class:`repro.cluster.arena.SlotArena` the way the supervisor
does (a slot per copy sent, released on its terminal message or retract,
all of them after a crash) and checks the slot book too.  Named examples below it pin
the deadline timer, routing and the memory rule; the completion races
are in ``test_deadlines.py``.
"""

import collections
import gc
import math
import pathlib
import subprocess
import sys
import weakref

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import AdmissionPolicy
from repro.cluster import book as bk
from repro.cluster.arena import ARENA_SLOTS, SlotArena
from repro.cluster.book import RequestBook
from repro.serve import Request, WorkerCrashed

WORKERS = ("wa", "wb", "wc")
TENANTS = ("ta", "tb", "tc")
#: "Any one of the candidates": an index, wrapped to however many there
#: are when the rule runs (cheaper to generate than ``st.data()`` draws).
PICK = st.integers(min_value=0, max_value=31)
#: One page per slot: the small feeds fit, the large ones go in-band.
SLOT_BYTES = 4096
FEEDS = {False: {"x": np.arange(4.0)}, True: {"x": np.zeros(1024)}}


def pick_from(candidates: list, pick: int):
    return candidates[pick % len(candidates)]


class Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class Shell:
    """What ``ClusterSupervisor`` does with a verdict, minus the I/O."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.clock = Clock()
        self.counters = collections.Counter()
        self.book = RequestBook(policy, self.clock)

    def open(self, timeout=None, tenant="default"):
        request = Request(workload="mlp", feeds={}, timeout_s=timeout)
        deadline = None if timeout is None else self.clock.now + timeout
        return self.book.open(request, "mlp", tenant, deadline), request

    def carry_out(self, verdict, error=None):
        for name, by in verdict.counters:
            self.counters[name] += by
        if verdict.action == bk.RESOLVE:
            verdict.request.resolve("reply")
        elif verdict.action is not None:
            assert (verdict.error is None) == (verdict.action == bk.FAIL)
            verdict.request.fail(verdict.error or error)
        return verdict


class BookMachine(RuleBasedStateMachine):
    @initialize(execute_s=st.sampled_from([0.0005, 0.004, 0.3]),
                tenants=st.integers(min_value=1, max_value=len(TENANTS)))
    def boot(self, execute_s, tenants):
        #: The tenants this run's requests are opened under.
        self.tenants = TENANTS[:tenants]
        self.policy = AdmissionPolicy(max_outstanding_per_worker=3,
                                      tenant_share=2)
        self.shell = Shell(self.policy)
        self.book = self.shell.book
        # One reply before the client's requests, so every copy they
        # book carries a non-zero expected execute time.
        wire_id = self.book.issue(self.shell.open()[0], "wa").wire_id
        self.shell.carry_out(self.book.settle(wire_id, execute_s=execute_s))
        #: One record per logical request the "client" holds.
        self.reqs = []
        #: Copies out, as the shell believes: wire id → (record, worker).
        self.live = {}
        #: What each copy out added to its worker's backlog when booked.
        self.cost = {}
        self.terminal = set()
        #: Each worker's arena, and the copies whose feeds went in a slot.
        self.arenas = {w: SlotArena(SLOT_BYTES) for w in WORKERS}
        self.slotted = set()

    # -- the shell's side of each event ----------------------------------

    def copies_of(self, rec):
        return {wid for wid, (r, _) in self.live.items() if r is rec}

    def out_on(self, worker):
        """The copies the shell has out on ``worker``, by tenant and in
        all (under ``None``)."""
        out = collections.Counter(r["entry"].tenant
                                  for r, w in self.live.values()
                                  if w == worker)
        out[None] = sum(out.values())
        return out

    def apply(self, verdict, rec, error=None):
        """Carry out a verdict about ``rec``, checking what it publishes."""
        deadline = rec["entry"].deadline
        if verdict.action == bk.RESOLVE:
            assert deadline is None or self.shell.clock.now <= deadline, \
                "payload published past its deadline"
        if verdict.action == bk.FAIL:
            assert not self.copies_of(rec), \
                "error published while the copy is still out"
        if verdict.action is not None:
            assert verdict.request is rec["request"]
        self.shell.carry_out(verdict, error)

    def take(self, wire_id):
        rec, _ = self.live.pop(wire_id)
        del self.cost[wire_id]
        return rec

    def finish(self, wire_id, verdict, error=None):
        """A verdict from settle/drain: the wire id is terminal."""
        assert wire_id not in self.terminal, "wire id terminal twice"
        self.terminal.add(wire_id)
        self.apply(verdict, self.take(wire_id), error)

    # -- rules ------------------------------------------------------------

    @rule(timeout=st.sampled_from([None, 0.0, 0.04, 0.2, 5.0]), pick=PICK)
    def open(self, timeout, pick):
        entry, request = self.shell.open(timeout,
                                         pick_from(self.tenants, pick))
        self.reqs.append({"entry": entry, "request": request,
                          "state": "open"})

    @precondition(lambda self: any(r["state"] == "open" for r in self.reqs))
    @rule(pick=PICK, worker=st.sampled_from(WORKERS), large=st.booleans())
    def issue(self, pick, worker, large):
        rec = pick_from([r for r in self.reqs if r["state"] == "open"], pick)
        load_before = self.book.backlog(worker)[1]
        out = self.out_on(worker)
        verdict = self.book.issue(rec["entry"], worker)
        if out[None] == self.policy.max_outstanding_per_worker:
            assert verdict.shed == bk.SHED_CAPACITY
        elif out[rec["entry"].tenant] == \
                self.policy.tenant_share:
            assert verdict.shed == bk.SHED_TENANT
        else:
            assert verdict.shed is None
        if verdict.shed is not None:        # the shell raises ClusterShed
            rec["state"] = "shed"
            assert verdict.wire_id is None and verdict.action is None
            return
        rec["state"] = "issued"
        assert verdict.head_moved <= (rec["entry"].deadline is not None)
        if verdict.wire_id is None:
            assert verdict.action == bk.DEAD
        else:
            assert verdict.action is None
            self.live[verdict.wire_id] = (rec, worker)
            placed = self.arenas[worker].put(verdict.wire_id, FEEDS[large])
            assert (placed is None) == large
            if placed is not None:
                self.slotted.add(verdict.wire_id)
            self.cost[verdict.wire_id] = (self.book.backlog(worker)[1]
                                          - load_before)
            assert self.cost[verdict.wire_id] >= 0.0
        self.apply(verdict, rec)

    @precondition(lambda self: self.live)
    @rule(pick=PICK)
    def retract(self, pick):
        wire_id = pick_from(sorted(self.live), pick)
        worker = self.live[wire_id][1]
        rec = self.take(wire_id)
        self.arenas[worker].release(wire_id)    # the copy never left
        self.apply(self.book.retract(wire_id), rec,
                   WorkerCrashed(worker, "pipe broke at dispatch"))
        assert self.book.retract(wire_id) is None

    @precondition(lambda self: self.live)
    @rule(pick=PICK, failed=st.booleans(),
          execute_s=st.sampled_from([0.0005, 0.004, 0.3]))
    def terminal_message(self, pick, failed, execute_s):
        wire_id = pick_from(sorted(self.live), pick)
        arena = self.arenas[self.live[wire_id][1]]
        self.finish(wire_id, self.book.settle(wire_id, failed, execute_s),
                    RuntimeError("wire error"))
        arena.release(wire_id)
        assert self.book.settle(wire_id, failed, execute_s) is None
        arena.release(wire_id)                  # a second release: no-op

    @rule(worker=st.sampled_from(WORKERS))
    def crash(self, worker):
        drained = self.book.drain(worker)
        assert {wid for wid, _ in drained} == {
            wid for wid, (_, w) in self.live.items() if w == worker}
        for wire_id, verdict in drained:
            self.finish(wire_id, verdict, WorkerCrashed(worker, "died"))
        self.arenas[worker].release_all()       # reaped: nothing reads them
        assert self.arenas[worker].held() == {}

    @rule(dt=st.sampled_from([0.03, 0.05, 0.2, 10.0]))
    def advance(self, dt):
        self.shell.clock.now += dt      # the timer thread has not run yet

    @rule()
    def timer(self):
        due, delay = self.book.pop_due()
        assert delay is None or delay > 0
        for entry in due:
            rec = next(r for r in self.reqs if r["entry"] is entry)
            assert not rec["request"].resolutions     # settled: skipped
            assert self.shell.clock.now >= entry.deadline
            self.apply(self.book.expire(entry), rec)

    # -- invariants -------------------------------------------------------

    @invariant()
    def exactly_once(self):
        for rec in self.reqs:
            n = rec["request"].resolutions
            assert n <= 1, "client Request resolved twice"
            assert len(self.copies_of(rec)) <= 1, "a second wire copy"
            if rec["state"] == "issued" and not self.copies_of(rec):
                assert n == 1, "no copy out, yet the client still waits"
            if rec["state"] != "issued":
                assert n == 0

    @invariant()
    def books_balance(self):
        for worker in WORKERS:
            mine = [wid for wid, (_, w) in self.live.items() if w == worker]
            expected = self.out_on(worker)
            out, load = self.book.backlog(worker)
            assert out == len(mine) == expected[None]
            assert out <= self.policy.max_outstanding_per_worker
            for tenant in ("default", *TENANTS):
                held = self.book._tenant_out.get((worker, tenant), 0)
                assert held == expected[tenant]
                assert held <= self.policy.tenant_share
            assert math.isclose(load, sum(self.cost[w] for w in mine),
                                abs_tol=1e-9)
            if not mine:
                assert load == 0.0, "backlog left behind by a copy"

    @invariant()
    def slots_balance(self):
        """Held + free is every slot, each once; a held slot belongs to
        exactly one copy the book has out on that worker, and every copy
        out that was given a slot still holds it."""
        for worker, arena in self.arenas.items():
            held = arena.held()
            assert sorted([*held.values(), *arena._free]) \
                == list(range(ARENA_SLOTS))
            out = {wid for wid, (_, w) in self.live.items() if w == worker}
            assert set(held) == out & self.slotted

    def teardown(self):
        for worker in WORKERS:
            self.crash(worker)
        self.exactly_once()
        self.slots_balance()
        assert not self.live
        assert all(self.book.backlog(w) == (0, 0.0) for w in WORKERS)
        assert not self.book._tenant_out, "a tenant count left behind"
        for arena in self.arenas.values():
            arena.close()


# Pinned, not inherited: the tier-1 budget is >= 1,000 interleavings
# whatever HYPOTHESIS_PROFILE says (CI's profile caps unpinned tests at 20).
TestBookMachine = BookMachine.TestCase
TestBookMachine.settings = settings(max_examples=1000, stateful_step_count=14,
                                    deadline=None)


class TestDeadlineTimer:
    def test_timer_woken_only_when_the_earliest_due_time_moves(self):
        shell = Shell()
        moved = [shell.book.issue(shell.open(timeout=t)[0], "wa").head_moved
                 for t in (5.0, 9.0, 5.0, 2.0, None)]
        assert moved == [True, False, False, True, False]


class TestRouting:
    """Where a new original goes, from the backlog the book keeps."""

    @staticmethod
    def teach(shell, execute_s):
        """One copy out on ``wc`` and back, reporting ``execute_s``."""
        wire_id = shell.book.issue(shell.open()[0], "wc").wire_id
        shell.carry_out(shell.book.settle(wire_id, execute_s=execute_s))

    def out_on(self, shell, worker, n):
        for _ in range(n):
            shell.book.issue(shell.open()[0], worker)

    def test_estimate_drops_at_once_and_rises_a_fifth(self):
        shell = Shell()
        booked = []
        for execute_s in (0.5, 0.002, 0.012, 0.0005):
            self.teach(shell, execute_s)
            before = shell.book.backlog("wa")[1]
            self.out_on(shell, "wa", 1)
            booked.append(shell.book.backlog("wa")[1] - before)
        assert [round(b, 9) for b in booked] == [0.5, 0.002, 0.004, 0.0005]

    def test_a_failed_copy_teaches_nothing(self):
        shell = Shell()
        self.teach(shell, 0.002)
        wire_id = shell.book.issue(shell.open()[0], "wa").wire_id
        shell.carry_out(shell.book.settle(wire_id, failed=True,
                                          execute_s=1.0),
                        RuntimeError("wire error"))
        self.out_on(shell, "wa", 1)
        assert shell.book.backlog("wa") == (1, 0.002)

    def test_primary_keeps_requests_until_far_enough_behind(self):
        shell = Shell()
        self.teach(shell, 0.002)
        pair = ["wa", "wb"]
        self.out_on(shell, "wa", 2)         # 4 ms out: not past 5 ms
        assert shell.book.route(pair) == "wa"
        self.out_on(shell, "wa", 1)         # 6 ms, three copies
        assert shell.book.route(pair) == "wb"
        self.out_on(shell, "wb", 1)         # 4 ms ahead of wb: keep wa
        assert shell.book.route(pair) == "wa"
        assert shell.book.route(["wa"]) == "wa"     # no other live owner

    def test_sub_millisecond_plans_stay_on_their_primary(self):
        shell = Shell()
        self.teach(shell, 0.0005)
        self.out_on(shell, "wa", 8)         # a closed loop's window: 4 ms
        assert shell.book.backlog("wa")[0] == 8
        assert shell.book.route(["wa", "wb"]) == "wa"

    def test_two_slow_copies_never_move_the_next(self):
        shell = Shell()
        self.teach(shell, 2.0)              # e.g. a reply that compiled
        for _ in range(2):
            self.out_on(shell, "wa", 1)
            assert shell.book.route(["wa", "wb"]) == "wa"
        self.out_on(shell, "wa", 1)
        assert shell.book.route(["wa", "wb"]) == "wb"

    def test_a_primary_turning_slow_spills_to_its_replica(self):
        """No second copy rescues a request stuck on a slow worker; the
        next ones go elsewhere once its replies teach the slowdown."""
        shell = Shell()
        self.teach(shell, 0.0005)
        self.out_on(shell, "wa", 3)         # 1.5 ms out: stays
        assert shell.book.route(["wa", "wb"]) == "wa"
        self.teach(shell, 0.040)            # a slow reply: estimate 8.4 ms
        self.out_on(shell, "wa", 1)
        assert shell.book.route(["wa", "wb"]) == "wb"

    def test_least_loaded_spare_of_several(self):
        shell = Shell()
        self.teach(shell, 0.004)
        self.out_on(shell, "wa", 3)
        self.out_on(shell, "wb", 1)
        assert shell.book.route(["wa", "wb", "wc"]) == "wc"


class TestSettledEntriesPinNothing:
    def test_request_collectable_once_resolved_with_deadline_ahead(self):
        shell = Shell()
        entry, request = shell.open(timeout=30.0)
        wire_id = shell.book.issue(entry, "wa").wire_id
        shell.carry_out(shell.book.settle(wire_id))
        ref = weakref.ref(request)
        del request
        gc.collect()
        assert ref() is None
        # Its deadline was still booked; it is dropped unfired.
        assert shell.book.pop_due() == ([], None)

    def test_settled_due_times_at_the_head_do_not_delay_the_next(self):
        shell = Shell()
        first, _ = shell.open(timeout=1.0)
        second, _ = shell.open(timeout=2.0)
        wire_id = shell.book.issue(first, "wa").wire_id
        shell.book.issue(second, "wa")
        shell.book.settle(wire_id)
        assert shell.book.pop_due() == ([], 2.0)


class TestLayering:
    def test_importing_the_book_loads_no_process_machinery(self):
        code = ("import sys, repro.cluster.book; "
                "bad = sorted({'multiprocessing', 'signal', "
                "'repro.cluster.worker', 'repro.cluster.arena', "
                "'repro.cluster.supervisor'} & set(sys.modules)); "
                "assert not bad, bad")
        src = pathlib.Path(__file__).parent.parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={"PYTHONPATH": str(src), "PATH": ""},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_book_source_has_no_thread_sleep_or_send(self):
        source = pathlib.Path(bk.__file__).read_text()
        for needle in ("Thread(", "sleep(", ".send("):
            assert needle not in source, needle
