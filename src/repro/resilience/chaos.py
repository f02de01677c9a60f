"""Chaos harness: seeded fault schedules against a live serving target.

One harness core — :class:`Run` (traffic, reference compare, verdict
tallies), :class:`Flight`, :class:`ChaosReport`, :func:`wait_until` and
the table-driven :func:`fault_invariants` — and two targets that are
only *phase scripts* over it: :func:`run_chaos` below (a live
``FusionServer``) and :func:`repro.resilience.cluster_chaos.run_cluster_chaos`
(a forked worker fleet, ``repro chaos --cluster``).

``repro chaos --seed S [--faults plan.json]`` stands up a real serving
stack — disk-backed tiered schedule cache, compiled execution engine,
dynamic batcher, bounded admission queue, circuit breaker — arms the
registered failpoints phase by phase, drives client traffic through it,
and asserts the end-to-end invariants the resilience layer promises:

* **answered exactly once** — every accepted request completes with
  exactly one resolution (no lost or duplicated replies);
* **all answers correct** — every reply's outputs are finite and match
  the unfused reference kernels to 1e-8;
* **drains clean** — after ``stop()`` the queue is empty and nothing is
  left pending;
* **faults were really exercised** — the run must show at least one
  compile/lowering retry, one breaker open → half-open → close recovery
  cycle, one load shed, one plan quarantine, and one disk-tier error
  absorbed as a miss; a chaos run whose faults never fired proves
  nothing.

The report (``BENCH_robustness.json`` by default) records the fault
plan, per-phase request counts, exercised-fault evidence, and the full
metrics snapshot; the fleet target's run lands in its ``cluster``
section, and either mode's write keeps the other's section.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..core.serialize import ScheduleCache
from ..hw import get_gpu
from ..models import layernorm_graph, mlp_graph
from ..runtime.kernels import execute_graph_reference, random_feeds
from ..runtime.oracle import outputs_match
from ..serve import (
    FusionServer,
    InferenceSession,
    Overloaded,
    ServeMetrics,
    TieredScheduleCache,
)
from . import faults
from .retry import CircuitBreaker, RetryPolicy

#: Purpose-built small workloads: the harness exercises failure paths,
#: not kernels, so compile and execute must both be quick.
CHAOS_WORKLOADS = {
    "mlp": lambda: mlp_graph(3, 64, 32, 48, name="chaos_mlp"),
    "layernorm": lambda: layernorm_graph(48, 64, name="chaos_ln"),
}

#: The canned fault plan: one entry per registered failpoint family,
#: grouped into the phase of the run that arms it.
DEFAULT_FAULT_PLAN = [
    {"failpoint": "serve.cache.disk_get", "action": "fail_n_times(1)",
     "phase": "compile"},
    {"failpoint": "serve.cache.disk_put", "action": "fail_n_times(1)",
     "phase": "compile"},
    {"failpoint": "serve.cache.compile", "action": "fail_n_times(1)",
     "phase": "compile"},
    {"failpoint": "compile.autotune", "action": "fail_n_times(1)",
     "phase": "compile"},
    {"failpoint": "runtime.lower", "action": "fail_n_times(1)",
     "phase": "compile"},
    {"failpoint": "runtime.execute", "action": "fail_n_times(3)",
     "phase": "breaker"},
    {"failpoint": "runtime.poison", "action": "fail_n_times(1)",
     "phase": "quarantine"},
    {"failpoint": "serve.batch", "action": "delay(25)",
     "phase": "overload"},
]

#: Phases a fault plan may target, in execution order.
PHASES = ("compile", "steady", "breaker", "quarantine", "overload", "drain")

#: Slack added to a deadline before a completion counts as "late": the
#: supervisor's expiry/publish gates run on its loop thread, so a reply
#: can legitimately land a scheduling quantum after the exact deadline
#: while still having been *decided* before it.
DEADLINE_SLACK_S = 0.1

#: The server target's rows for :func:`fault_invariants`.
SERVER_FAULTS = (
    ("retry_exercised", (("compile_retries", "lower_retries"),),
     "compile retries: {compile_retries}, lowering retries: "
     "{lower_retries}"),
    ("breaker_cycle_exercised", (("breaker_cycles",),),
     "open→half-open→close cycles: {breaker_cycles}"),
    ("shed_exercised", (("sheds",),), "load sheds: {sheds}"),
    ("quarantine_exercised", (("quarantines",),),
     "plans quarantined: {quarantines}"),
    ("disk_errors_absorbed", (("disk_errors",),),
     "disk-tier errors counted as misses: {disk_errors}"),
)


class ChaosError(Exception):
    """Raised when the harness cannot run its plan (bad plan, unknown
    workload, a fault that could not be armed)."""


def load_fault_plan(path: str) -> list[dict]:
    """Read a fault plan from JSON: either a bare list of entries or an
    object with a ``"faults"`` key; each entry needs ``failpoint``,
    ``action``, and ``phase``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data.get("faults") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ChaosError(f"fault plan {path!r}: expected a list of faults")
    for entry in entries:
        for key in ("failpoint", "action", "phase"):
            if key not in entry:
                raise ChaosError(
                    f"fault plan {path!r}: entry {entry!r} missing {key!r}")
        if entry["phase"] not in PHASES:
            raise ChaosError(
                f"fault plan {path!r}: unknown phase {entry['phase']!r}; "
                f"expected one of {PHASES}")
    return entries


@dataclass
class Invariant:
    name: str
    ok: bool
    detail: str = ""


def fault_invariants(exercised: dict, table) -> list[Invariant]:
    """One "fault X was exercised >= 1" invariant per ``table`` row:
    (invariant name, groups of ``exercised`` keys — each group's sum
    must reach 1, detail template over ``exercised``)."""
    return [Invariant(name,
                      all(sum(exercised[k] for k in group) >= 1
                          for group in groups),
                      detail.format(**exercised))
            for name, groups, detail in table]


def wait_until(predicate, timeout: float = 20.0,
               interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the verdicts.

    ``mode`` is ``"server"`` or ``"cluster"``; ``sections`` holds the
    target's own report entries (fault plan and health for the server,
    restarts and fleet metrics for the cluster) and is emitted as is.
    """

    mode: str
    seed: int
    sections: dict = field(default_factory=dict)
    #: Requests attempted per phase, then the run's totals.
    requests: dict[str, int] = field(default_factory=dict)
    exercised: dict[str, int] = field(default_factory=dict)
    invariants: list[Invariant] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def to_dict(self) -> dict:
        data = {
            "experiment": "chaos",
            "seed": self.seed,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
            "exercised": self.exercised,
            "invariants": [{"name": i.name, "ok": i.ok, "detail": i.detail}
                           for i in self.invariants],
            **self.sections,
        }
        if self.mode == "cluster":
            data.update(mode="cluster", phases=self.requests)
        else:
            data["requests"] = self.requests
        return data

    def write(self, path: str) -> None:
        """Read-merge-write: a server run owns the file's top-level keys,
        a cluster run its ``cluster`` section, and neither drops the
        other's.  An unreadable or non-dict file is replaced."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if not isinstance(existing, dict):
            existing = {}
        if self.mode == "cluster":
            data = existing
            data.setdefault("experiment", "chaos")
            data["cluster"] = self.to_dict()
        else:
            data = self.to_dict()
            if "cluster" in existing:
                data["cluster"] = existing["cluster"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        lines = [f"{self.mode} chaos run: seed={self.seed} "
                 f"({self.elapsed_s:.2f}s)",
                 "requests per phase:"]
        for name, count in self.requests.items():
            lines.append(f"  {name:<24} {count}")
        lines.append("faults exercised:")
        for name in sorted(self.exercised):
            lines.append(f"  {name:<24} {self.exercised[name]}")
        lines.append("invariants:")
        for inv in self.invariants:
            mark = "PASS" if inv.ok else "FAIL"
            detail = f" — {inv.detail}" if inv.detail else ""
            lines.append(f"  [{mark}] {inv.name}{detail}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


class Flight:
    """One accepted request plus everything needed to judge it later."""

    __slots__ = ("request", "workload", "seed", "phase", "deadline_wall",
                 "done_at", "expect")

    def __init__(self, workload: str, seed: int, phase: str,
                 deadline_wall: float | None, expect: tuple) -> None:
        self.request = None
        self.workload = workload
        self.seed = seed
        self.phase = phase
        #: Absolute monotonic deadline this request was submitted under.
        self.deadline_wall = deadline_wall
        #: Monotonic completion time, stamped by the ``on_done`` hook.
        self.done_at: float | None = None
        #: Exception types that count as an *expected* typed failure in
        #: this phase (anything else failing is an invariant violation).
        self.expect = expect


class Run:
    """One chaos run's mutable state: traffic in, verdict tallies out.

    ``submit(workload, feeds, timeout=..., on_done=...)`` is the target
    (``FusionServer.submit`` or ``ClusterSupervisor.submit``) and
    ``shed_exc`` the typed exception its admission control sheds with.
    """

    def __init__(self, submit, shed_exc, graphs: dict,
                 ref_seeds: int) -> None:
        self._submit = submit
        self._shed_exc = shed_exc
        self.graphs = graphs
        self.references = {
            name: [execute_graph_reference(g, random_feeds(g, seed=s))
                   for s in range(ref_seeds)]
            for name, g in graphs.items()
        }
        self.lock = threading.Lock()
        self.flights: list[Flight] = []
        self.phases: dict[str, int] = {}
        self.submitted = 0
        self.shed = 0
        self.wrong: list[str] = []
        self.unexpected: list[str] = []
        self.late: list[str] = []

    def phase(self, name: str, fn, *args) -> None:
        """Run one phase script, recording how many requests it tried."""
        before = self.submitted
        fn(*args)
        self.phases[name] = self.submitted - before

    # -- traffic --------------------------------------------------------

    def submit(self, workload: str, seed: int, phase: str,
               timeout: float | None = None,
               expect: tuple = ()) -> Flight | None:
        """Submit one request; None when admission shed it (tallied)."""
        seed %= len(self.references[workload])
        feeds = random_feeds(self.graphs[workload], seed=seed)
        flight = Flight(workload, seed, phase,
                        None if timeout is None
                        else time.monotonic() + timeout, expect)

        def stamp(_request) -> None:
            flight.done_at = time.monotonic()

        with self.lock:
            self.submitted += 1
        try:
            flight.request = self._submit(workload, feeds, timeout=timeout,
                                          on_done=stamp)
        except self._shed_exc:
            with self.lock:
                self.shed += 1
            return None
        with self.lock:
            self.flights.append(flight)
        return flight

    def infer(self, workload: str, seed: int, phase: str,
              timeout: float | None = None, expect: tuple = (),
              wait: float = 60.0) -> Flight | None:
        """Submit-and-judge; None (nothing to judge) when shed."""
        flight = self.submit(workload, seed, phase, timeout=timeout,
                             expect=expect)
        if flight is not None:
            self.check(flight, wait=wait)
        return flight

    # -- judging --------------------------------------------------------

    def _note(self, tally: list[str], flight: Flight, what: str) -> None:
        with self.lock:
            tally.append(f"[{flight.phase}] request "
                         f"{flight.request.seq}: {what}")

    def check(self, flight: Flight, wait: float = 60.0) -> None:
        """Wait for one flight and judge its outcome against the phase's
        expectations, its deadline and the float64 reference."""
        try:
            reply = flight.request.result(timeout=wait)
        except Exception as exc:  # noqa: BLE001 — judged here
            if not isinstance(exc, flight.expect):
                self._note(self.unexpected, flight,
                           f"{type(exc).__name__}: {exc}")
            return
        if (flight.deadline_wall is not None and flight.done_at is not None
                and flight.done_at > flight.deadline_wall
                + DEADLINE_SLACK_S):
            self._note(self.late, flight,
                       f"answered {flight.done_at - flight.deadline_wall:.3f}"
                       f"s past its deadline")
        expected = self.references[flight.workload][flight.seed]
        if not outputs_match(reply.outputs, expected, 1e-8):
            self._note(self.wrong, flight,
                       "an output is missing, non-finite or off the "
                       "reference by more than 1e-8")

    def check_all_pending(self, wait: float = 60.0) -> None:
        with self.lock:
            pending = [f for f in self.flights if not f.request.done()]
        for flight in pending:
            self.check(flight, wait=wait)

    # -- verdicts -------------------------------------------------------

    def unresolved(self) -> list[int]:
        return [f.request.seq for f in self.flights
                if not f.request.done()]

    def exactly_once(self, name: str) -> Invariant:
        unresolved = self.unresolved()
        multi = [f.request.seq for f in self.flights
                 if f.request.resolutions != 1]
        return Invariant(
            name, not unresolved and not multi,
            f"unresolved={unresolved[:5]} multi={multi[:5]}"
            if unresolved or multi else
            f"{len(self.flights)} accepted requests, one resolution each")

    def correct(self, name: str) -> Invariant:
        bad = self.wrong + self.unexpected
        return Invariant(
            name, not bad,
            "; ".join(bad[:5])
            or "every answer finite and equal to the float64 reference; "
               "every failure a typed, phase-expected error")

    def on_time(self, name: str) -> Invariant:
        return Invariant(
            name, not self.late,
            "; ".join(self.late[:5])
            or "no deadline-bearing request was answered past its budget")

    def request_counts(self) -> dict[str, int]:
        return {**self.phases, "submitted": self.submitted,
                "shed": self.shed}


def _plan_by_phase(plan: list[dict]) -> dict[str, dict[str, str]]:
    known = faults.registry().known()
    by_phase: dict[str, dict[str, str]] = {p: {} for p in PHASES}
    for entry in plan:
        name = entry["failpoint"]
        if name not in known:
            raise ChaosError(
                f"fault plan names unknown failpoint {name!r}; "
                f"registered: {sorted(known)}")
        by_phase[entry["phase"]][name] = entry["action"]
    return by_phase


def run_chaos(seed: int = 0, requests: int = 200, workload: str = "mlp",
              fault_plan: list[dict] | None = None,
              breaker_threshold: int = 3,
              breaker_reset_s: float = 0.05,
              queue_depth: int = 8,
              workers: int = 2,
              report_path: str | None = None) -> ChaosReport:
    """Run the full chaos schedule; returns the report (never raises for
    invariant violations — the caller checks ``report.ok``)."""
    if workload not in CHAOS_WORKLOADS:
        raise ChaosError(f"unknown chaos workload {workload!r}; "
                         f"expected one of {sorted(CHAOS_WORKLOADS)}")
    plan = fault_plan if fault_plan is not None else DEFAULT_FAULT_PLAN
    by_phase = _plan_by_phase(plan)
    registry = faults.registry()
    registry.seed(seed)

    graph = CHAOS_WORKLOADS[workload]()
    wl = graph.name
    metrics = ServeMetrics()
    t_start = time.perf_counter()

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        cache = TieredScheduleCache(
            disk=ScheduleCache(tmpdir), metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.002,
                                     max_delay_s=0.02, seed=seed))
        breaker = CircuitBreaker(failure_threshold=breaker_threshold,
                                 reset_timeout_s=breaker_reset_s)
        session = InferenceSession(graph, get_gpu("ampere"), cache=cache,
                                   metrics=metrics, breaker=breaker)
        server = FusionServer({wl: session}, workers=workers,
                              max_batch=8, max_wait_ms=1.0,
                              metrics=metrics, max_queue_depth=queue_depth)
        run = Run(server.submit, Overloaded, {wl: graph}, ref_seeds=8)

        def answer(i: int, phase: str) -> None:
            # Submit-and-wait; a shed is retried until accepted.
            while run.infer(wl, i, phase) is None:
                time.sleep(0.002)

        def run_phase(name: str, fn, *args) -> None:
            with registry.armed(by_phase[name]):
                run.phase(name, fn, *args)

        # Phase budget: the special phases have fixed shapes; everything
        # left over becomes steady/drain traffic.
        burst = 6 * queue_depth
        special = 1 + (breaker_threshold + 4) + 1 + burst
        leftover = max(0, requests - special)
        steady_n = leftover // 2

        def phase_compile() -> None:
            # Faults on the cold path: disk read error, one failed
            # compile attempt (retried), one failed autotune campaign
            # (also absorbed by the retry), one failed lowering
            # (retried), disk write error.  The first request must still
            # be answered correctly.
            server.start()
            answer(0, "compile")

        def phase_steady(name: str, count: int) -> None:
            clients = min(4, max(1, count))

            def client(cid: int) -> None:
                for i in range(cid, count, clients):
                    answer(i, name)

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        def phase_breaker() -> None:
            # `fail_n_times(threshold)` on runtime.execute: each failure
            # is answered via the reference, the breaker opens on the
            # last one.  Requests while open degrade immediately; after
            # the reset timeout one half-open probe succeeds (the
            # failpoint is exhausted) and the breaker closes.
            for i in range(breaker_threshold):
                answer(i, "breaker")
            for i in range(3):
                answer(i, "breaker")      # breaker open → reference path
            time.sleep(breaker_reset_s * 1.5)
            answer(0, "breaker")          # half-open probe → close

        def phase_overload() -> None:
            # Workers stalled by the serve.batch delay; a concurrent
            # burst well past the queue bound must shed.  Shed requests
            # never enqueue; accepted ones all complete after the phase.
            for _attempt in range(5):
                before = run.shed
                threads = [threading.Thread(target=run.submit,
                                            args=(wl, i, "overload"))
                           for i in range(burst)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                if run.shed > before:
                    break
            run.check_all_pending()

        run_phase("compile", phase_compile)
        run_phase("steady", phase_steady, "steady", steady_n)
        run_phase("breaker", phase_breaker)
        run_phase("quarantine", answer, 0, "quarantine")
        run_phase("overload", phase_overload)
        run_phase("drain", phase_steady, "drain", leftover - steady_n)

        run.check_all_pending()
        server.stop(drain=True)
        queue_left = server.queue.depth()

        exercised = {
            "compile_retries": metrics.get("cache.compile_retries"),
            "lower_retries": metrics.get("lower.retries"),
            "breaker_cycles": breaker.cycles,
            "sheds": run.shed,
            "quarantines": metrics.get("plans.quarantined"),
            "disk_errors": metrics.get("cache.disk_errors"),
        }
        report = ChaosReport(
            mode="server", seed=seed,
            sections={
                "workload": workload, "fault_plan": plan,
                "breaker_transitions": [list(t)
                                        for t in breaker.transitions],
                "health": server.health(), "metrics": metrics.snapshot(),
            },
            requests={**run.request_counts(),
                      "accepted": len(run.flights)},
            exercised=exercised,
            invariants=[
                run.exactly_once("answered_exactly_once"),
                run.correct("all_answers_correct"),
                Invariant("drains_clean", queue_left == 0,
                          f"queue depth after stop: {queue_left}"),
                *fault_invariants(exercised, SERVER_FAULTS),
            ],
            elapsed_s=time.perf_counter() - t_start)

    if report_path:
        report.write(report_path)
    return report
