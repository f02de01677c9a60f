"""Chaos harness: a seeded fault schedule against a live FusionServer.

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
metrics snapshot.
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


class ChaosError(Exception):
    """Raised on harness misuse (bad plan, unknown workload)."""


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


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the verdicts."""

    seed: int
    workload: str
    fault_plan: list[dict]
    requests: dict[str, int] = field(default_factory=dict)
    exercised: dict[str, int] = field(default_factory=dict)
    invariants: list[Invariant] = field(default_factory=list)
    breaker_transitions: list[tuple[str, str]] = field(default_factory=list)
    health: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def to_dict(self) -> dict:
        return {
            "experiment": "chaos",
            "seed": self.seed,
            "workload": self.workload,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
            "fault_plan": self.fault_plan,
            "requests": self.requests,
            "exercised": self.exercised,
            "invariants": [{"name": i.name, "ok": i.ok, "detail": i.detail}
                           for i in self.invariants],
            "breaker_transitions": [list(t)
                                    for t in self.breaker_transitions],
            "health": self.health,
            "metrics": self.metrics,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        lines = [f"chaos run: seed={self.seed} workload={self.workload} "
                 f"({self.elapsed_s:.2f}s)",
                 "requests:"]
        for name in sorted(self.requests):
            lines.append(f"  {name:<22} {self.requests[name]}")
        lines.append("faults exercised:")
        for name in sorted(self.exercised):
            lines.append(f"  {name:<22} {self.exercised[name]}")
        lines.append("invariants:")
        for inv in self.invariants:
            mark = "PASS" if inv.ok else "FAIL"
            detail = f" — {inv.detail}" if inv.detail else ""
            lines.append(f"  [{mark}] {inv.name}{detail}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


class _Run:
    """One chaos run's mutable state (requests issued, answers checked)."""

    def __init__(self, graph, server: FusionServer, workload: str,
                 ref_seeds: int = 8) -> None:
        self.graph = graph
        self.server = server
        self.workload = workload
        self.references = {
            s: execute_graph_reference(graph, random_feeds(graph, seed=s))
            for s in range(ref_seeds)
        }
        self.lock = threading.Lock()
        self.accepted: list[tuple] = []   # (Request, ref seed)
        self.shed = 0
        self.submitted = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    # -- traffic --------------------------------------------------------

    def _seed_for(self, i: int) -> int:
        return i % len(self.references)

    def submit_one(self, i: int):
        """Submit request ``i``; returns the handle or None when shed."""
        seed = self._seed_for(i)
        feeds = random_feeds(self.graph, seed=seed)
        with self.lock:
            self.submitted += 1
        try:
            req = self.server.submit(self.workload, feeds)
        except Overloaded:
            with self.lock:
                self.shed += 1
            return None
        with self.lock:
            self.accepted.append((req, seed))
        return req

    def infer_one(self, i: int) -> None:
        """Submit-and-wait; sheds are retried until accepted."""
        req = self.submit_one(i)
        while req is None:
            time.sleep(0.002)
            req = self.submit_one(i)
        self.check(req, timeout=60.0)

    def check(self, req, timeout: float = 60.0) -> None:
        """Wait for one accepted request and verify its outputs."""
        seed = None
        with self.lock:
            for r, s in self.accepted:
                if r is req:
                    seed = s
                    break
        assert seed is not None
        try:
            reply = req.result(timeout=timeout)
        except Exception as exc:  # noqa: BLE001 — tallied as an invariant
            with self.lock:
                self.errors.append(f"request {req.seq}: "
                                   f"{type(exc).__name__}: {exc}")
            return
        if not outputs_match(reply.outputs, self.references[seed], 1e-8):
            with self.lock:
                self.wrong.append(
                    f"request {req.seq}: an output is missing, non-finite "
                    f"or off the reference by more than 1e-8")

    def check_all_pending(self) -> None:
        with self.lock:
            pending = [(r, s) for r, s in self.accepted if not r.done()]
        for req, _seed in pending:
            self.check(req)


def _plan_by_phase(plan: list[dict]) -> dict[str, dict[str, str]]:
    registry = faults.registry()
    known = registry.known()
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
    gpu = get_gpu("ampere")
    metrics = ServeMetrics()
    t_start = time.perf_counter()
    phase_counts: dict[str, int] = {}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
        cache = TieredScheduleCache(
            disk=ScheduleCache(tmpdir), metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.002,
                                     max_delay_s=0.02, seed=seed))
        breaker = CircuitBreaker(failure_threshold=breaker_threshold,
                                 reset_timeout_s=breaker_reset_s)
        session = InferenceSession(graph, gpu, cache=cache, metrics=metrics,
                                   breaker=breaker)
        server = FusionServer({graph.name: session}, workers=workers,
                              max_batch=8, max_wait_ms=1.0,
                              metrics=metrics, max_queue_depth=queue_depth)
        run = _Run(graph, server, graph.name)

        def run_phase(name: str, count: int, fn) -> None:
            before = run.submitted
            with registry.armed(by_phase.get(name, {})):
                fn(count)
            phase_counts[name] = run.submitted - before

        # Phase budget: the special phases have fixed shapes; everything
        # left over becomes steady/drain traffic.
        burst = 6 * queue_depth
        special = 1 + (breaker_threshold + 4) + 1 + burst
        leftover = max(0, requests - special)
        steady_n = leftover // 2
        drain_n = leftover - steady_n

        def phase_compile(_count: int) -> None:
            # Faults on the cold path: disk read error, one failed
            # compile attempt (retried), one failed autotune campaign
            # (also absorbed by the retry), one failed lowering
            # (retried), disk write error.  The first request must still
            # be answered correctly.
            server.start()
            run.infer_one(0)

        def phase_steady(count: int) -> None:
            clients = min(4, max(1, count))

            def client(cid: int) -> None:
                for i in range(cid, count, clients):
                    run.infer_one(i)

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        def phase_breaker(_count: int) -> None:
            # `fail_n_times(threshold)` on runtime.execute: each failure
            # is answered via the reference, the breaker opens on the
            # last one.  Requests while open degrade immediately; after
            # the reset timeout one half-open probe succeeds (the
            # failpoint is exhausted) and the breaker closes.
            for i in range(breaker_threshold):
                run.infer_one(i)
            for i in range(3):
                run.infer_one(i)          # breaker open → reference path
            time.sleep(breaker_reset_s * 1.5)
            run.infer_one(0)              # half-open probe → close

        def phase_quarantine(_count: int) -> None:
            run.infer_one(0)

        def phase_overload(_count: int) -> None:
            # Workers stalled by the serve.batch delay; a concurrent
            # burst well past the queue bound must shed.  Shed requests
            # never enqueue; accepted ones all complete after the phase.
            for _attempt in range(5):
                before = run.shed
                threads = [threading.Thread(target=run.submit_one, args=(i,))
                           for i in range(burst)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                if run.shed > before:
                    break
            run.check_all_pending()

        run_phase("compile", 1, phase_compile)
        run_phase("steady", steady_n, phase_steady)
        run_phase("breaker", breaker_threshold + 4, phase_breaker)
        run_phase("quarantine", 1, phase_quarantine)
        run_phase("overload", burst, phase_overload)
        run_phase("drain", drain_n, phase_steady)

        run.check_all_pending()
        server.stop(drain=True)
        health = server.health()
        queue_left = server.queue.depth()

        # ---- invariants ------------------------------------------------
        snap = metrics.snapshot()
        report = ChaosReport(
            seed=seed, workload=workload, fault_plan=plan,
            breaker_transitions=list(breaker.transitions),
            health=health, metrics=snap,
            elapsed_s=time.perf_counter() - t_start)
        report.requests = dict(phase_counts)
        report.requests.update(
            submitted=run.submitted,
            accepted=len(run.accepted),
            shed=run.shed,
        )

        unresolved = [r.seq for r, _ in run.accepted if not r.done()]
        multi = [r.seq for r, _ in run.accepted if r.resolutions != 1]
        retries = (metrics.get("cache.compile_retries")
                   + metrics.get("lower.retries"))
        report.exercised = {
            "compile_retries": metrics.get("cache.compile_retries"),
            "lower_retries": metrics.get("lower.retries"),
            "breaker_cycles": breaker.cycles,
            "sheds": run.shed,
            "quarantines": metrics.get("plans.quarantined"),
            "disk_errors": metrics.get("cache.disk_errors"),
        }

        inv = report.invariants.append
        inv(Invariant(
            "answered_exactly_once",
            not unresolved and not multi,
            (f"unresolved={unresolved[:5]} multi={multi[:5]}"
             if unresolved or multi else
             f"{len(run.accepted)} accepted requests, one resolution "
             f"each")))
        inv(Invariant(
            "all_answers_correct",
            not run.wrong and not run.errors,
            "; ".join((run.wrong + run.errors)[:5])
            or "all outputs finite and equal to the unfused reference"))
        inv(Invariant(
            "drains_clean", queue_left == 0,
            f"queue depth after stop: {queue_left}"))
        inv(Invariant(
            "retry_exercised", retries >= 1,
            f"compile+lower retries: {retries}"))
        inv(Invariant(
            "breaker_cycle_exercised", breaker.cycles >= 1,
            f"open→half-open→close cycles: {breaker.cycles}, "
            f"transitions: {breaker.transitions}"))
        inv(Invariant(
            "shed_exercised", run.shed >= 1,
            f"load sheds: {run.shed}"))
        inv(Invariant(
            "quarantine_exercised",
            metrics.get("plans.quarantined") >= 1,
            f"plans quarantined: {metrics.get('plans.quarantined')}"))
        inv(Invariant(
            "disk_errors_absorbed",
            metrics.get("cache.disk_errors") >= 1,
            f"disk-tier errors counted as misses: "
            f"{metrics.get('cache.disk_errors')}"))

    if report_path:
        report.write(report_path)
    return report
