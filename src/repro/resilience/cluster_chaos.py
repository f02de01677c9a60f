"""Cluster-tier chaos harness: seeded faults against a live worker fleet.

``repro chaos --cluster --seed S`` stands up a real
:class:`~repro.cluster.supervisor.ClusterSupervisor` — forked worker
processes behind duplex pipes, consistent-hash sharding with replicas,
admission control, heartbeat health checks, breaker-gated restarts,
end-to-end deadlines, and hedged replica requests — then walks a seeded
phase plan through every cluster-level failure mode the single-process
harness (:mod:`repro.resilience.chaos`) cannot reach:

* **crash mid-flight** — a worker is hard-killed with requests
  executing; the in-flight book fails them typed
  (:class:`~repro.serve.batching.WorkerCrashed`), the breaker-gated
  restart brings the worker back, and post-restart traffic is answered
  correctly;
* **hung worker reaped** — a ``cluster.worker.hang`` delay makes a
  worker stop answering pings without exiting; the health loop must
  reap and replace it;
* **slow replica → hedge** — a ``cluster.worker.slow`` delay on the
  routed worker forces the supervisor's hedge timer to re-issue to the
  next replica; the hedge must win and the loser must be cancelled;
* **deadline storm** — tiny budgets plus a ``cluster.dispatch`` delay
  burn requests' budgets supervisor-side; expired work is cancelled at
  the boundary and **nothing is ever answered past its deadline**;
* **cold-path disk faults after restart** — the restarted worker
  re-arms the supervisor's fault plan at boot and must absorb schedule
  cache and tuning-database disk errors as counted misses;
* **deadline-capped compile** — a persistently failing compile under a
  tiny ``compile_deadline_s`` must stop retrying at the budget
  (``retry.deadline_capped``) and degrade to the always-correct
  reference instead of retrying into a dead deadline;
* **arena overflow** — a burst deeper than a worker's arena has slots:
  the overflow must travel in-band and every answer, from either wire
  path, must still be right.

Fleet-wide invariants asserted over the whole run: every accepted
request resolves **exactly once**; every successful answer is finite
and matches the unfused float64 reference to 1e-8; **zero** replies
land past their end-to-end deadline; at least one hedge won, one
restart recovered, one hung worker was reaped, one retry chain was
deadline-capped, and the disk faults really fired; the final drain is
clean.  The report lands in the ``cluster`` section of
``BENCH_robustness.json`` (merged next to the single-process chaos
report, never clobbering it).
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field

from ..cluster import ClusterConfig, ClusterShed, ClusterSupervisor
from ..cluster.arena import ARENA_SLOTS
from ..models import layernorm_graph, mlp_graph
from ..runtime.kernels import execute_graph_reference, random_feeds
from ..runtime.oracle import outputs_match
from ..serve import ServeMetrics, WorkerCrashed
from . import faults
from .chaos import ChaosError, Invariant

#: Purpose-built small workloads (same shapes as the single-process
#: harness): the run exercises failure paths, not kernels.
CLUSTER_WORKLOADS = {
    "chaos_mlp": lambda: mlp_graph(3, 64, 32, 48, name="chaos_mlp"),
    "chaos_ln": lambda: layernorm_graph(48, 64, name="chaos_ln"),
}

#: Reference feed seeds checked per workload.
REF_SEEDS = 6

#: Slack added to a deadline before a completion counts as "late": the
#: supervisor's expiry/publish gates run on timer threads, so a reply
#: can legitimately land a scheduling quantum after the exact deadline
#: while still having been *decided* before it.
DEADLINE_SLACK_S = 0.1

#: Exceptions a phase may legitimately answer a request with.
_SHEDDABLE = (ClusterShed,)
_CRASHABLE = (WorkerCrashed, ClusterShed, TimeoutError)
_EXPIRABLE = (TimeoutError, ClusterShed)


class _Flight:
    """One submitted request plus everything needed to judge it later."""

    __slots__ = ("request", "workload", "seed", "phase", "deadline_wall",
                 "done_at", "expect")

    def __init__(self, request, workload: str, seed: int, phase: str,
                 deadline_wall: float | None,
                 expect: tuple = ()) -> None:
        self.request = request
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


@dataclass
class ClusterChaosReport:
    """Everything a cluster chaos run observed, plus the verdicts."""

    seed: int
    workers: int
    phases: dict[str, int] = field(default_factory=dict)
    exercised: dict[str, int] = field(default_factory=dict)
    invariants: list[Invariant] = field(default_factory=list)
    restarts: dict[str, int] = field(default_factory=dict)
    supervisor_metrics: dict = field(default_factory=dict)
    worker_totals: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def to_dict(self) -> dict:
        return {
            "experiment": "chaos",
            "mode": "cluster",
            "seed": self.seed,
            "workers": self.workers,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
            "phases": self.phases,
            "exercised": self.exercised,
            "invariants": [{"name": i.name, "ok": i.ok, "detail": i.detail}
                           for i in self.invariants],
            "restarts": self.restarts,
            "supervisor_metrics": self.supervisor_metrics,
            "worker_totals": self.worker_totals,
        }

    def write(self, path: str) -> None:
        """Merge this run into ``path`` as its ``cluster`` section so the
        single-process chaos report in the same file survives."""
        data: dict = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if isinstance(existing, dict):
                data = existing
        except (OSError, ValueError):
            pass
        data.setdefault("experiment", "chaos")
        data["cluster"] = self.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        lines = [f"cluster chaos run: seed={self.seed} "
                 f"workers={self.workers} ({self.elapsed_s:.2f}s)",
                 "requests per phase:"]
        for name, count in self.phases.items():
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


class _Run:
    """Mutable run state: flights, references, verdict accumulators."""

    def __init__(self, supervisor: ClusterSupervisor,
                 graphs: dict) -> None:
        self.sup = supervisor
        self.graphs = graphs
        self.references = {
            name: {s: execute_graph_reference(g, random_feeds(g, seed=s))
                   for s in range(REF_SEEDS)}
            for name, g in graphs.items()
        }
        self.flights: list[_Flight] = []
        self.shed = 0
        self.wrong: list[str] = []
        self.unexpected: list[str] = []
        self.late: list[str] = []

    # -- traffic --------------------------------------------------------

    def submit(self, workload: str, seed: int, phase: str,
               timeout: float | None = None,
               expect: tuple = ()) -> _Flight | None:
        """Submit one request; None when admission shed it (tallied)."""
        seed = seed % REF_SEEDS
        feeds = random_feeds(self.graphs[workload], seed=seed)
        deadline_wall = (time.monotonic() + timeout
                         if timeout is not None else None)
        flight = _Flight(None, workload, seed, phase, deadline_wall,
                         expect)

        def stamp(_request) -> None:
            flight.done_at = time.monotonic()

        try:
            flight.request = self.sup.submit(
                workload, feeds, timeout=timeout, on_done=stamp)
        except ClusterShed:
            self.shed += 1
            return None
        self.flights.append(flight)
        return flight

    def infer(self, workload: str, seed: int, phase: str,
              timeout: float | None = None, expect: tuple = (),
              wait: float = 60.0) -> _Flight | None:
        flight = self.submit(workload, seed, phase, timeout=timeout,
                             expect=expect)
        if flight is not None:
            self.check(flight, wait=wait)
        return flight

    # -- judging --------------------------------------------------------

    def check(self, flight: _Flight, wait: float = 60.0) -> None:
        """Wait for one flight and judge its outcome against the phase's
        expectations and the float64 reference."""
        req = flight.request
        try:
            reply = req.result(timeout=wait)
        except Exception as exc:  # noqa: BLE001 — judged below
            if not isinstance(exc, flight.expect):
                self.unexpected.append(
                    f"[{flight.phase}] request {req.seq}: "
                    f"{type(exc).__name__}: {exc}")
            return
        if (flight.deadline_wall is not None and flight.done_at is not None
                and flight.done_at > flight.deadline_wall
                + DEADLINE_SLACK_S):
            self.late.append(
                f"[{flight.phase}] request {req.seq} answered "
                f"{flight.done_at - flight.deadline_wall:.3f}s past its "
                f"deadline")
        expected = self.references[flight.workload][flight.seed]
        if not outputs_match(reply.outputs, expected, 1e-8):
            self.wrong.append(f"[{flight.phase}] request {req.seq}: "
                              f"an output is missing, non-finite or off "
                              f"the reference by more than 1e-8")

    def check_all_pending(self, wait: float = 60.0) -> None:
        for flight in self.flights:
            if not flight.request.done():
                self.check(flight, wait=wait)


def _wait(predicate, timeout: float = 20.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def run_cluster_chaos(seed: int = 0, workers: int = 2,
                      requests: int = 60,
                      report_path: str | None = None,
                      ) -> ClusterChaosReport:
    """Run the cluster-tier chaos plan; returns the report (never raises
    for invariant violations — the caller checks ``report.ok``)."""
    if workers < 2:
        raise ChaosError("cluster chaos needs at least 2 workers "
                         "(hedging and failover target a replica)")
    faults.registry().seed(seed)
    graphs = {name: make() for name, make in CLUSTER_WORKLOADS.items()}
    metrics = ServeMetrics()
    t_start = time.perf_counter()
    phase_counts: dict[str, int] = {}

    with tempfile.TemporaryDirectory(prefix="repro-cluster-chaos-") as tmp:
        config = ClusterConfig(
            workers=workers,
            replication=2,
            cache_dir=f"{tmp}/cache",
            tune_db_dir=f"{tmp}/tunedb",
            health_interval_s=0.1,
            heartbeat_timeout_s=2.5,
            restart_breaker_threshold=4,
            restart_breaker_reset_s=0.5,
            worker_queue_depth=64,
            # Adaptive hedging stays quiet this early (< min samples);
            # the slow-replica phase switches to a fixed delay.
            hedge=True,
            hedge_min_samples=10_000,
        )
        sup = ClusterSupervisor(graphs, config, metrics=metrics)
        sup.start()
        run = _Run(sup, graphs)
        try:
            def run_phase(name: str, fn) -> None:
                before = len(run.flights)
                fn()
                phase_counts[name] = len(run.flights) - before

            mlp_primary = sup.owners_for("chaos_mlp")[0]
            ln_primary = sup.owners_for("chaos_ln")[0]

            # -- phase 1: warmup — cold compile, correct answers -------
            def phase_warmup() -> None:
                budget = max(4, min(16, requests // 4))
                for i in range(budget):
                    for wl in graphs:
                        run.infer(wl, i, "warmup", timeout=60.0,
                                  expect=_SHEDDABLE)

            # -- phase 2: crash mid-flight, breaker-gated restart ------
            def phase_crash() -> None:
                gen_before = sup.metrics.get("workers.restarts")
                assert sup.arm_faults(mlp_primary,
                                      {"runtime.execute": "delay(400)"})
                inflight = [run.submit("chaos_mlp", i, "crash",
                                       expect=_CRASHABLE)
                            for i in range(3)]
                time.sleep(0.15)        # let them reach the executor
                sup.kill_worker(mlp_primary)
                for flight in inflight:
                    if flight is not None:
                        run.check(flight, wait=30.0)
                _wait(lambda: sup.metrics.get("workers.restarts")
                      > gen_before
                      and sup.health()["workers"][mlp_primary]["up"])
                # Post-restart traffic through the same shard must be
                # answered correctly (warm disk cache ⇒ fast recompile).
                for i in range(2):
                    run.infer("chaos_mlp", i, "crash_recovered",
                              timeout=60.0, expect=_SHEDDABLE)

            # -- phase 3: hung worker reaped by the health loop --------
            def phase_hang() -> None:
                hung_before = sup.metrics.get("workers.hung")
                target = sup.owners_for("chaos_ln")[0]
                assert sup.arm_faults(target,
                                      {"cluster.worker.hang": "delay(6000)"})
                _wait(lambda: sup.metrics.get("workers.hung") > hung_before,
                      timeout=30.0)
                _wait(lambda: sup.health()["workers"][target]["up"],
                      timeout=30.0)
                run.infer("chaos_ln", 0, "hang_recovered", timeout=60.0,
                          expect=_SHEDDABLE)

            # -- phase 4: slow replica forces a winning hedge ----------
            def phase_hedge() -> None:
                sup.config.hedge_delay_s = 0.05
                sup.config.hedge_max_fraction = 0.5
                primary = sup.owners_for("chaos_mlp")[0]
                assert sup.arm_faults(primary,
                                      {"cluster.worker.slow": "delay(400)"})
                try:
                    for i in range(4):
                        run.infer("chaos_mlp", i, "hedge", timeout=20.0,
                                  expect=_SHEDDABLE, wait=30.0)
                        if sup.metrics.get("hedge.won") >= 2:
                            break
                finally:
                    sup.config.hedge_delay_s = None
                    sup.config.hedge_max_fraction = 0.1
                    sup.arm_faults(primary,
                                   {"cluster.worker.slow": "delay(0)"})

            # -- phase 5: deadline storm — budgets die at the boundary -
            def phase_deadlines() -> None:
                sup.config.hedge = False
                registry = faults.registry()
                # 30ms of supervisor-side routing burns a 15ms budget
                # whole: the request must die at dispatch, typed, and
                # never cross the wire.
                with registry.armed({"cluster.dispatch": "delay(30)"}):
                    for i in range(3):
                        run.infer("chaos_mlp", i, "deadline_storm",
                                  timeout=0.015, expect=_EXPIRABLE,
                                  wait=10.0)
                    # A budget that survives dispatch must still never
                    # be answered late (worker ingress / publish gates).
                    for i in range(3):
                        run.infer("chaos_mlp", i, "deadline_tight",
                                  timeout=0.08, expect=_EXPIRABLE,
                                  wait=10.0)
                sup.config.hedge = True

            # -- phase 6: restart re-arms cold-path disk faults --------
            def phase_cold_faults() -> None:
                sup.config.hedge = False
                sup.config.fault_plan = {
                    "serve.cache.disk_get": "fail_n_times(2)",
                    "tune.db.get": "fail_n_times(2)",
                    "tune.db.put": "fail_n_times(2)",
                }
                restarts_before = sup.metrics.get("workers.restarts")
                try:
                    sup.kill_worker(mlp_primary)
                    _wait(lambda: sup.metrics.get("workers.restarts")
                          > restarts_before
                          and sup.health()["workers"][mlp_primary]["up"])
                    # The reborn worker armed the plan at boot: its first
                    # compile must absorb a disk-cache read error (counted
                    # miss ⇒ full recompile) and tuning-DB read+write
                    # errors (counted drops) while still answering right.
                    for i in range(3):
                        run.infer("chaos_mlp", i, "cold_faults",
                                  timeout=60.0, expect=_CRASHABLE)
                finally:
                    sup.config.fault_plan = {}
                    sup.config.hedge = True

            # -- phase 7: compile retries capped by the deadline -------
            def phase_deadline_capped() -> None:
                sup.config.hedge = False
                sup.config.fault_plan = {
                    "serve.cache.disk_get": "fail",
                    "serve.cache.compile": "fail",
                }
                # Tight enough that the *first* retry backoff (~5ms
                # base) would already cross it — the cap must fire
                # before the attempt count runs out.
                sup.config.compile_deadline_s = 0.002
                restarts_before = sup.metrics.get("workers.restarts")
                try:
                    sup.kill_worker(ln_primary)
                    _wait(lambda: sup.metrics.get("workers.restarts")
                          > restarts_before
                          and sup.health()["workers"][ln_primary]["up"])
                    # Every compile attempt fails and the 50ms budget
                    # forbids backoff past it: the session must cap the
                    # retry chain and serve the reference — a degraded
                    # but *correct* answer, never a hang or an error.
                    for i in range(3):
                        run.infer("chaos_ln", i, "deadline_capped",
                                  timeout=60.0, expect=_CRASHABLE)
                finally:
                    sup.config.fault_plan = {}
                    sup.config.compile_deadline_s = None
                    sup.config.hedge = True

            # -- phase 8: burst deeper than the arena -----------------
            def phase_arena_overflow() -> None:
                # Slow the executor so the burst is all outstanding at
                # once: the first ARENA_SLOTS copies take the worker's
                # slots, the rest find the free list empty.
                primary = sup.owners_for("chaos_mlp")[0]
                assert sup.arm_faults(primary,
                                      {"runtime.execute": "delay(30)"})
                try:
                    burst = [run.submit("chaos_mlp", i, "arena_overflow",
                                        timeout=60.0, expect=_SHEDDABLE)
                             for i in range(ARENA_SLOTS + 4)]
                    for flight in burst:
                        if flight is not None:
                            run.check(flight, wait=60.0)
                finally:
                    sup.arm_faults(primary,
                                   {"runtime.execute": "delay(0)"})

            # -- phase 9: drain ---------------------------------------
            def phase_drain() -> None:
                budget = max(4, min(12, requests // 6))
                for i in range(budget):
                    for wl in graphs:
                        run.infer(wl, i, "drain", timeout=60.0,
                                  expect=_SHEDDABLE)

            run_phase("warmup", phase_warmup)
            run_phase("crash_recovery", phase_crash)
            run_phase("hang_reap", phase_hang)
            run_phase("slow_hedge", phase_hedge)
            run_phase("deadline_storm", phase_deadlines)
            run_phase("cold_faults", phase_cold_faults)
            run_phase("deadline_capped", phase_deadline_capped)
            run_phase("arena_overflow", phase_arena_overflow)
            run_phase("drain", phase_drain)

            run.check_all_pending()
        finally:
            sup.stop(drain=True)

        aggregate = sup.aggregate()
        totals = aggregate["worker_totals"]
        snap = aggregate["supervisor"]

        report = ClusterChaosReport(
            seed=seed, workers=workers,
            restarts=aggregate["restarts"],
            supervisor_metrics=snap,
            worker_totals=totals,
            elapsed_s=time.perf_counter() - t_start)
        report.phases = dict(phase_counts)
        report.phases["submitted"] = len(run.flights)
        report.phases["shed"] = run.shed

        def total(key: str) -> float:
            return totals.get(key, 0) + snap.get(key, 0)

        report.exercised = {
            "workers_crashed": snap.get("workers.crashed", 0),
            "workers_hung": snap.get("workers.hung", 0),
            "workers_restarted": snap.get("workers.restarts", 0),
            "hedges_issued": snap.get("hedge.issued", 0),
            "hedges_won": snap.get("hedge.won", 0),
            "deadline_expired_dispatch":
                snap.get("deadline.expired_dispatch", 0),
            "deadline_expired_total":
                sum(v for k, v in {**snap, **totals}.items()
                    if k.startswith("deadline.expired")),
            "retry_deadline_capped": total("retry.deadline_capped"),
            "cache_disk_errors": total("cache.disk_errors"),
            "tunedb_disk_errors": total("tunedb.disk_errors"),
            "requests_cancelled": totals.get("requests.cancelled", 0),
            "arena_requests": snap.get("wire.arena_requests", 0),
            "inband_requests": snap.get("wire.inband_requests", 0),
            "arena_bytes": snap.get("wire.arena_bytes", 0),
        }

        # ---- invariants ------------------------------------------------
        unresolved = [f.request.seq for f in run.flights
                      if not f.request.done()]
        multi = [f.request.seq for f in run.flights
                 if f.request.resolutions != 1]
        inv = report.invariants.append
        inv(Invariant(
            "resolved_exactly_once",
            not unresolved and not multi,
            (f"unresolved={unresolved[:5]} multi={multi[:5]}"
             if unresolved or multi else
             f"{len(run.flights)} accepted requests, one resolution "
             f"each across crashes, hedges, and expiries")))
        inv(Invariant(
            "answers_match_reference",
            not run.wrong and not run.unexpected,
            "; ".join((run.wrong + run.unexpected)[:5])
            or "every answer finite and equal to the float64 reference; "
               "every failure a typed, phase-expected error"))
        inv(Invariant(
            "no_post_deadline_replies",
            not run.late,
            "; ".join(run.late[:5])
            or "no deadline-bearing request was ever answered past its "
               "budget"))
        inv(Invariant(
            "hedge_won",
            report.exercised["hedges_won"] >= 1,
            f"hedges issued={report.exercised['hedges_issued']} "
            f"won={report.exercised['hedges_won']}"))
        inv(Invariant(
            "restart_recovered",
            report.exercised["workers_crashed"] >= 1
            and report.exercised["workers_restarted"] >= 1,
            f"crashes={report.exercised['workers_crashed']} "
            f"restarts={report.exercised['workers_restarted']}"))
        inv(Invariant(
            "hung_worker_reaped",
            report.exercised["workers_hung"] >= 1,
            f"hung workers reaped: {report.exercised['workers_hung']}"))
        inv(Invariant(
            "deadline_expired_at_boundary",
            report.exercised["deadline_expired_dispatch"] >= 1,
            f"expired at dispatch: "
            f"{report.exercised['deadline_expired_dispatch']}, "
            f"expired total: "
            f"{report.exercised['deadline_expired_total']}"))
        inv(Invariant(
            "retry_deadline_capped",
            report.exercised["retry_deadline_capped"] >= 1,
            f"retry chains capped by the compile budget: "
            f"{report.exercised['retry_deadline_capped']}"))
        inv(Invariant(
            "disk_faults_absorbed",
            report.exercised["cache_disk_errors"] >= 1
            and report.exercised["tunedb_disk_errors"] >= 1,
            f"schedule-cache disk errors: "
            f"{report.exercised['cache_disk_errors']}, tuning-DB disk "
            f"errors: {report.exercised['tunedb_disk_errors']}"))
        inv(Invariant(
            "both_wire_paths_ran",
            report.exercised["arena_requests"] >= 1
            and report.exercised["inband_requests"] >= 1,
            f"arena requests: {report.exercised['arena_requests']} "
            f"({report.exercised['arena_bytes']} bytes), in-band: "
            f"{report.exercised['inband_requests']}"))
        inv(Invariant(
            "drains_clean",
            not unresolved,
            "stop(drain=True) left nothing pending"
            if not unresolved else
            f"{len(unresolved)} request(s) stranded by the drain"))

    if report_path:
        report.write(report_path)
    return report
