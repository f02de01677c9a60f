"""Cluster-tier chaos: the fleet target of the one chaos harness.

A phase script over the core in :mod:`repro.resilience.chaos` (``Run``,
``ChaosReport``, ``fault_invariants``); nothing here judges a reply.
``repro chaos --cluster --seed S`` stands up a real
:class:`~repro.cluster.supervisor.ClusterSupervisor` — forked worker
processes behind duplex pipes, consistent-hash sharding with replicas,
admission control, heartbeat health checks, breaker-gated restarts,
end-to-end deadlines, and backlog routing — then walks a seeded
phase plan through every cluster-level failure mode the server target
cannot reach:

* **crash mid-flight** — a worker is hard-killed with requests
  executing; the in-flight book fails them typed
  (:class:`~repro.serve.batching.WorkerCrashed`), the breaker-gated
  restart brings the worker back, and post-restart traffic is answered
  correctly;
* **hung worker reaped** — a ``cluster.worker.hang`` delay makes a
  worker stop answering pings without exiting; the health tick must
  reap and replace it;
* **slow worker routed around** — every execution on a workload's
  primary turns slow; its replies teach the request book the longer
  execute time, and a burst must then spill past the primary to the
  replica (``routing.spilled``) with every answer still right;
* **deadline storm** — tiny budgets plus a ``cluster.dispatch`` delay
  burn requests' budgets supervisor-side; expired work is refused at
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
land past their end-to-end deadline; at least one request spilled past
a slow primary, one restart recovered, one hung worker was reaped, one
retry chain was deadline-capped, and the disk faults really fired; the
final drain is clean.  The report lands in the ``cluster`` section of
``BENCH_robustness.json`` (merged next to the single-process chaos
report, never clobbering it).
"""

from __future__ import annotations

import tempfile
import time

from ..cluster import ClusterConfig, ClusterShed, ClusterSupervisor
from ..cluster.arena import ARENA_SLOTS
from ..serve import ServeMetrics, WorkerCrashed
from . import faults
from .chaos import (
    CHAOS_WORKLOADS,
    ChaosError,
    ChaosReport,
    Invariant,
    Run,
    fault_invariants,
    wait_until,
)

#: Exceptions a phase may legitimately answer a request with.
_SHEDDABLE = (ClusterShed,)
_CRASHABLE = (WorkerCrashed, ClusterShed, TimeoutError)
_EXPIRABLE = (TimeoutError, ClusterShed)

#: Rows for :func:`~repro.resilience.chaos.fault_invariants`: every
#: fault path must leave evidence, not just "no errors".
FLEET_FAULTS = (
    ("slow_worker_spilled", (("requests_spilled",),),
     "requests routed past a slow primary: {requests_spilled}"),
    ("restart_recovered", (("workers_crashed",), ("workers_restarted",)),
     "crashes={workers_crashed} restarts={workers_restarted}"),
    ("hung_worker_reaped", (("workers_hung",),),
     "hung workers reaped: {workers_hung}"),
    ("deadline_expired_at_boundary", (("deadline_expired_dispatch",),),
     "expired at dispatch: {deadline_expired_dispatch}, expired total: "
     "{deadline_expired_total}"),
    ("retry_deadline_capped", (("retry_deadline_capped",),),
     "retry chains capped by the compile budget: {retry_deadline_capped}"),
    ("disk_faults_absorbed",
     (("cache_disk_errors",), ("tunedb_disk_errors",)),
     "schedule-cache disk errors: {cache_disk_errors}, tuning-DB disk "
     "errors: {tunedb_disk_errors}"),
    ("both_wire_paths_ran",
     (("arena_requests",), ("arena_bytes",), ("inband_requests",)),
     "arena requests: {arena_requests} ({arena_bytes} bytes), in-band: "
     "{inband_requests}"),
)


def run_cluster_chaos(seed: int = 0, workers: int = 2,
                      requests: int = 60,
                      report_path: str | None = None) -> ChaosReport:
    """Run the cluster-tier chaos plan; returns the report (never raises
    for invariant violations — the caller checks ``report.ok``)."""
    if workers < 2:
        raise ChaosError("cluster chaos needs at least 2 workers "
                         "(failover and spilling target a replica)")
    faults.registry().seed(seed)
    graphs = {g.name: g for g in (make() for make in
                                  CHAOS_WORKLOADS.values())}
    t_start = time.perf_counter()

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
        )
        sup = ClusterSupervisor(graphs, config, metrics=ServeMetrics())
        sup.start()
        run = Run(sup.submit, ClusterShed, graphs, ref_seeds=6)
        try:
            mlp_primary = sup.owners_for("chaos_mlp")[0]
            ln_primary = sup.owners_for("chaos_ln")[0]

            def traffic(phase: str, budget: int) -> None:
                for i in range(budget):
                    for wl in graphs:
                        run.infer(wl, i, phase, timeout=60.0,
                                  expect=_SHEDDABLE)

            def arm(worker: str, plan: dict) -> None:
                if not sup.arm_faults(worker, plan):
                    raise ChaosError(f"worker {worker} is down: could "
                                     f"not arm {plan}")

            def kill_and_await_restart(worker: str) -> None:
                before = sup.metrics.get("workers.restarts")
                sup.kill_worker(worker)
                wait_until(lambda: sup.metrics.get("workers.restarts")
                           > before
                           and sup.health()["workers"][worker]["up"])

            # -- phase 2: crash mid-flight, breaker-gated restart ------
            def phase_crash() -> None:
                arm(mlp_primary, {"runtime.execute": "delay(400)"})
                inflight = [run.submit("chaos_mlp", i, "crash",
                                       expect=_CRASHABLE)
                            for i in range(3)]
                time.sleep(0.15)        # let the first start executing
                kill_and_await_restart(mlp_primary)
                for flight in inflight:
                    if flight is not None:
                        run.check(flight, wait=30.0)
                # Post-restart traffic through the same shard must be
                # answered correctly (warm disk cache ⇒ fast recompile).
                for i in range(2):
                    run.infer("chaos_mlp", i, "crash_recovered",
                              timeout=60.0, expect=_SHEDDABLE)

            # -- phase 3: hung worker reaped by the health tick --------
            def phase_hang() -> None:
                hung_before = sup.metrics.get("workers.hung")
                arm(ln_primary, {"cluster.worker.hang": "delay(6000)"})
                wait_until(lambda: sup.metrics.get("workers.hung")
                           > hung_before, timeout=30.0)
                wait_until(lambda: sup.health()["workers"][ln_primary]["up"],
                           timeout=30.0)
                run.infer("chaos_ln", 0, "hang_recovered", timeout=60.0,
                          expect=_SHEDDABLE)

            # -- phase 4: a slow worker is routed around ---------------
            def phase_slow_worker() -> None:
                # Slow replies raise the book's execute estimate for the
                # workload; a burst then leaves the primary far enough
                # behind its replica for the next copies to spill.
                arm(mlp_primary, {"runtime.execute": "delay(40)"})
                try:
                    for _ in range(4):
                        burst = [run.submit("chaos_mlp", i, "slow_worker",
                                            timeout=60.0, expect=_SHEDDABLE)
                                 for i in range(8)]
                        for flight in burst:
                            if flight is not None:
                                run.check(flight, wait=60.0)
                        if sup.metrics.get("routing.spilled"):
                            break
                finally:
                    sup.arm_faults(mlp_primary,
                                   {"runtime.execute": "delay(0)"})

            # -- phase 5: deadline storm — budgets die at the boundary -
            def phase_deadlines() -> None:
                # 30ms of supervisor-side routing burns a 15ms budget
                # whole: the request must die at dispatch, typed, and
                # never cross the wire.
                with faults.registry().armed(
                        {"cluster.dispatch": "delay(30)"}):
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

            # -- phases 6 and 7: a worker reborn into a boot fault plan -
            def phase_reborn(phase: str, worker: str, workload: str,
                             fault_plan: dict,
                             compile_deadline_s: float | None) -> None:
                sup.config.fault_plan = fault_plan
                sup.config.compile_deadline_s = compile_deadline_s
                try:
                    kill_and_await_restart(worker)
                    for i in range(3):
                        run.infer(workload, i, phase, timeout=60.0,
                                  expect=_CRASHABLE)
                finally:
                    sup.config.fault_plan = {}
                    sup.config.compile_deadline_s = None

            # -- phase 8: burst deeper than the arena -----------------
            def phase_arena_overflow() -> None:
                # Slow the executor so the burst is all outstanding at
                # once: the first ARENA_SLOTS copies take the worker's
                # slots, the rest find the free list empty.
                arm(mlp_primary, {"runtime.execute": "delay(30)"})
                try:
                    burst = [run.submit("chaos_mlp", i, "arena_overflow",
                                        timeout=60.0, expect=_SHEDDABLE)
                             for i in range(ARENA_SLOTS + 4)]
                    for flight in burst:
                        if flight is not None:
                            run.check(flight, wait=60.0)
                finally:
                    sup.arm_faults(mlp_primary,
                                   {"runtime.execute": "delay(0)"})

            # Phase 1: cold compile, correct answers.
            run.phase("warmup", traffic, "warmup",
                      max(4, min(16, requests // 4)))
            run.phase("crash_recovery", phase_crash)
            run.phase("hang_reap", phase_hang)
            run.phase("slow_worker", phase_slow_worker)
            run.phase("deadline_storm", phase_deadlines)
            # The reborn worker armed the plan at boot: its first compile
            # must absorb a disk-cache read error (counted miss ⇒ full
            # recompile) and tuning-DB read+write errors (counted drops)
            # while still answering right.
            run.phase("cold_faults", phase_reborn, "cold_faults",
                      mlp_primary, "chaos_mlp",
                      {"serve.cache.disk_get": "fail_n_times(2)",
                       "tune.db.get": "fail_n_times(2)",
                       "tune.db.put": "fail_n_times(2)"}, None)
            # Every compile attempt fails under a budget so tight that
            # the *first* retry backoff (~5ms base) would already cross
            # it: the session must cap the retry chain before the attempt
            # count runs out and serve the reference — a degraded but
            # *correct* answer, never a hang or an error.
            run.phase("deadline_capped", phase_reborn, "deadline_capped",
                      ln_primary, "chaos_ln",
                      {"serve.cache.disk_get": "fail",
                       "serve.cache.compile": "fail"}, 0.002)
            run.phase("arena_overflow", phase_arena_overflow)
            run.phase("drain", traffic, "drain",
                      max(4, min(12, requests // 6)))

            run.check_all_pending()
        finally:
            sup.stop(drain=True)

        aggregate = sup.aggregate()
        totals = aggregate["worker_totals"]
        snap = aggregate["supervisor"]

        def total(key: str) -> float:
            return totals.get(key, 0) + snap.get(key, 0)

        exercised = {
            "workers_crashed": snap.get("workers.crashed", 0),
            "workers_hung": snap.get("workers.hung", 0),
            "workers_restarted": snap.get("workers.restarts", 0),
            "requests_spilled": snap.get("routing.spilled", 0),
            "deadline_expired_dispatch":
                snap.get("deadline.expired_dispatch", 0),
            "deadline_expired_total":
                sum(v for k, v in {**snap, **totals}.items()
                    if k.startswith("deadline.expired")),
            "retry_deadline_capped": total("retry.deadline_capped"),
            "cache_disk_errors": total("cache.disk_errors"),
            "tunedb_disk_errors": total("tunedb.disk_errors"),
            "arena_requests": snap.get("wire.arena_requests", 0),
            "inband_requests": snap.get("wire.inband_requests", 0),
            "arena_bytes": snap.get("wire.arena_bytes", 0),
        }
        stranded = run.unresolved()
        report = ChaosReport(
            mode="cluster", seed=seed,
            sections={
                "workers": workers, "restarts": aggregate["restarts"],
                "supervisor_metrics": snap, "worker_totals": totals,
            },
            requests=run.request_counts(), exercised=exercised,
            invariants=[
                run.exactly_once("resolved_exactly_once"),
                run.correct("answers_match_reference"),
                run.on_time("no_post_deadline_replies"),
                *fault_invariants(exercised, FLEET_FAULTS),
                Invariant("drains_clean", not stranded,
                          f"{len(stranded)} request(s) stranded by "
                          f"stop(drain=True)"),
            ],
            elapsed_s=time.perf_counter() - t_start)

    if report_path:
        report.write(report_path)
    return report
