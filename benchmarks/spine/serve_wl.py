"""``serve_heavy`` and ``serve_light``: the forked fleet under traffic.

A two-worker ``ClusterSupervisor`` with every knob at its default serves a
fixed mix through three phases: a closed loop with eight requests
outstanding (``closed`` — the throughput metric), an open-loop Poisson
phase at the reference rate (``ref`` — the latency metrics), and an
open-loop phase nearer the knee (``hi`` — informational).  Fleet start,
the cold first answer per graph and the warm-up all happen before the
first phase and are what ``setup_s`` measures.

The closed loop runs first on purpose.  The supervisor hedges a request
once it is older than the p95 of *all* latencies it has seen, read off a
coarse histogram; with ``ref`` first that p95 sat at 25 ms, every
closed-loop request (35-40 ms with eight outstanding) was hedged until
the history caught up, and whether that took one second or six decided
the run's throughput (181 vs 229 requests/s on the same code).  Closed
first, the hedge delay settles at once and stays put for ``ref``.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import pickle
import time

import numpy as np

from repro.cluster import (ClusterConfig, ClusterSupervisor, WorkerConfig,
                           build_server)
from repro.core.serialize import ScheduleCache
from repro.hw import get_gpu
from repro.pipeline import compile_for
from repro.serve import ServeMetrics

from common import (SETUP_REPEATS, TOLERANCE, PassResult, SpanRecorder,
                    max_abs_err, median, modelled_costs, peak_rss_mb,
                    percentile, span, steady_percentile, timed_block)
from exec_wl import plan_call, session_call
from inputs import SERVE_MIXES, SUBGRAPHS, feeds_and_references
from loadgen import (OK, REQUEST_TIMEOUT_S, Book, Draws, closed_loop,
                     open_loop, poisson_offsets)

#: Open-loop rates (requests per second) and the hi-phase latency limit.
RATES = {"serve_heavy": {"ref": 50.0, "hi": 120.0, "limit_ms": 50.0},
         "serve_light": {"ref": 200.0, "hi": 350.0, "limit_ms": 25.0}}
#: Shares of ``--seconds``, and how many equal slices the ref phase (by
#: due time) and the closed loop (by completion time) are cut into.
REF_SHARE, HI_SHARE, CLOSED_SHARE = 0.50, 0.10, 0.40
REF_SLICES = 5
SLICES = 8
WINDOW = 8
FEEDS_PER_GRAPH = 4
WARMUP_PER_GRAPH = 20
#: Unloaded ladder calls per rung and graph at ``--seconds`` >= 10.
LADDER_CALLS = 300
#: A fleet whose start or warm-up raises is stopped and set up again, this
#: many times a pass at most (see ``_started_fleets``).
SETUP_RETRIES = 2


class _Fleet:
    """One started fleet and how long each step of starting it took."""

    def __init__(self, graphs: dict, work: pathlib.Path, tag: str) -> None:
        self.config = ClusterConfig(workers=2,
                                    cache_dir=str(work / f"sched-{tag}"),
                                    tune_db_dir=str(work / f"tunedb-{tag}"))
        self.supervisor = ClusterSupervisor(graphs, self.config)
        self.start_s = self.first_s = self.warm_s = self.stop_s = 0.0
        self.bad = self.sent = 0
        #: Why the set-up of this fleet did not finish ('' when it did).
        self.broken = ""

    def start(self, feeds: dict, refs: dict, recorder) -> None:
        sup = self.supervisor
        t0 = time.perf_counter()
        with span(recorder, "cluster.start"):
            sup.start()
        t1 = time.perf_counter()
        with span(recorder, "cluster.first_answers"):
            for name in feeds:                      # cold: compiles
                self._ask(name, 0, feeds, refs)
        t2 = time.perf_counter()
        with span(recorder, "cluster.warmup"):
            for name in feeds:
                for i in range(WARMUP_PER_GRAPH):
                    self._ask(name, i % FEEDS_PER_GRAPH, feeds, refs)
        t3 = time.perf_counter()
        self.start_s, self.first_s, self.warm_s = t1 - t0, t2 - t1, t3 - t2

    def _ask(self, name: str, k: int, feeds: dict, refs: dict) -> None:
        self.sent += 1
        self.bad += 1           # until the answer is in and right
        reply = self.supervisor.infer(name, feeds[name][k],
                                      timeout=REQUEST_TIMEOUT_S)
        if not reply.degraded and max_abs_err(reply.outputs,
                                              refs[name][k]) <= TOLERANCE:
            self.bad -= 1

    @property
    def setup_s(self) -> float:
        return self.start_s + self.first_s + self.warm_s

    def stop(self, recorder=None, drain: bool = True) -> None:
        t0 = time.perf_counter()
        with span(recorder, "cluster.stop"):
            self.supervisor.stop(drain=drain)
        self.stop_s = time.perf_counter() - t0
        # The supervisor terminates a worker that does not stop, but a
        # worker catches SIGTERM and a wedged one never gets to act on it.
        for proc in multiprocessing.active_children():
            proc.kill()
            proc.join(timeout=5.0)


def _started_fleets(graphs: dict, work: pathlib.Path, tag: str, feeds: dict,
                    refs: dict, recorder, result: PassResult,
                    fleets: list[_Fleet]) -> int:
    """Start and warm ``SETUP_REPEATS`` fleets one after the other into
    ``fleets``, each stopped before the next starts and the last left
    running; returns how many set-ups had to be done again.

    A set-up that raises is not the end of the run.  One fleet start in
    some 1,500 on the sizing machine ended in ``ClusterError: worker w0
    failed to become ready within 30s`` (README, *Found while sizing*), and
    the driver makes about 150 per check.  Such a fleet is stopped without
    a drain and the set-up done again; the retry is counted
    (``cluster.setup_retries``) and noted, a request that failed in it
    counts as failed, and its time is in no metric.
    """
    retries = 0
    while len(fleets) < SETUP_REPEATS + retries:
        if fleets:
            fleets[-1].stop(drain=not fleets[-1].broken)
        fleet = _Fleet(graphs, work, f"{tag}-{len(fleets)}")
        fleets.append(fleet)
        try:
            fleet.start(feeds, refs, recorder)
        except Exception as exc:  # noqa: BLE001 — counted and tried again
            fleet.broken = f"{type(exc).__name__}: {exc}"
            if retries == SETUP_RETRIES:
                raise
            retries += 1
            result.notes.append(f"fleet set-up {len(fleets)} failed and was "
                                f"done again: {fleet.broken}")
    return retries


def run_pass(workload: str, seed: int, seconds: float,
             recorder: SpanRecorder | None, work: pathlib.Path) -> PassResult:
    mix = SERVE_MIXES[workload]
    rates = RATES[workload]
    tag = "traced" if recorder is not None else "plain"
    rng = np.random.default_rng(seed)

    graphs = {name: factory() for name, (factory, _share) in mix.items()}
    feeds, refs = {}, {}
    for name, graph in graphs.items():
        feeds[name], refs[name] = feeds_and_references(graph, seed,
                                                       FEEDS_PER_GRAPH)

    result = PassResult()
    fleets: list[_Fleet] = []
    book = None
    try:
        # -- set-up, several times over; the last fleet is kept ----------
        retries = _started_fleets(graphs, work, tag, feeds, refs, recorder,
                                  result, fleets)
        fleet = fleets[-1]

        # -- the timed window ----------------------------------------------
        sup = fleet.supervisor
        book = Book(sup, feeds, refs)
        draws = Draws(rng, list(mix), [share for _f, share in mix.values()],
                      FEEDS_PER_GRAPH)
        ref_s, hi_s = REF_SHARE * seconds, HI_SHARE * seconds
        closed_s = CLOSED_SHARE * seconds
        with span(recorder, "bench.phase", phase="closed"):
            closed_start, closed_end = closed_loop(book, "closed", closed_s,
                                                   WINDOW, draws)
            settled = book.wait_settled()
        with span(recorder, "bench.phase", phase="ref"):
            open_loop(book, "ref", poisson_offsets(rng, rates["ref"], ref_s),
                      draws)
            settled = book.wait_settled() and settled
        with span(recorder, "bench.phase", phase="hi"):
            open_loop(book, "hi", poisson_offsets(rng, rates["hi"], hi_s),
                      draws)
            settled = book.wait_settled() and settled
        if not settled:
            result.problem("requests still outstanding after the settle "
                           "timeout (lost)")
        aggregate = sup.aggregate()
        ladder = _ladder(workload, graphs, feeds, refs, fleet, seconds,
                         recorder, result) if recorder is not None else {}
    finally:
        if book is not None:
            book.close()
        if fleets:
            fleets[-1].stop(recorder, drain=not fleets[-1].broken)

    # -- accounting ----------------------------------------------------------
    outcomes = book.outcomes()
    warm_sent = sum(f.sent for f in fleets)
    started = [f for f in fleets if not f.broken]
    result.attempted += len(book.samples) + warm_sent
    result.failed += (len(book.samples) - outcomes.get(OK, 0)
                      + outcomes["duplicated"] + sum(f.bad for f in fleets))

    by_phase: dict[str, list] = {"ref": [], "hi": [], "closed": []}
    for s in book.samples:
        by_phase[s.phase].append(s)
    ref_ok = [s for s in by_phase["ref"] if s.outcome == OK]
    ref_ms = [s.latency_s * 1e3 for s in ref_ok]
    ref_start = min((s.due for s in by_phase["ref"]), default=0.0)
    ref_slices: list[list[float]] = [[] for _ in range(REF_SLICES)]
    for s in ref_ok:
        i = int((s.due - ref_start) / (ref_s / REF_SLICES))
        ref_slices[min(i, REF_SLICES - 1)].append(s.latency_s * 1e3)
    slice_s = (closed_end - closed_start) / SLICES
    per_slice = [0] * SLICES
    for s in by_phase["closed"]:
        if s.outcome == OK and closed_start <= s.done < closed_end:
            i = int((s.done - closed_start) / slice_s)
            per_slice[min(i, SLICES - 1)] += 1

    fused_s, dram, unfused_s = modelled_costs(
        (graph, _schedule_of(fleet, graph)) for graph in graphs.values())

    result.end_to_end = {
        "setup_s": median([f.setup_s for f in started]),
        "latency_p50_ms": steady_percentile(ref_slices, 50),
        "throughput_rps": median([n / slice_s for n in per_slice]),
        "modelled_dram_mb": dram / 1e6,
        "modelled_speedup": unfused_s / fused_s if fused_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    result.info = {
        "phase_s": {"ref": ref_s, "hi": hi_s, "closed": closed_s},
        "rates_rps": {"ref": rates["ref"], "hi": rates["hi"]},
        "sent": {p: len(ss) for p, ss in by_phase.items()},
        "outcomes": outcomes, "warmup_requests": warm_sent,
        "closed_slices_rps": [n / slice_s for n in per_slice],
        "setup_s": [f.setup_s for f in started],
        "setup_retries": retries,
        "placement": aggregate["placement"],
    }
    if recorder is not None:
        _request_spans(recorder, book)
        result.per_layer = {
            **_fleet_rows(aggregate, started, by_phase, ref_ms, rates),
            **ladder,
            "cluster.setup_retries": retries,
            "cluster.payload_kb": _mix_mean(mix, {
                n: len(pickle.dumps(("req", 0, n, feeds[n][0], 30.0),
                                    pickle.HIGHEST_PROTOCOL)) / 1024.0
                for n in graphs}),
            "runtime.publish_kb": _mix_mean(mix, {
                n: sum(a.nbytes for a in refs[n][0].values()) / 1024.0
                for n in graphs}),
            "hw.modelled_time_ms": fused_s * 1e3,
            "baselines.unfused_time_ms": unfused_s * 1e3,
            "bench.samples": len(ref_ms),
            "bench.latency_p90_ms": steady_percentile(ref_slices, 90),
        }
    return result


def _schedule_of(fleet: _Fleet, graph):
    """The schedule the fleet compiled for ``graph``, read back from the
    disk cache the workers share — or, should the fleet not have left one,
    compiled here: the compiler is deterministic (the compile workloads
    check that), so the modelled numbers are the same either way."""
    gpu = get_gpu(fleet.config.gpu)
    schedule = ScheduleCache(fleet.config.cache_dir).get(graph, gpu.name)
    if schedule is None:
        schedule, _stats = compile_for(graph, gpu)
    return schedule


def _mix_mean(mix: dict, per_graph: dict[str, float]) -> float:
    total = sum(share for _f, share in mix.values())
    return sum(per_graph[n] * share / total
               for n, (_f, share) in mix.items())


def _request_spans(recorder: SpanRecorder, book: Book) -> None:
    """One span per request (due -> completion) and one per submit call,
    sharing the request's id; taken from the samples after the window, so
    recording them costs the window nothing."""
    for i, s in enumerate(book.samples):
        recorder.record("cluster.submit", s.sent, s.sent + s.submit_s,
                        category="cluster", id=i, phase=s.phase)
        if s.done is not None:
            recorder.record("cluster.request", s.due, s.done,
                            category="cluster", id=i, phase=s.phase,
                            workload=s.workload, outcome=s.outcome,
                            detail=s.detail)


def _fleet_rows(aggregate: dict, fleets: list[_Fleet], by_phase: dict,
                ref_ms: list[float], rates: dict) -> dict:
    sup, totals = aggregate["supervisor"], aggregate["worker_totals"]
    workers = list(aggregate["workers"].values())
    fleet = fleets[-1]

    def weighted(key: str, weight: str) -> float:
        n = sum(w.get(weight, 0) for w in workers)
        return (sum(w.get(key, 0.0) * w.get(weight, 0) for w in workers) / n
                if n else 0.0)

    submitted = [w.get("requests.submitted", 0) for w in workers]
    submit_us = [s.submit_s * 1e6 for ss in by_phase.values() for s in ss]
    lag_ms = [(s.sent - s.due) * 1e3 for s in by_phase["ref"]]
    hi = by_phase["hi"]
    hi_ms = [s.latency_s * 1e3 for s in hi if s.outcome == OK]
    return {
        "serve.queue_wait_p50_ms":
            weighted("queue_wait.p50", "queue_wait.count") * 1e3,
        "serve.queue_wait_p99_ms":
            weighted("queue_wait.p99", "queue_wait.count") * 1e3,
        "serve.batch_size_mean":
            weighted("batch_size.mean", "batch_size.count"),
        "serve.batches_dispatched": totals.get("batches_dispatched", 0),
        "serve.fallbacks": totals.get("fallbacks", 0),
        "serve.requests_expired": totals.get("requests.expired", 0),
        "serve.cache_disk_hits": totals.get("cache.disk_hits", 0),
        "serve.cache_compile_misses": totals.get("cache.compile_misses", 0),
        "cluster.submit_call_p50_us": percentile(submit_us, 50),
        "cluster.submit_call_p99_us": percentile(submit_us, 99),
        "cluster.start_ms": median([f.start_s for f in fleets]) * 1e3,
        "cluster.first_answer_ms": median([f.first_s for f in fleets]) * 1e3,
        "cluster.stop_ms": fleet.stop_s * 1e3,
        "cluster.shed": sup.get("requests.shed", 0),
        "cluster.deadline_expired": sum(
            v for k, v in {**totals, **sup}.items()
            if k.startswith("deadline.")),
        "cluster.worker_restarts": sum(aggregate["restarts"].values()),
        "cluster.hedge_issued": sup.get("hedge.issued", 0),
        "cluster.hedge_won": sup.get("hedge.won", 0),
        "cluster.hedge_wasted": sup.get("hedge.wasted", 0),
        "cluster.busiest_worker_share":
            max(submitted) / sum(submitted) if sum(submitted) else 0.0,
        "cluster.latency_p99_ms": percentile(ref_ms, 99),
        "cluster.latency_max_ms": max(ref_ms, default=0.0),
        "cluster.latency_p90_ms.hi": percentile(hi_ms, 90),
        "cluster.within_limit_share.hi":
            sum(ms <= rates["limit_ms"] for ms in hi_ms) / len(hi)
            if hi else 0.0,
        "resilience.breaker_trips": totals.get("breaker.open", 0),
        "resilience.retries": (totals.get("cache.compile_retries", 0)
                               + totals.get("lower.retries", 0)),
        "bench.generator_lag_p99_ms": percentile(lag_ms, 99),
    }


def _ladder(workload: str, graphs: dict, feeds: dict, refs: dict,
            fleet: _Fleet, seconds: float, recorder: SpanRecorder,
            result: PassResult) -> dict:
    """The unloaded ladder: the same feeds through the bare plan, the
    session, an in-process server configured as a worker is, and the
    fleet — one call outstanding at every rung.  Each rung's self time is
    its median minus the rung below's, so the four self times sum to the
    fleet's median by construction; what the ladder tells is how that
    total splits."""
    mix = SERVE_MIXES[workload]
    calls = max(10, round(LADDER_CALLS * min(1.0, seconds / 10.0)))
    cfg = fleet.config
    server = build_server(
        WorkerConfig(name="ladder",
                     workloads=WorkerConfig.pack_workloads(graphs),
                     gpu=cfg.gpu, engine=cfg.engine, cache_dir=cfg.cache_dir,
                     tune_db_dir=cfg.tune_db_dir, max_batch=cfg.max_batch,
                     max_wait_ms=cfg.max_wait_ms,
                     threads=cfg.threads_per_worker,
                     max_queue_depth=cfg.worker_queue_depth),
        ServeMetrics())
    rungs: dict[str, dict[str, float]] = {r: {} for r in
                                          ("plan", "session", "server",
                                           "fleet")}
    server.start()
    try:
        for name in graphs:
            session = server.session(name)
            if not session.ensure_compiled(REQUEST_TIMEOUT_S):
                result.problem(f"ladder: session {name} did not compile")
                continue
            sup = fleet.supervisor
            calls_by_rung = {
                "plan": ("runtime.plan_execute", plan_call(session)),
                "session": ("serve.session_execute", session_call(session)),
                "server": ("serve.server_infer", lambda f, n=name: _outputs(
                    server.infer(n, f, timeout=REQUEST_TIMEOUT_S))),
                "fleet": ("cluster.infer", lambda f, n=name: _outputs(
                    sup.infer(n, f, timeout=REQUEST_TIMEOUT_S))),
            }
            for rung, (span_name, call) in calls_by_rung.items():
                times, bad = timed_block(call, feeds[name], refs[name], calls,
                                         recorder, span_name, workload=name)
                rungs[rung][name] = median(times) * 1e3
                result.attempted += calls
                result.failed += bad
    finally:
        server.stop()
    if any(len(r) != len(graphs) for r in rungs.values()):
        return {}
    plan, session, srv, flt = (_mix_mean(mix, rungs[r]) for r in
                               ("plan", "session", "server", "fleet"))
    return {
        "runtime.execute_ms": plan,
        "serve.session_self_us": (session - plan) * 1e3,
        "serve.server_infer_ms": srv,
        "serve.queue_batch_self_ms": srv - session,
        "cluster.infer_ms": flt,
        "cluster.wire_self_ms": flt - srv,
        # Graphs that are also exec_inproc shapes fill that shape's row.
        **{f"runtime.execute_ms.{n}": ms for n, ms in rungs["plan"].items()
           if mix[n][0] is SUBGRAPHS.get(n)},
    }


def _outputs(reply):
    return None if reply.degraded else reply.outputs
