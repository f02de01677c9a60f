"""Open-loop load harness for the sharded serving cluster.

``repro loadtest`` drives a :class:`~repro.cluster.ClusterSupervisor`
with **open-loop** Poisson traffic: arrival times are drawn up front
from a seeded exponential distribution at the configured RPS and each
request is fired at its scheduled instant *whether or not* earlier
requests have completed.  Unlike closed-loop benchmarks (which
self-throttle and hide queueing collapse), an open-loop generator keeps
offering load when the system slows down — tail latency and shed rate
under that pressure are the numbers that matter for capacity planning.

Requests are spread over a mixed workload zoo (MLP / LayerNorm /
softmax-GEMM, chaos-sized so compiles are quick) and a handful of
tenants, so the run exercises sharding, admission fairness, and the
shared schedule cache together.  Completions are pushed through
:attr:`~repro.serve.batching.Request.on_done` — the harness never blocks
a thread per request, so it can offer thousands of RPS from one process.

Every accepted request is verified against a float64 reference oracle
and the report (``BENCH_serving.json``) asserts the cluster's delivery
invariants: zero lost requests (every accepted request completed), zero
duplicated responses (exactly one resolution each), zero wrong answers.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterConfig, ClusterShed, ClusterSupervisor
from ..models import layernorm_graph, mlp_graph, softmax_gemm_graph
from ..runtime.kernels import execute_graph_reference, random_feeds
from ..runtime.oracle import outputs_match
from ..serve import WorkerCrashed

#: The mixed zoo: name → (graph factory, traffic weight).  Sizes match
#: the chaos workloads — the harness measures the serving tier, not
#: kernel throughput, so compiles must be fast enough for CI.
LOAD_WORKLOADS = {
    "mlp": (lambda: mlp_graph(3, 64, 32, 48, name="load_mlp"), 0.5),
    "layernorm": (lambda: layernorm_graph(48, 64, name="load_ln"), 0.3),
    "softmax_gemm": (lambda: softmax_gemm_graph(32, 24, 16,
                                                name="load_sg"), 0.2),
}


class LoadgenError(Exception):
    """Raised on harness misuse (bad rps/duration, unknown workload)."""


@dataclass
class LoadConfig:
    """One load-test experiment, fully determined by (config, seed)."""

    rps: float = 50.0
    duration_s: float = 5.0
    workers: int = 2
    seed: int = 0
    #: Per-request timeout handed to the cluster (None = no deadline).
    timeout_s: float | None = 30.0
    #: Distinct reference feed seeds per workload (arrivals cycle them).
    ref_seeds: int = 4
    tenants: int = 3
    gpu: str = "ampere"
    engine: str = "compiled"
    #: Shared schedule-cache dir (None = fresh temp dir per run).
    cache_dir: str | None = None
    #: How long to wait for stragglers after the last arrival before the
    #: run is declared to have lost requests.
    settle_timeout_s: float = 30.0
    cluster: ClusterConfig | None = None

    def __post_init__(self) -> None:
        if self.rps <= 0:
            raise LoadgenError("rps must be > 0")
        if self.duration_s <= 0:
            raise LoadgenError("duration must be > 0")
        if self.workers < 1:
            raise LoadgenError("workers must be >= 1")
        if self.ref_seeds < 1 or self.tenants < 1:
            raise LoadgenError("ref_seeds and tenants must be >= 1")


@dataclass
class LoadReport:
    """Everything one load run observed, plus the delivery verdicts."""

    config: dict
    offered: int = 0
    accepted: int = 0
    completed: int = 0
    ok_requests: int = 0
    degraded: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    crashed: int = 0
    errors: int = 0
    error_kinds: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    lost: int = 0
    duplicated: int = 0
    elapsed_s: float = 0.0
    throughput_rps: float = 0.0
    offered_rps: float = 0.0
    latency: dict = field(default_factory=dict)
    shed_rate: float = 0.0
    breaker_trips: int = 0
    worker_restarts: int = 0
    worker_crashes: int = 0
    cache: dict = field(default_factory=dict)
    hedges: dict = field(default_factory=dict)
    deadlines: dict = field(default_factory=dict)
    wire: dict = field(default_factory=dict)
    per_workload: dict = field(default_factory=dict)
    placement: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The delivery invariants: nothing lost, duplicated, or wrong,
        and the cluster actually served traffic."""
        return (self.lost == 0 and self.duplicated == 0
                and not self.wrong and self.ok_requests > 0)

    def to_dict(self) -> dict:
        return {
            "experiment": "serving_loadtest",
            "ok": self.ok,
            "config": self.config,
            "offered": self.offered,
            "accepted": self.accepted,
            "completed": self.completed,
            "ok_requests": self.ok_requests,
            "degraded": self.degraded,
            "shed": self.shed,
            "shed_reasons": self.shed_reasons,
            "shed_rate": self.shed_rate,
            "crashed": self.crashed,
            "errors": self.errors,
            "error_kinds": self.error_kinds,
            "wrong": self.wrong[:20],
            "lost": self.lost,
            "duplicated": self.duplicated,
            "elapsed_s": self.elapsed_s,
            "offered_rps": self.offered_rps,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency,
            "breaker_trips": self.breaker_trips,
            "worker_restarts": self.worker_restarts,
            "worker_crashes": self.worker_crashes,
            "cache": self.cache,
            "hedges": self.hedges,
            "deadlines": self.deadlines,
            "wire": self.wire,
            "per_workload": self.per_workload,
            "placement": self.placement,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        lat = self.latency
        lines = [
            f"loadtest: offered {self.offered} requests "
            f"({self.offered_rps:.1f} rps offered, "
            f"{self.elapsed_s:.2f}s wall)",
            f"  served ok     {self.ok_requests}"
            + (f" ({self.degraded} degraded)" if self.degraded else ""),
            f"  throughput    {self.throughput_rps:.1f} rps",
            f"  shed          {self.shed} "
            f"(rate {self.shed_rate:.3f})"
            + (f" by reason {self.shed_reasons}" if self.shed_reasons
               else ""),
            f"  crashed       {self.crashed}   errors {self.errors}"
            + (f" {self.error_kinds}" if self.error_kinds else ""),
            f"  lost          {self.lost}   duplicated {self.duplicated}"
            f"   wrong {len(self.wrong)}",
        ]
        if lat:
            lines.append(
                f"  latency (ms)  p50={lat['p50_ms']:.2f} "
                f"p95={lat['p95_ms']:.2f} p99={lat['p99_ms']:.2f} "
                f"mean={lat['mean_ms']:.2f} max={lat['max_ms']:.2f}")
        lines.append(
            f"  fleet         breaker_trips={self.breaker_trips} "
            f"restarts={self.worker_restarts} "
            f"crashes={self.worker_crashes}")
        if self.cache:
            lines.append(f"  cache         {self.cache}")
        if self.hedges:
            lines.append(f"  hedges        {self.hedges}")
        if self.deadlines:
            lines.append(f"  deadlines     {self.deadlines}")
        if self.wire:
            lines.append(f"  wire          {self.wire}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


class _Recorder:
    """Thread-safe completion book; ``on_done`` lands here from the
    supervisor's receiver threads."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.lock = threading.Lock()
        self.all_done = threading.Event()
        self.outstanding = 0
        self.closed = False
        self.accepted: list = []          # (request, workload, seed)
        self.latencies: list[float] = []
        self.ok = 0
        self.degraded = 0
        self.crashed = 0
        self.errors = 0
        self.error_kinds: dict[str, int] = {}
        self.wrong: list[str] = []
        self.per_workload: dict[str, dict[str, int]] = {}

    def _wl(self, workload: str) -> dict[str, int]:
        return self.per_workload.setdefault(
            workload, {"ok": 0, "degraded": 0, "errors": 0})

    def track(self, request, workload: str, seed: int) -> None:
        with self.lock:
            self.accepted.append((request, workload, seed))
            self.outstanding += 1

    def complete(self, request, workload: str, seed: int,
                 submitted_at: float) -> None:
        latency = time.monotonic() - submitted_at
        if request.error is not None:
            exc = request.error
            with self.lock:
                if isinstance(exc, WorkerCrashed):
                    self.crashed += 1
                else:
                    self.errors += 1
                    kind = type(exc).__name__
                    self.error_kinds[kind] = (
                        self.error_kinds.get(kind, 0) + 1)
                self._wl(workload)["errors"] += 1
                self._one_done()
            return
        verdict = self._verify(request, workload, seed)
        with self.lock:
            self.latencies.append(latency)
            if verdict is None:
                self.ok += 1
                self._wl(workload)["ok"] += 1
                if request.reply.degraded:
                    self.degraded += 1
                    self._wl(workload)["degraded"] += 1
            else:
                self.wrong.append(verdict)
            self._one_done()

    def _one_done(self) -> None:
        self.outstanding -= 1
        if self.closed and self.outstanding <= 0:
            self.all_done.set()

    def close(self) -> None:
        """No more arrivals: all_done fires when in-flight hits zero."""
        with self.lock:
            self.closed = True
            if self.outstanding <= 0:
                self.all_done.set()

    def _verify(self, request, workload: str, seed: int) -> str | None:
        if outputs_match(request.reply.outputs,
                         self.references[(workload, seed)], 1e-8):
            return None
        return (f"request {request.seq} ({workload}): an output is missing, "
                f"non-finite or off the reference by more than 1e-8")


def _percentiles(latencies: list[float]) -> dict:
    if not latencies:
        return {}
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return {
        "count": int(arr.size),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
        "max_ms": float(arr.max()),
    }


def _arrival_schedule(config: LoadConfig, workload_names: list[str],
                      weights: list[float]) -> list[tuple[float, str, int]]:
    """Draw the full open-loop plan up front: (offset_s, workload,
    feed seed) per arrival, deterministic in the run seed."""
    rng = np.random.default_rng(config.seed)
    schedule: list[tuple[float, str, int]] = []
    t = float(rng.exponential(1.0 / config.rps))
    probs = np.asarray(weights) / sum(weights)
    while t < config.duration_s:
        workload = workload_names[int(rng.choice(len(workload_names),
                                                 p=probs))]
        schedule.append((t, workload, int(rng.integers(config.ref_seeds))))
        t += float(rng.exponential(1.0 / config.rps))
    return schedule


def run_loadtest(config: LoadConfig | None = None,
                 report_path: str | None = None,
                 workloads: dict | None = None) -> LoadReport:
    """Run one open-loop load experiment against a fresh cluster."""
    config = config or LoadConfig()
    zoo = workloads if workloads is not None else LOAD_WORKLOADS
    if not zoo:
        raise LoadgenError("workload zoo is empty")
    graphs = {name: factory() for name, (factory, _w) in zoo.items()}
    weights = [w for (_f, w) in zoo.values()]
    names = list(zoo)

    # Feeds and float64 reference outputs, precomputed so the hot loop
    # does no graph evaluation of its own.
    feeds = {(n, s): random_feeds(graphs[n], seed=s)
             for n in names for s in range(config.ref_seeds)}
    references = {key: execute_graph_reference(graphs[key[0]], f)
                  for key, f in feeds.items()}
    recorder = _Recorder(references)

    schedule = _arrival_schedule(config, names, weights)
    tenant_names = [f"tenant{i}" for i in range(config.tenants)]

    cluster_config = config.cluster or ClusterConfig(
        workers=config.workers, gpu=config.gpu, engine=config.engine)
    tmp = None
    if cluster_config.cache_dir is None:
        if config.cache_dir is not None:
            cluster_config.cache_dir = config.cache_dir
        else:
            tmp = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
            cluster_config.cache_dir = tmp.name
    if cluster_config.tune_db_dir is None:
        # Fleet-shared tuning database next to the schedule cache: the
        # workers race to compile the same zoo, and the first campaign
        # per kernel feeds every later worker a replay.
        cluster_config.tune_db_dir = str(
            pathlib.Path(cluster_config.cache_dir) / "tunedb")

    report = LoadReport(config={
        "rps": config.rps, "duration_s": config.duration_s,
        "workers": cluster_config.workers, "seed": config.seed,
        "engine": cluster_config.engine, "gpu": cluster_config.gpu,
        "tenants": config.tenants, "ref_seeds": config.ref_seeds,
        "timeout_s": config.timeout_s,
        "workloads": {n: zoo[n][1] for n in names},
    })
    shed_reasons: dict[str, int] = {}
    supervisor = ClusterSupervisor(graphs, cluster_config)
    restore_signals = lambda: None  # noqa: E731
    try:
        supervisor.start()
        # Ctrl-C mid-run drains the fleet instead of orphaning workers.
        restore_signals = supervisor.install_signal_handlers()
        start = time.monotonic()
        for i, (offset, workload, seed) in enumerate(schedule):
            now = time.monotonic()
            wait = start + offset - now
            if wait > 0:
                time.sleep(wait)  # open loop: fire on schedule, always
            report.offered += 1
            submitted_at = time.monotonic()
            try:
                request = supervisor.submit(
                    workload, feeds[(workload, seed)],
                    timeout=config.timeout_s,
                    tenant=tenant_names[i % len(tenant_names)],
                    on_done=lambda r, w=workload, s=seed, t=submitted_at:
                        recorder.complete(r, w, s, t))
                recorder.track(request, workload, seed)
                report.accepted += 1
            except ClusterShed as exc:
                report.shed += 1
                shed_reasons[exc.reason] = (
                    shed_reasons.get(exc.reason, 0) + 1)
        recorder.close()
        recorder.all_done.wait(config.settle_timeout_s)
        report.elapsed_s = time.monotonic() - start
        aggregate = supervisor.aggregate()
    finally:
        restore_signals()
        supervisor.stop()
        if tmp is not None:
            tmp.cleanup()

    # ``on_done`` fires exactly once per request, so anything that never
    # fired is lost and any request resolved twice is a duplicate.
    with recorder.lock:
        report.completed = (recorder.ok + len(recorder.wrong)
                            + recorder.crashed + recorder.errors)
        report.lost = report.accepted - report.completed
        report.duplicated = sum(
            1 for r, _w, _s in recorder.accepted if r.resolutions > 1)
        report.ok_requests = recorder.ok
        report.degraded = recorder.degraded
        report.crashed = recorder.crashed
        report.errors = recorder.errors
        report.error_kinds = dict(recorder.error_kinds)
        report.wrong = list(recorder.wrong)
        report.per_workload = {n: dict(c)
                               for n, c in recorder.per_workload.items()}
        report.latency = _percentiles(recorder.latencies)
    report.shed_reasons = shed_reasons
    report.shed_rate = (report.shed / report.offered
                        if report.offered else 0.0)
    report.offered_rps = (report.offered / report.elapsed_s
                          if report.elapsed_s else 0.0)
    report.throughput_rps = (report.ok_requests / report.elapsed_s
                             if report.elapsed_s else 0.0)
    totals = aggregate["worker_totals"]
    report.breaker_trips = int(totals.get("breaker.open", 0))
    report.worker_restarts = sum(aggregate["restarts"].values())
    report.worker_crashes = int(
        aggregate["supervisor"].get("workers.crashed", 0))
    report.cache = {
        "memory_hits": int(totals.get("cache.memory_hits", 0)),
        "disk_hits": int(totals.get("cache.disk_hits", 0)),
        "compile_misses": int(totals.get("cache.compile_misses", 0)),
        "lock_timeouts": int(totals.get("cache.lock_timeouts", 0)),
    }
    sup_snap = aggregate["supervisor"]
    report.hedges = {
        "issued": int(sup_snap.get("hedge.issued", 0)),
        "won": int(sup_snap.get("hedge.won", 0)),
        "wasted": int(sup_snap.get("hedge.wasted", 0)),
        "suppressed": int(sup_snap.get("hedge.suppressed", 0)),
        "peak_outstanding": int(
            sup_snap.get("gauge.hedge.peak_outstanding", 0)),
        "peak_open_requests": int(
            sup_snap.get("gauge.hedge.peak_open_requests", 0)),
        "max_fraction": cluster_config.hedge_max_fraction,
    }
    report.deadlines = {
        key.split("deadline.", 1)[1]: int(value)
        for key, value in {**sup_snap, **totals}.items()
        if key.startswith("deadline.") and isinstance(value, (int, float))
    }
    report.wire = {
        key.split("wire.", 1)[1]: int(value)
        for key, value in sup_snap.items() if key.startswith("wire.")
    }
    report.placement = aggregate["placement"]

    if report_path:
        report.write(report_path)
    return report
