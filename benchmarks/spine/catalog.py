"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the normative copy the driver
reads; this module is the same list with the two things that file has no
key for — which layer a per-layer metric belongs to and which end-to-end
metric, on which workload, it is expected to move.  The smoke test checks
that the two agree.
"""

from __future__ import annotations

from typing import NamedTuple

LOWER, HIGHER = "lower", "higher"


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: regression bound (share of the parent's median).
    #: Per-layer: ``None`` (informational).
    bound: float | None
    #: What the number means (end-to-end) or which end-to-end metric, on
    #: which workload, it should move (per-layer).
    note: str


WORKLOADS = (
    Workload("compile_cold",
             "search from scratch over the model zoo and seven subgraphs: "
             "core and hw do all the work, tune/runtime/serve/cluster none"),
    Workload("compile_warm",
             "same inputs read back through a filled TuneDB and "
             "ScheduleCache: store reads in the window, writes in setup_s"),
    Workload("exec_inproc",
             "closed loop, one thread, six eager sessions: runtime and "
             "codegen only; the bypass for every serve/cluster change"),
    Workload("serve_heavy",
             "forked 2-worker fleet, execute-dominated mha/softmax-gemm "
             "requests with 1.3-1.5 MB feeds: runtime and pipe serialisation "
             "dominate"),
    Workload("serve_light",
             "same fleet, sub-millisecond plans: cluster and serve overhead "
             "is the whole latency; a runtime change must not show here"),
)

#: A *request* is one compile of a model or subgraph (``compile_*``), one
#: ``InferenceSession.execute`` (``exec_inproc``) or one fleet request
#: (``serve_*``).  Every workload reports every metric.
END_TO_END = (
    Metric("setup_s", "s", LOWER, 0.25,
           "median of repeated set-ups: graph build (+ cache fill on "
           "compile_warm, eager compile+lower on exec_inproc, fleet start + "
           "cold first answers + warm-up on serve_*)"),
    Metric("latency_p50_ms", "ms", LOWER, 0.25,
           "median request time; serve_*: ref phase, from the due instant; "
           "exec_inproc: geomean over shapes of the per-shape median"),
    Metric("throughput_rps", "1/s", HIGHER, 0.25,
           "verified-correct requests per second; serve_*: median over the "
           "closed-loop slices; compile_*: items over the median pass time"),
    Metric("modelled_dram_mb", "MB", LOWER, 1e-6,
           "summed modelled DRAM traffic of the schedules the workload "
           "uses; exact, so the bound only stands for 'no increase'"),
    Metric("modelled_speedup", "x", HIGHER, 1e-6,
           "modelled unfused time / modelled fused time of those schedules "
           "(base: baselines.unfused_time_ms); exact"),
    Metric("peak_rss_mb", "MB", LOWER, 0.10,
           "ru_maxrss of the benchmark process plus its largest child"),
)

_C, _W = "compile_cold", "compile_warm"
_X, _H, _L = "exec_inproc", "serve_heavy", "serve_light"


def _m(name: str, unit: str, note: str, better: str = LOWER) -> Metric:
    return Metric(name, unit, better, None, note)


PER_LAYER = (
    # ir -----------------------------------------------------------------
    _m("ir.build_ms", "ms", f"setup_s on {_C}/{_W}"),
    _m("ir.ops_total", "count", "size of what core is handed (exact)"),
    _m("ir.unique_subprograms", "count", "size of what core is handed (exact)"),
    # core ---------------------------------------------------------------
    _m("core.smg_build_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("core.spatial_slice_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("core.temporal_slice_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("core.enum_cfg_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("core.memory_plan_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("core.partitioning_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("core.analysis_ms", "ms", "sum of the six phase rows above"),
    _m("core.configs_evaluated", "count", f"throughput_rps on {_C} (exact)"),
    _m("core.configs_quit_early", "count", f"throughput_rps on {_C} (exact)",
       HIGHER),
    _m("core.partition_rounds", "count", f"throughput_rps on {_C} (exact)"),
    _m("core.kernels", "count", "modelled_speedup (exact)"),
    _m("core.sim_tuning_wall_s", "s",
       "simulated tuning-campaign wall (exact); cold/warm ratio is the "
       "TuneDB's paper-level saving"),
    _m("core.sched_cache_get_ms", "ms", f"latency/throughput on {_W}"),
    _m("core.sched_cache_put_ms", "ms", f"setup_s on {_W}"),
    _m("core.sched_cache_hits", "count", f"throughput_rps on {_W} (exact)",
       HIGHER),
    _m("core.schedule_json_kb", "kB", f"setup_s, latency on {_W} (exact)"),
    # hw -----------------------------------------------------------------
    _m("hw.kernel_time_calls", "count",
       f"throughput_rps on {_C}; ~0 on {_W} (exact)"),
    _m("hw.kernel_time_ms", "ms", f"throughput_rps on {_C}; ~0 on {_W}"),
    _m("hw.program_cost_ms", "ms", f"latency/throughput on {_C}, {_W}"),
    _m("hw.modelled_time_ms", "ms",
       "summed modelled GPU time of the chosen schedules (exact); "
       "numerator base of modelled_speedup"),
    _m("hw.l1_hit_rate", "ratio", "explains modelled_dram_mb (exact)", HIGHER),
    _m("hw.l2_hit_rate", "ratio", "explains modelled_dram_mb (exact)", HIGHER),
    _m("hw.kernel_launches", "count", "explains modelled_speedup (exact)"),
    # tune ---------------------------------------------------------------
    _m("tune.db_get_ms", "ms", f"latency/throughput on {_W}"),
    _m("tune.db_put_ms", "ms", f"setup_s on {_W}"),
    _m("tune.db_hits", "count", f"throughput_rps on {_W} (exact)", HIGHER),
    _m("tune.db_misses", "count", f"throughput_rps on {_W} (exact)"),
    _m("tune.hit_ratio", "ratio", f"throughput_rps on {_W} (exact)", HIGHER),
    _m("tune.configs_identical", "bool",
       "1 iff every later pass chose JSON-identical schedules to the first "
       "cold compile", HIGHER),
    # baselines ----------------------------------------------------------
    _m("baselines.unfused_time_ms", "ms",
       "base of modelled_speedup (exact)"),
    # codegen ------------------------------------------------------------
    _m("codegen.source_lines", "count", f"latency_p50_ms on {_X} (exact)"),
    _m("codegen.segments", "count", f"latency_p50_ms on {_X} (exact)"),
    # runtime ------------------------------------------------------------
    _m("runtime.lower_ms", "ms", f"setup_s on {_X}, {_H}, {_L}"),
    _m("runtime.plan_cache_hit_us", "us", f"setup_s on {_X}"),
    _m("runtime.execute_ms.mlp", "ms", f"latency_p50_ms on {_X}"),
    _m("runtime.execute_ms.lstm", "ms", f"latency_p50_ms on {_X}"),
    _m("runtime.execute_ms.layernorm", "ms", f"latency_p50_ms on {_X}"),
    _m("runtime.execute_ms.mha", "ms",
       f"latency_p50_ms on {_X}; latency/throughput on {_H}, not {_L}"),
    _m("runtime.execute_ms.mha-decode", "ms", f"latency_p50_ms on {_X}"),
    _m("runtime.execute_ms.mha-long", "ms", f"latency_p50_ms on {_X}"),
    _m("runtime.execute_ms", "ms",
       f"ladder rung 1 (mix-weighted plan execute) on {_H}, {_L}"),
    _m("runtime.publish_kb", "kB", "output bytes per request (exact)"),
    _m("runtime.aliased_outputs", "count",
       "shapes whose published output the same thread's next request "
       "overwrites (exact; expected 0 - each one is wrong answers under "
       "pipelined serving)"),
    # serve --------------------------------------------------------------
    _m("serve.session_self_us", "us",
       f"latency_p50_ms on {_X}; ladder rung 2"),
    _m("serve.server_infer_ms", "ms", f"latency_p50_ms on {_L}"),
    _m("serve.queue_batch_self_ms", "ms",
       f"latency_p50_ms on {_L}; ladder rung 3"),
    _m("serve.queue_wait_p50_ms", "ms", f"latency_p90_ms on {_H}, {_L}"),
    _m("serve.queue_wait_p99_ms", "ms", f"latency_p90_ms on {_H}, {_L}"),
    _m("serve.batch_size_mean", "count", f"throughput_rps on {_H}", HIGHER),
    _m("serve.batches_dispatched", "count", f"throughput_rps on {_H}"),
    _m("serve.fallbacks", "count", "failed requests"),
    _m("serve.requests_expired", "count", "failed requests"),
    _m("serve.cache_disk_hits", "count", f"setup_s on {_H}, {_L}", HIGHER),
    _m("serve.cache_compile_misses", "count", f"setup_s on {_H}, {_L}"),
    # cluster ------------------------------------------------------------
    _m("cluster.infer_ms", "ms",
       f"latency_p50_ms on {_L}; sum of the four ladder rungs"),
    _m("cluster.wire_self_ms", "ms", f"latency_p50_ms on {_L}; ladder rung 4"),
    _m("cluster.submit_call_p50_us", "us",
       f"latency_p50_ms, throughput_rps on {_H}"),
    _m("cluster.submit_call_p99_us", "us",
       f"latency_p90_ms on {_H}; generator stalls"),
    _m("cluster.payload_kb", "kB", f"latency/throughput on {_H} (exact)"),
    _m("cluster.start_ms", "ms", f"setup_s on {_H}, {_L}"),
    _m("cluster.first_answer_ms", "ms", f"setup_s on {_H}, {_L}"),
    _m("cluster.stop_ms", "ms", "fleet drain + stop (outside setup_s)"),
    _m("cluster.setup_retries", "count",
       "fleet set-ups that raised (a worker not ready in 30 s, a failed "
       "warm-up request) and were done again; expected 0"),
    _m("cluster.shed", "count", "failed requests"),
    _m("cluster.deadline_expired", "count", "failed requests"),
    _m("cluster.worker_restarts", "count", "failed requests"),
    _m("cluster.hedge_issued", "count", f"throughput_rps on {_H}, {_L}"),
    _m("cluster.hedge_won", "count", f"latency_p90_ms on {_H}, {_L}", HIGHER),
    _m("cluster.hedge_wasted", "count", f"throughput_rps on {_H}, {_L}"),
    _m("cluster.busiest_worker_share", "ratio",
       f"throughput_rps on {_H}, {_L}"),
    _m("cluster.latency_p99_ms", "ms", "ref-phase tail (informational)"),
    _m("cluster.latency_max_ms", "ms", "ref-phase tail (informational)"),
    _m("cluster.latency_p90_ms.hi", "ms", "near-knee latency (informational)"),
    _m("cluster.within_limit_share.hi", "ratio",
       "share of hi-phase requests sent that were answered correctly "
       "within 50 ms (heavy) / 25 ms (light)", HIGHER),
    # resilience ---------------------------------------------------------
    _m("resilience.breaker_trips", "count", "failed requests (expected 0)"),
    _m("resilience.retries", "count", "failed requests (expected 0)"),
    # obs ----------------------------------------------------------------
    _m("obs.tracer_on_overhead_pct", "%",
       f"latency_p50_ms on {_X}: mha-decode with a live repro.obs.Tracer "
       "installed versus NULL_TRACER"),
    # bench --------------------------------------------------------------
    _m("bench.generator_lag_p99_ms", "ms",
       "how late the open-loop generator ran (ref phase)"),
    _m("bench.samples", "count", "requests behind latency_p50_ms"),
    _m("bench.latency_p90_ms", "ms",
       "p90 request time, same population and slicing as latency_p50_ms; "
       "demoted from end-to-end: its ten-seed spread on serve_heavy was "
       "31.7 % against the 25 % ceiling in the first acceptance run"),
    _m("bench.failed_share", "ratio",
       "(errors + sheds + wrong + lost/duplicated + fallbacks + compile "
       "failures) / attempted; expected 0"),
    _m("bench.calibration_ms", "ms",
       "a fixed interpreter+BLAS loop timed before and after the run: the "
       "machine's speed, to tell a slow machine from a slow program"),
    _m("bench.compile_s", "s", f"median wall time of one pass on {_C}, {_W}"),
    _m("bench.trace_overhead_pct", "%",
       "latency_p50_ms of the traced pass versus the untraced pass of the "
       "same run"),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def benchmark_json(run_seconds: int) -> dict:
    """What ``BENCHMARK.json`` must contain for this catalog."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
