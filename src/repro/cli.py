"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``inspect``  — build a named workload, print its SMG (text or DOT) and
  the temporal-slicing plan;
* ``compile``  — auto-schedule a workload for a GPU and print the schedule
  report plus generated kernel pseudocode;
* ``trace``    — compile a workload under the tracer and print the
  per-phase breakdown (optionally exporting Chrome trace_event JSON);
* ``bench``    — regenerate one paper experiment (``fig11a`` ... ``table6``);
* ``chaos``    — run a seeded fault schedule against a live FusionServer
  and assert the resilience invariants (exactly-once answers, finite
  reference-equal outputs, clean drain);
* ``validate`` — execute a compiled schedule numerically against the
  unfused reference and report the max error (NaN-safe, dtype-aware);
* ``audit``    — statically re-check every compiled schedule against the
  paper invariants (Alg. 1 checkRsrc, section 5.3 UTA completeness,
  section 5.4 memory placement) and differential-test both engines
  against the unfused reference.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .codegen import generate_program_pseudocode
from .core.builder import build_smg
from .core.temporal_slicer import TemporalSliceError, plan_temporal_slice
from .core.viz import schedule_to_text, smg_to_dot
from .hw import ARCHITECTURES, get_gpu
from .models import layernorm_graph, lstm_cell_graph, mha_graph, mlp_graph, softmax_gemm_graph
from .pipeline import compile_for, simulate
from .runtime.executor import execute_schedule
from .runtime.kernels import execute_graph_reference, random_feeds

WORKLOADS = {
    "mha": lambda: mha_graph(2, 8, 512, 512, 64),
    "mha-long": lambda: mha_graph(1, 8, 4096, 4096, 64),
    "layernorm": lambda: layernorm_graph(4096, 4096),
    "mlp": lambda: mlp_graph(8, 4096, 256, 256),
    "lstm": lambda: lstm_cell_graph(1024, 512),
    "softmax-gemm": lambda: softmax_gemm_graph(512, 1024, 64),
}

EXPERIMENTS = {
    "fig2": bench_mod.fig2_motivation,
    "decode": bench_mod.decode_attention,
    "robustness": bench_mod.model_robustness,
    "fig11a": bench_mod.fig11a_mlp,
    "fig11b": bench_mod.fig11b_lstm,
    "fig12": bench_mod.fig12_layernorm,
    "fig13": bench_mod.fig13_mha,
    "fig14": bench_mod.fig14_end_to_end,
    "fig15": bench_mod.fig15_memory_cache,
    "fig16a": bench_mod.fig16a_ablation,
    "fig16b": bench_mod.fig16b_input_sensitivity,
    "fig16c": bench_mod.fig16c_arch_sensitivity,
    "table4": bench_mod.table4_mha_breakdown,
    "table5": bench_mod.table5_model_compile_times,
    "table6": bench_mod.table6_fusion_patterns,
}


def _add_workload_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=sorted(WORKLOADS),
                        help="named evaluation workload")
    parser.add_argument("--gpu", default="ampere",
                        choices=sorted(ARCHITECTURES),
                        help="target architecture (default: ampere)")


def cmd_inspect(args: argparse.Namespace) -> int:
    graph = WORKLOADS[args.workload]()
    smg = build_smg(graph)
    if args.dot:
        print(smg_to_dot(smg))
        return 0
    print(smg.render())
    print(f"\naligned dim groups: {smg.aligned_dim_groups()}")
    for dim in smg.dims:
        chains = smg.a2o_dependency_chains(dim)
        if chains:
            rendered = [[m.reduce_kind for m in c] for c in chains]
            print(f"A2O chains along {dim}: {rendered}")
    for dim in smg.dims:
        try:
            plan = plan_temporal_slice(smg, dim)
        except TemporalSliceError:
            continue
        if plan.stages:
            print(f"\ntemporal plan along {dim}:")
            print(plan.describe())
            break
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    gpu = get_gpu(args.gpu)
    graph = WORKLOADS[args.workload]()
    if args.cache_dir:
        from .core.serialize import ScheduleCache, compile_cached

        cache = ScheduleCache(args.cache_dir)
        schedule, stats = compile_cached(graph, gpu, cache)
        print(f"schedule cache: {'HIT' if stats is None else 'MISS'} "
              f"({cache.hits} hit / {cache.misses} miss in {args.cache_dir})")
    else:
        schedule, stats = compile_for(graph, gpu)
    print(schedule_to_text(schedule))
    counters = simulate(schedule, gpu)
    print(f"\nmodelled cost on {gpu.name}: {counters.summary()}")
    if stats is not None:
        print(f"compile analysis: "
              f"{ {k: f'{v*1e3:.2f}ms' for k, v in stats.phase_times.items()} }")
    if args.pseudocode:
        print("\n" + generate_program_pseudocode(schedule))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Compile a workload with tracing on; print the per-phase breakdown
    (the same span data the Table 4 benchmark consumes) and optionally
    export Chrome trace_event JSON for chrome://tracing / Perfetto."""
    from .bench.compile_time import compile_breakdown_from_trace
    from .obs import (
        Tracer,
        phase_table,
        render_phase_table,
        use_tracer,
        validate_chrome_trace,
        write_chrome_trace,
    )

    gpu = get_gpu(args.gpu)
    graph = WORKLOADS[args.workload]()
    tracer = Tracer()
    with use_tracer(tracer):
        schedule, _stats = compile_for(graph, gpu)

    breakdown = compile_breakdown_from_trace(tracer, schedule)
    span_counts = {name: count for name, count, _total in
                   phase_table(tracer, category="compile")}
    rows = [(phase, span_counts.get(phase, 1), seconds)
            for phase, seconds in
            sorted(breakdown.items(), key=lambda kv: -kv[1])]
    print(render_phase_table(
        rows, title=f"compile breakdown: {args.workload} on {gpu.name} "
                    f"(tuning accounted, analysis wall-clock)"))
    total = sum(breakdown.values())
    print(f"\ntotal compile time: {total:.3f}s "
          f"({schedule.num_kernels} kernel(s))")
    print("\n" + render_phase_table(
        phase_table(tracer, category="compile"),
        title="raw span totals (wall-clock, nested spans overlap)"))
    if args.chrome_trace:
        trace = write_chrome_trace(args.chrome_trace, tracer)
        problems = validate_chrome_trace(trace)
        if problems:
            for p in problems:
                print(f"INVALID chrome trace: {p}", file=sys.stderr)
            return 1
        print(f"\nchrome trace written to {args.chrome_trace} "
              f"({len(trace['traceEvents'])} events) — load it in "
              f"chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serving demo: fire concurrent clients at a FusionServer, verify
    every reply against the unfused reference, print the serve-stats
    report."""
    import threading

    from .runtime.oracle import outputs_match
    from .serve import (
        FusionServer,
        InferenceSession,
        ServeMetrics,
        TieredScheduleCache,
    )

    for name in ("requests", "clients", "workers", "max_batch"):
        if getattr(args, name) < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1",
                  file=sys.stderr)
            return 2

    gpu = get_gpu(args.gpu)
    graph = WORKLOADS[args.workload]()
    metrics = ServeMetrics()
    disk = None
    if args.cache_dir:
        from .core.serialize import ScheduleCache
        disk = ScheduleCache(args.cache_dir)
    cache = TieredScheduleCache(disk=disk, metrics=metrics)
    session = InferenceSession(graph, gpu, cache=cache, metrics=metrics,
                               engine=args.engine)
    server = FusionServer({args.workload: session},
                          max_batch=args.max_batch,
                          max_wait_ms=args.max_wait_ms,
                          workers=args.workers, metrics=metrics)

    requests_per_client = max(1, args.requests // args.clients)
    references = {
        seed: execute_graph_reference(graph, random_feeds(graph, seed=seed))
        for seed in range(requests_per_client)
    }
    wrong = [0]
    wrong_lock = threading.Lock()

    def client(cid: int) -> None:
        for seed in range(requests_per_client):
            feeds = random_feeds(graph, seed=seed)
            reply = server.infer(args.workload, feeds,
                                 timeout=args.timeout)
            if not outputs_match(reply.outputs, references[seed], 1e-8):
                with wrong_lock:
                    wrong[0] += 1

    with server:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(args.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    total = args.clients * requests_per_client
    print(f"served {total} requests from {args.clients} client(s) "
          f"on {gpu.name}: {wrong[0]} wrong answer(s)")
    print()
    print(server.stats_report())
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_prometheus())
        print(f"\nprometheus metrics written to {args.metrics_out}")
    return 1 if wrong[0] else 0


def cmd_tunedb(args: argparse.Namespace) -> int:
    """Inspect / maintain a tuning-database directory."""
    import json

    from .tune import TuneDB

    db = TuneDB(args.dir)
    if args.action == "stats":
        stats = db.disk_stats()
        entries = db.export()
        by_gpu: dict[str, int] = {}
        saved = 0.0
        for entry in entries:
            by_gpu[entry["gpu"]] = by_gpu.get(entry["gpu"], 0) + 1
            saved += entry["tuning_wall_time"]
        print(f"tunedb {args.dir}")
        print(f"  entries:        {stats['disk_entries']}")
        print(f"  size:           {stats['disk_bytes']} bytes")
        print(f"  models:         {stats['model_entries']} entries, "
              f"{stats['model_bytes']} bytes")
        print(f"  stored tuning:  {saved:.4f} simulated seconds "
              f"(saved per warm fleet member)")
        for gpu_key in sorted(by_gpu):
            print(f"  {gpu_key}: {by_gpu[gpu_key]} entries")
    elif args.action == "export":
        print(json.dumps(db.export(), indent=1, sort_keys=True))
    elif args.action == "prune":
        removed = db.prune(max_age_s=args.max_age_s, keep=args.keep)
        print(f"pruned {removed} entries "
              f"({db.disk_stats()['disk_entries']} remain)")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos harness: inject a seeded fault schedule into a live server
    (or, with ``--cluster``, a forked multi-worker fleet), check every
    resilience invariant, write the robustness report."""
    from .resilience.chaos import ChaosError, load_fault_plan, run_chaos

    try:
        if args.cluster:
            from .resilience.cluster_chaos import run_cluster_chaos

            report = run_cluster_chaos(seed=args.seed,
                                       workers=args.workers,
                                       requests=args.requests,
                                       report_path=args.report)
        else:
            plan = load_fault_plan(args.faults) if args.faults else None
            report = run_chaos(seed=args.seed, requests=args.requests,
                               workload=args.workload, fault_plan=plan,
                               queue_depth=args.queue_depth,
                               workers=args.workers,
                               report_path=args.report)
    except ChaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.report:
        print(f"\nreport written to {args.report}")
    return 0 if report.ok else 1


#: Execution dtypes selectable from the command line.
VALIDATE_DTYPES = {
    "float64": np.float64,
    "float32": np.float32,
    "float16": np.float16,
}


def cmd_validate(args: argparse.Namespace) -> int:
    from .runtime.oracle import nan_safe_max_abs_err, tolerance_for

    gpu = get_gpu(args.gpu)
    graph = WORKLOADS[args.workload]()
    schedule, _ = compile_for(graph, gpu)
    feeds = random_feeds(graph, seed=args.seed)
    dtype = VALIDATE_DTYPES[args.dtype]
    # The reference is the oracle: always evaluated in float64.
    ref = execute_graph_reference(graph, feeds)
    if args.engine == "compiled":
        from .runtime import execute_compiled

        env = execute_compiled(schedule, feeds, dtype=dtype)
    else:
        env = execute_schedule(schedule, feeds, dtype=dtype)
    tol = args.tol if args.tol is not None else tolerance_for(dtype, ref)
    # NaN-propagating reduction: a NaN error must survive to the gate, not
    # vanish inside Python's max() (which returns its first argument when
    # the second is NaN).
    worst = 0.0
    for name, expected in ref.items():
        worst = float(np.max([worst, nan_safe_max_abs_err(env[name],
                                                          expected)]))
    print(f"{args.workload} on {gpu.name} [{args.dtype}]: "
          f"{schedule.num_kernels} kernel(s), max abs error {worst:.3e} "
          f"(tol {tol:.3e})")
    if not (worst <= tol):
        print("FAILED: fused schedule diverged from the reference")
        return 1
    print("OK: fused execution matches the unfused reference")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Audit compiled schedules statically and (optionally) run the N-way
    differential oracle over every workload x GPU x engine."""
    from .verify import (
        audit_model,
        audit_program,
        differential_test,
        run_selftest,
    )

    gpu_names = args.gpus or sorted(ARCHITECTURES)
    workloads = args.workloads or sorted(WORKLOADS)
    dtype = VALIDATE_DTYPES[args.dtype]
    failures = 0
    payload: list[dict] = []

    for wname in workloads:
        graph = WORKLOADS[wname]()
        for gname in gpu_names:
            gpu = get_gpu(gname)
            schedule, _ = compile_for(graph, gpu)
            report = audit_program(schedule, gpu, name=wname)
            print(report.render())
            entry = report.to_dict()
            if not report.ok:
                failures += 1
            if args.oracle:
                res = differential_test(graph, gpu, seed=args.seed,
                                        dtype=dtype, schedule=schedule)
                print(res.render())
                entry["oracle_ok"] = res.ok
                if not res.ok:
                    failures += 1
            if args.selftest:
                missed: list[str] = []
                for r in run_selftest(schedule, gpu):
                    if not r.applied:
                        verdict = "no mutation site"
                    elif r.flagged:
                        verdict = ("flagged by "
                                   + ",".join(r.checks_fired))
                    else:
                        verdict = "MISSED"
                        missed.append(r.mutation)
                    print(f"  selftest {r.mutation}: {verdict}")
                entry["selftest_missed"] = missed
                failures += len(missed)
            payload.append(entry)

    if args.zoo:
        from .models.zoo import MODEL_CONFIGS, build_model
        from .pipeline import compile_model_for

        for mname in sorted(MODEL_CONFIGS):
            program = build_model(mname, batch=1, seq=64)
            for gname in gpu_names:
                gpu = get_gpu(gname)
                model = compile_model_for(program, gpu)
                report = audit_model(model, gpu)
                print(report.render())
                payload.append(report.to_dict())
                if not report.ok:
                    failures += 1

    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"failures": failures, "reports": payload},
                      fh, indent=1, sort_keys=True)
        print(f"\njson written to {args.json}")
    if failures:
        print(f"\nAUDIT FAILED: {failures} failing report(s)",
              file=sys.stderr)
        return 1
    print("\naudit clean: every schedule satisfies the paper invariants")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    fn = EXPERIMENTS[args.experiment]
    result = fn()
    print(result.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .bench.summary import generate_report

    text = generate_report(path=args.output, quick=args.quick)
    if args.output:
        print(f"report written to {args.output} "
              f"({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpaceFusion reproduction (EuroSys '25)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print a workload's SMG and plans")
    _add_workload_arg(p)
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz DOT instead of text")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("compile", help="auto-schedule a workload")
    _add_workload_arg(p)
    p.add_argument("--pseudocode", action="store_true",
                   help="also print generated kernel pseudocode")
    p.add_argument("--cache-dir", default=None,
                   help="compile through an on-disk schedule cache "
                        "(prints HIT/MISS)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("trace",
                       help="compile under the tracer and print the "
                            "per-phase breakdown")
    _add_workload_arg(p)
    p.add_argument("--chrome-trace", default=None, metavar="OUT.json",
                   help="also export Chrome trace_event JSON "
                        "(chrome://tracing / Perfetto)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("serve",
                       help="run the concurrent serving demo and print "
                            "its serve-stats report")
    _add_workload_arg(p)
    p.add_argument("--requests", type=int, default=12,
                   help="total requests across all clients (default: 12)")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client threads (default: 4)")
    p.add_argument("--workers", type=int, default=2,
                   help="server worker threads (default: 2)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="dynamic batching: max coalesced batch (default: 8)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="dynamic batching: max wait for stragglers "
                        "(default: 2.0)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds (degrades to the "
                        "unfused reference when compilation misses it)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent schedule cache directory")
    p.add_argument("--metrics-out", default=None, metavar="OUT.prom",
                   help="write a Prometheus text-format metrics dump "
                        "after the demo drains")
    p.add_argument("--engine", default="compiled",
                   choices=["compiled", "interpreter"],
                   help="execution engine for the sessions "
                        "(default: compiled)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("chaos",
                       help="inject a seeded fault schedule into a live "
                            "server and assert resilience invariants")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the server target's compile retry "
                        "jitter; both targets record it in the report "
                        "(default: 0)")
    p.add_argument("--requests", type=int, default=200,
                   help="total request budget across all phases "
                        "(default: 200)")
    p.add_argument("--workload", default="mlp",
                   choices=["mlp", "layernorm"],
                   help="chaos workload (small by design; default: mlp)")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault plan JSON (default: the canned plan that "
                        "arms the seven failpoints the server target "
                        "owns; see docs/resilience.md)")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="admission-control queue bound (default: 8)")
    p.add_argument("--workers", type=int, default=2,
                   help="server worker threads — or, with --cluster, "
                        "forked worker processes (default: 2)")
    p.add_argument("--cluster", action="store_true",
                   help="run the cluster-tier chaos plan instead: forked "
                        "workers, crash/hang recovery, a slow worker, "
                        "end-to-end deadline enforcement (ignores "
                        "--workload/--faults/--queue-depth)")
    p.add_argument("--report", default="BENCH_robustness.json",
                   metavar="OUT.json",
                   help="where to write the robustness report "
                        "(default: BENCH_robustness.json; '' to skip; "
                        "--cluster merges into the file's 'cluster' "
                        "section)")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("validate",
                       help="check fused execution against the reference")
    _add_workload_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="interpreter",
                   choices=["compiled", "interpreter"],
                   help="engine to validate (default: interpreter)")
    p.add_argument("--dtype", default="float64",
                   choices=sorted(VALIDATE_DTYPES),
                   help="execution dtype for the engine under test; the "
                        "reference always runs in float64 (default: "
                        "float64)")
    p.add_argument("--tol", type=float, default=None,
                   help="max-abs-error tolerance (default: dtype-aware, "
                        "scaled by the reference magnitude)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("audit",
                       help="re-check compiled schedules against the "
                            "paper invariants and run the differential "
                            "oracle")
    p.add_argument("--workloads", nargs="*", default=None, metavar="NAME",
                   choices=sorted(WORKLOADS),
                   help="workloads to audit (default: all)")
    p.add_argument("--gpus", nargs="*", default=None, metavar="ARCH",
                   choices=sorted(ARCHITECTURES),
                   help="target architectures (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="feed seed for the differential oracle (default: 0)")
    p.add_argument("--dtype", default="float64",
                   choices=sorted(VALIDATE_DTYPES),
                   help="engine execution dtype for the oracle (default: "
                        "float64)")
    p.add_argument("--no-oracle", dest="oracle", action="store_false",
                   help="skip the differential oracle (static audit only)")
    p.add_argument("--selftest", action="store_true",
                   help="also apply each seeded mutation and require the "
                        "auditor to flag it")
    p.add_argument("--zoo", action="store_true",
                   help="additionally audit every model-zoo transformer "
                        "(static audit; batch=1, seq=64)")
    p.add_argument("--json", default=None, metavar="OUT.json",
                   help="also write all reports as JSON")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("bench", help="regenerate a paper experiment")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("tunedb",
                       help="inspect or maintain a tuning database")
    p.add_argument("action", choices=("stats", "export", "prune"))
    p.add_argument("dir", help="tuning-database directory")
    p.add_argument("--max-age-s", type=float, default=None,
                   dest="max_age_s",
                   help="prune: drop entries older than this many seconds")
    p.add_argument("--keep", type=int, default=None,
                   help="prune: keep only the N most recent entries")
    p.set_defaults(fn=cmd_tunedb)

    p = sub.add_parser("report",
                       help="run every experiment into one markdown report")
    p.add_argument("--output", "-o", default=None,
                   help="write to a file instead of stdout")
    p.add_argument("--quick", action="store_true",
                   help="trim the slowest sweeps")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
