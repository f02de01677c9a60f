"""Run one workload of the benchmark spine and print every metric by name.

    python3 benchmarks/spine/run.py --workload serve_light --seed 3 \
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation at
all.  ``--trace 1`` runs the workload twice in one process — untraced,
then with the benchmark's own spans around every call it makes into a
layer — and reports the per-layer ledger, the cost of tracing
(``bench.trace_overhead_pct``) and a Chrome trace.  The last line of
standard output is the machine-readable result; everything above it is
for people.  Nothing is written outside ``benchmarks/spine/.work`` (a
scratch directory removed on exit) unless ``--out DIR`` asks for copies
of the report and the trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import sys

# Pin BLAS/OpenMP to one thread before numpy loads; forked fleet workers
# inherit the environment.
for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pin] = "1"

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent.parent / "src"))

import catalog  # noqa: E402
import common  # noqa: E402
import compile_wl  # noqa: E402
import exec_wl  # noqa: E402
import serve_wl  # noqa: E402

RUNNERS = {
    "compile_cold": compile_wl.run_pass,
    "compile_warm": compile_wl.run_pass,
    "exec_inproc": exec_wl.run_pass,
    "serve_heavy": serve_wl.run_pass,
    "serve_light": serve_wl.run_pass,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to copy report.json (and "
                             "trace.json) into")
    return parser.parse_args(argv)


def _metric_lines(title: str, metrics, values: dict) -> list[str]:
    lines = [title]
    for m in metrics:
        lines.append(f"  {m.name:<34} {values[m.name]:>16.6f} {m.unit}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = RUNNERS[args.workload]
    report: dict = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": common.environment_stamp(),
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    calibration = [common.calibration_ms()]
    with common.scratch_dir() as work:
        plain = runner(args.workload, args.seed, args.seconds, None, work)
        passes = [plain]
        report["untraced"] = {"end_to_end": plain.end_to_end,
                              "info": plain.info}
        lines = _metric_lines(
            f"end-to-end ({args.workload}, seed {args.seed}, untraced)",
            catalog.END_TO_END, plain.end_to_end)
        if args.trace:
            recorder = common.SpanRecorder()
            traced = runner(args.workload, args.seed, args.seconds, recorder,
                            work)
            passes.append(traced)
            layer = {m.name: 0.0 for m in catalog.PER_LAYER}
            layer.update(traced.per_layer)
            layer["bench.failed_share"] = (
                sum(p.failed for p in passes)
                / sum(p.attempted for p in passes))
            calibration.append(common.calibration_ms())
            layer["bench.calibration_ms"] = common.median(calibration)
            layer["bench.trace_overhead_pct"] = common.overhead_pct(
                traced.end_to_end["latency_p50_ms"],
                plain.end_to_end["latency_p50_ms"])
            unknown = sorted(set(layer) - {m.name for m in catalog.PER_LAYER})
            if unknown:
                traced.problem(f"metrics not in the catalog: {unknown}")
                for name in unknown:
                    del layer[name]
            trace_path = work / "trace.json"
            complaints = common.write_trace(recorder, trace_path)
            if complaints:
                traced.problem(f"chrome trace invalid: {complaints[:3]}")
            report["traced"] = {"end_to_end": traced.end_to_end,
                                "per_layer": layer, "info": traced.info}
            lines += _metric_lines("per-layer (traced pass)",
                                   catalog.PER_LAYER, layer)
            lines.append("span ledger (traced pass): name, count, total ms, "
                         "self ms")
            for name, count, total_ms, self_ms in common.ledger(
                    recorder.spans()):
                lines.append(f"  {name:<34} {count:>8} {total_ms:>14.3f} "
                             f"{self_ms:>14.3f}")
            lines.append(f"chrome trace: {len(recorder.spans())} spans, "
                         f"{'valid' if not complaints else 'INVALID'}")
            if args.out is not None:
                shutil.copy(trace_path, args.out / "trace.json")

    if not args.trace:
        calibration.append(common.calibration_ms())
    report["calibration_ms"] = calibration

    values = report["traced"]["per_layer"] if args.trace else plain.end_to_end
    listed = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    result = {
        "correct": all(p.correct for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in listed},
    }
    bad = [m.name for m in listed
           if not math.isfinite(float(values[m.name]))]
    if bad:
        result["correct"] = False
        passes[-1].problems.append(f"non-finite metrics: {bad}")
    report["problems"] = [msg for p in passes for msg in p.problems]
    report["notes"] = [msg for p in passes for msg in p.notes]
    report["result"] = result

    print("\n".join(lines))
    stamp = {k: report[k] for k in ("environment", "seed", "seconds",
                                    "calibration_ms")}
    stamp["info"] = {k: report[k]["info"] for k in ("untraced", "traced")
                     if k in report}
    print("stamp: " + json.dumps(stamp, sort_keys=True, default=str))
    for msg in report["problems"]:
        print(f"PROBLEM: {msg}")
    for msg in report["notes"]:
        print(f"NOTE: {msg}")
    if args.out is not None:
        with open(args.out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
