"""Run the benchmark twice on the same code and check it against itself.

    python3 benchmarks/spine/repeat.py            # 2 sets x 10 seeds each
    python3 benchmarks/spine/repeat.py --runs 4 --workloads serve_light

A *set* runs every workload once per seed (``--runs`` different seeds;
set 1 is finished before set 2 begins) and keeps, per end-to-end metric, the median over the seeds and the
spread — the distance between the first and third quartile as a share
of the median.  Two checks, the ones the acceptance driver applies:

* every spread (``setup_s`` excepted) stays within the metric's bound;
* the second set's median is not worse than the first's by more than the
  bound.

The table it prints is the baseline in the README.  Exit status 1 on a
breach, on a run that reports ``correct: false`` or on a failed request.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

SPINE = pathlib.Path(__file__).resolve().parent
ROOT = SPINE.parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(SPINE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    delta = (second - first) / first if first else 0.0
    return delta if better == "lower" else -delta


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per workload and set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    # Set-major, as the driver runs it: all of set 1, then all of set 2,
    # so the two medians of a pairing are many minutes apart.
    breaches = 0
    wall_s = 0.0
    sets: list[dict[str, dict[str, list[float]]]] = []
    for s in range(2):
        sets.append({})
        for workload in args.workloads:
            values = sets[s].setdefault(workload, {})
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                t0 = time.perf_counter()
                out = run_once(workload, seed, args.seconds)
                wall_s += time.perf_counter() - t0
                if not out["correct"] or out["failed"]:
                    print(f"BREACH {workload} seed {seed}: correct="
                          f"{out['correct']} failed={out['failed']}")
                    breaches += 1
                for name, m in out["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"# set {s + 1} {workload}: {args.runs} runs done, "
                  f"{wall_s:.0f} s so far", flush=True)

    print(f"{'workload':<13} {'metric':<17} {'unit':<5} {'set 1':>12} "
          f"{'set 2':>12} {'worse by':>9} {'spread 1':>9} {'spread 2':>9} "
          f"{'bound':>8}")
    for workload in args.workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            runs = [s[workload][name] for s in sets]
            med = [statistics.median(v) for v in runs]
            spr = [spread(v) if args.runs > 1 else 0.0 for v in runs]
            worse = worse_by(med[0], med[1], m["better"])
            flags = []
            if worse > bound:
                flags.append("MEDIAN")
            if name != "setup_s" and max(spr) > bound:
                flags.append("SPREAD")
            breaches += len(flags)
            print(f"{workload:<13} {name:<17} {m['unit']:<5} {med[0]:>12.4f} "
                  f"{med[1]:>12.4f} {worse:>+9.2%} {spr[0]:>9.2%} "
                  f"{spr[1]:>9.2%} {bound:>8.0e} {' '.join(flags)}")
    print(f"# {2 * args.runs * len(args.workloads)} runs, {wall_s:.0f} s")
    print("OK" if not breaches else f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
