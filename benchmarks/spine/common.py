"""Shared plumbing: statistics, the span recorder, scratch space, the stamp.

Nothing here knows about a particular workload.
"""

from __future__ import annotations

import contextlib
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import schedule_unfused_primitive
from repro.hw import AMPERE
from repro.obs import Span, Tracer, validate_chrome_trace, write_chrome_trace
from repro.pipeline import simulate

SPINE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parent.parent
#: BLAS/OpenMP pins; run.py exports them before numpy is imported.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: How often a workload sets itself up in one run; setup_s is the median.
SETUP_REPEATS = 3
#: Outputs must match the unfused f64 reference this closely, relative to
#: the output's own magnitude when that exceeds 1 (the eight-layer MLP
#: reaches 1e7, where 1e-8 absolute would be below f64 rounding).
TOLERANCE = 1e-8


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def chunks(values: list, k: int) -> list[list]:
    """``values`` (in time order) cut into at most ``k`` contiguous runs
    of equal length; fewer when there are not ``k`` values."""
    k = max(1, min(k, len(values)))
    edges = [round(i * len(values) / k) for i in range(k + 1)]
    return [values[a:b] for a, b in zip(edges, edges[1:])]


def steady_percentile(slices: list[list[float]], q: float) -> float:
    """Median over ``slices`` of each slice's ``q``-th percentile.

    Every timing the benchmark reports is built this way: the machine it
    runs on stalls for tenths of a second at a time, a stall lands in one
    slice, and the median over slices is what the program does when it is
    left alone.  The tail a stall causes is reported per layer instead.
    """
    return median([percentile(s, q) for s in slices if s])


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced if untraced else 0.0


def max_abs_err(got: dict, expected: dict) -> float:
    """Largest deviation over the expected outputs, each scaled by
    ``max(1, max|expected|)`` (inf when an output is missing, mis-shaped
    or non-finite)."""
    worst = 0.0
    for name, ref in expected.items():
        arr = got.get(name)
        if arr is None or arr.shape != ref.shape:
            return math.inf
        if not ref.size:
            continue
        err = float(np.max(np.abs(arr - ref)))
        if not math.isfinite(err):
            return math.inf
        worst = max(worst, err / max(1.0, float(np.max(np.abs(ref)))))
    return worst


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class SpanRecorder(Tracer):
    """The benchmark's private span store.

    It is a :class:`repro.obs.Tracer` that is never installed as the
    ambient tracer: the program under test keeps reporting to
    ``NULL_TRACER`` and only the benchmark's own spans, opened around the
    calls it makes into each layer, land here.  ``record`` adds a span
    whose start and end were measured elsewhere (an open-loop request
    runs from its due instant to its completion callback, on two threads).
    """

    def record(self, name: str, start_s: float, end_s: float,
               category: str = "request", **attrs) -> None:
        sp = self._new_span(name, category, attrs)
        sp.parent_id = None
        sp.start_s, sp.end_s = start_s, max(end_s, start_s + 1e-9)
        with self._lock:
            self._spans.append(sp)


def span(recorder: SpanRecorder | None, name: str, **attrs):
    """A span on ``recorder``, or nothing at all in an untraced pass."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, category=name.split(".", 1)[0], **attrs)


def ledger(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """``(name, count, total_ms, self_ms)`` per span name, largest first.

    A span's self time is its duration minus the part its child spans
    cover (children run on the parent's thread, so they never overlap).
    """
    children: dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id] = (children.get(sp.parent_id, 0.0)
                                      + sp.duration_s)
    rows: dict[str, list] = {}
    for sp in spans:
        row = rows.setdefault(sp.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.duration_s
        row[2] += sp.duration_s - children.get(sp.span_id, 0.0)
    return sorted(((n, c, t * 1e3, s * 1e3) for n, (c, t, s) in rows.items()),
                  key=lambda r: -r[2])


def write_trace(recorder: SpanRecorder, path: pathlib.Path) -> list[str]:
    """Write the Chrome trace and return the validator's complaints."""
    trace = write_chrome_trace(path, recorder)
    return validate_chrome_trace(trace)


def timed_block(call, feeds: list, refs: list, count: int, recorder,
                span_name: str, warmup: int = 5,
                **attrs) -> tuple[list[float], int]:
    """``count`` timed calls of ``call(feeds[i])`` after ``warmup`` untimed
    ones; returns the durations and how many answers were wrong.  Each
    output is checked against its reference between the timings, not
    inside them; ``call`` returns ``None`` for an answer that did not come
    from the fused plan, and a call that raises is a wrong answer too (the
    first such error of a block is printed)."""
    times, bad, said = [], 0, False
    for i in range(-warmup, count):
        k = i % len(feeds)
        with span(recorder, span_name, id=i, **attrs):
            t0 = time.perf_counter()
            try:
                outputs = call(feeds[k])
            except Exception as exc:  # noqa: BLE001 — counted below
                outputs = None
                if not said:
                    print(f"# {span_name} raised {type(exc).__name__}: {exc}")
                    said = True
            dt = time.perf_counter() - t0
        if i < 0:
            continue
        times.append(dt)
        if outputs is None or max_abs_err(outputs, refs[k]) > TOLERANCE:
            bad += 1
    return times, bad


def modelled_costs(pairs) -> tuple[float, int, float]:
    """``(fused seconds, fused DRAM bytes, unfused seconds)`` summed over
    ``(graph, schedule)`` pairs on the modelled GPU; unfused = every
    operator its own kernel."""
    fused_s, dram, unfused_s = 0.0, 0, 0.0
    for graph, schedule in pairs:
        fused = simulate(schedule, AMPERE)
        fused_s += fused.time_s
        dram += fused.dram_bytes
        unfused_s += simulate(schedule_unfused_primitive(graph, AMPERE),
                              AMPERE).time_s
    return fused_s, dram, unfused_s


# ----------------------------------------------------------------------
# Scratch space, resources, environment
# ----------------------------------------------------------------------

@contextlib.contextmanager
def scratch_dir():
    """A private directory under ``benchmarks/spine/.work``, removed on
    exit: the benchmark reads and writes only inside its checkout."""
    path = SPINE_DIR / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest waited-for
    child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def calibration_ms() -> float:
    """A fixed piece of interpreter and BLAS work (~25 ms on a quiet core),
    timed so a reader can tell a slow machine from a slow program: the
    sandbox this was sized on drifts between 1.0x and 1.6x for half a
    minute at a time.  Not used to correct any metric."""
    a = np.full((192, 192), 1.0 / 192)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        for _ in range(12):
            a = a @ a
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (git
    is told not to look for one above it)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO_ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# What one pass of a workload hands back
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    """One (traced or untraced) pass over a workload."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: False when an exactness or accounting check broke (not a mere
    #: failed request — those are counted in ``failed``).
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    #: Things a reader should know that do not make the run incorrect.
    notes: list[str] = field(default_factory=list)
    #: Window lengths, sample counts and whatever else explains the run.
    info: dict = field(default_factory=dict)

    def problem(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)
