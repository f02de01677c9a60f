"""``compile_cold`` and ``compile_warm``: the compiler as its user sees it.

One *pass* compiles and costs the whole model zoo and the seven
subgraphs.  Cold passes search from scratch; warm passes open fresh
``TuneDB``/``ScheduleCache`` instances on directories the set-up filled,
so the disk tier is what gets read.
"""

from __future__ import annotations

import contextlib
import pathlib
import random
import time

from repro.core.serialize import ScheduleCache, compile_cached, schedule_to_json
from repro.baselines import schedule_unfused_primitive
from repro.hw import AMPERE
from repro.hw.counters import PerfCounters
from repro.hw.simulator import DeviceSimulator
from repro.ir.program import TensorProgram
from repro.pipeline import compile_for, compile_model_for, simulate, simulate_model
from repro.serve import ServeMetrics
from repro.tune import TuneDB

from common import (SETUP_REPEATS, PassResult, SpanRecorder, median,
                    peak_rss_mb, span, steady_percentile)
from inputs import build_models, build_subgraphs

WARM = "compile_warm"
#: Two passes at least, so every exact count is compared with a rerun.
MIN_PASSES = 2
PHASES = ("smg_build", "spatial_slice", "temporal_slice", "enum_cfg",
          "memory_plan", "partitioning")


class _TimedTuneDB(TuneDB):
    """Traced passes hand the compiler this: get/put are timed and spanned."""

    def __init__(self, directory, recorder: SpanRecorder) -> None:
        super().__init__(directory)
        self.recorder = recorder
        self.get_s = self.put_s = 0.0

    def get(self, fingerprint):
        t0 = time.perf_counter()
        with span(self.recorder, "tune.db_get"):
            entry = super().get(fingerprint)
        self.get_s += time.perf_counter() - t0
        return entry

    def put(self, entry) -> None:
        t0 = time.perf_counter()
        with span(self.recorder, "tune.db_put"):
            super().put(entry)
        self.put_s += time.perf_counter() - t0


class _TimedScheduleCache(ScheduleCache):
    def __init__(self, directory, recorder: SpanRecorder) -> None:
        super().__init__(directory)
        self.recorder = recorder
        self.get_s = self.put_s = 0.0

    def get(self, graph, gpu_name, options_repr=""):
        t0 = time.perf_counter()
        with span(self.recorder, "core.sched_cache_get"):
            schedule = super().get(graph, gpu_name, options_repr)
        self.get_s += time.perf_counter() - t0
        return schedule

    def put(self, graph, gpu_name, schedule, options_repr="") -> None:
        t0 = time.perf_counter()
        with span(self.recorder, "core.sched_cache_put"):
            super().put(graph, gpu_name, schedule, options_repr)
        self.put_s += time.perf_counter() - t0


@contextlib.contextmanager
def _timed_kernel_time():
    """Class-level wrapper on ``DeviceSimulator.kernel_time`` — the
    tuner's timing signal — for the length of a traced pass.  Counts and
    sums only: a span per call would be tens of thousands per pass."""
    tally = {"calls": 0, "seconds": 0.0}
    original = DeviceSimulator.kernel_time

    def kernel_time(self, kernel, config=None):
        t0 = time.perf_counter()
        try:
            return original(self, kernel, config)
        finally:
            tally["calls"] += 1
            tally["seconds"] += time.perf_counter() - t0

    DeviceSimulator.kernel_time = kernel_time
    try:
        yield tally
    finally:
        DeviceSimulator.kernel_time = original


def _stores(work: pathlib.Path, tag: str, recorder):
    """Fresh store instances on the directories tagged ``tag``."""
    tdir, sdir = work / f"tunedb-{tag}", work / f"sched-{tag}"
    if recorder is None:
        return TuneDB(tdir), ScheduleCache(sdir)
    return _TimedTuneDB(tdir, recorder), _TimedScheduleCache(sdir, recorder)


class _Pass:
    """Everything one pass over the items produced."""

    def __init__(self, n_items: int) -> None:
        self.item_s = [0.0] * n_items
        self.schedules: list[list] = [[] for _ in range(n_items)]
        self.counters: list[PerfCounters | None] = [None] * n_items
        self.stats: list = [None] * n_items
        self.failed = 0
        self.wall_s = 0.0
        self.cost_s = 0.0
        self.tune_metrics = ServeMetrics()
        self.sched_hits = 0
        self.store_s = {"tune_get": 0.0, "tune_put": 0.0,
                        "sched_get": 0.0, "sched_put": 0.0}
        self.kernel_time = {"calls": 0, "seconds": 0.0}

    def totals(self) -> PerfCounters:
        """Summed in item order, so the float sum does not depend on the
        seed's visiting order."""
        total = PerfCounters(line_bytes=AMPERE.line_bytes)
        for c in self.counters:
            if c is not None:
                total.add(c)
        return total

    def stat_sum(self, attr: str):
        return sum(getattr(s, attr) for s in self.stats if s is not None)

    def phase_ms(self, phase: str) -> float:
        return 1e3 * sum(s.phase_times.get(phase, 0.0)
                         for s in self.stats if s is not None)

    def exact(self) -> dict:
        """The counts that must repeat bit-for-bit from pass to pass."""
        total = self.totals()
        return {
            "configs_evaluated": self.stat_sum("configs_evaluated"),
            "configs_quit_early": self.stat_sum("configs_quit_early"),
            "partition_rounds": self.stat_sum("partition_rounds"),
            "sim_tuning_wall_s": self.stat_sum("tuning_wall_time"),
            "kernels": sum(len(s.kernels) for ss in self.schedules
                           for s in ss),
            "modelled_time_s": total.time_s,
            "dram_bytes": total.dram_bytes,
            "l1_hit_rate": total.l1_hit_rate,
            "l2_hit_rate": total.l2_hit_rate,
            "kernel_launches": total.kernel_launches,
            "tune_hits": self.tune_metrics.get("tunedb.hits"),
            "tune_misses": self.tune_metrics.get("tunedb.misses"),
            "sched_hits": self.sched_hits,
            "kernel_time_calls": self.kernel_time["calls"],
        }

    def jsons(self) -> list[list[str]]:
        return [[schedule_to_json(s) for s in ss] for ss in self.schedules]


def _one_pass(items: list, order: list[int], recorder, tune_db=None,
              sched_cache=None, pass_id: int = 0) -> _Pass:
    out = _Pass(len(items))
    timer = _timed_kernel_time() if recorder is not None \
        else contextlib.nullcontext(out.kernel_time)
    start = time.perf_counter()
    with timer as tally, span(recorder, "bench.pass", id=pass_id):
        for idx in order:
            label, obj = items[idx]
            t0 = time.perf_counter()
            try:
                if isinstance(obj, TensorProgram):
                    with span(recorder, "core.compile_model", item=label):
                        model = compile_model_for(
                            obj, AMPERE, tune_db=tune_db,
                            tune_metrics=out.tune_metrics)
                    t1 = time.perf_counter()
                    with span(recorder, "hw.simulate_model", item=label):
                        out.counters[idx] = simulate_model(model, AMPERE)
                    out.stats[idx] = model.stats
                    out.schedules[idx] = [s.schedule
                                          for s in model.subprograms]
                else:
                    with span(recorder, "core.compile_graph", item=label):
                        if sched_cache is not None:
                            schedule, stats = compile_cached(
                                obj, AMPERE, sched_cache)
                        else:
                            schedule, stats = compile_for(obj, AMPERE)
                    t1 = time.perf_counter()
                    with span(recorder, "hw.simulate", item=label):
                        out.counters[idx] = simulate(schedule, AMPERE)
                    out.stats[idx] = stats
                    out.schedules[idx] = [schedule]
                out.cost_s += time.perf_counter() - t1
            except Exception as exc:  # noqa: BLE001 — a failed item is counted
                out.failed += 1
                print(f"# compile of {label} failed: "
                      f"{type(exc).__name__}: {exc}")
            out.item_s[idx] = time.perf_counter() - t0
    out.wall_s = time.perf_counter() - start
    out.kernel_time = dict(tally)
    if sched_cache is not None:
        out.sched_hits = sched_cache.hits
    for key, store, attr in (("tune_get", tune_db, "get_s"),
                             ("tune_put", tune_db, "put_s"),
                             ("sched_get", sched_cache, "get_s"),
                             ("sched_put", sched_cache, "put_s")):
        out.store_s[key] = getattr(store, attr, 0.0)
    return out


def _unfused_time_s(items: list, fused: _Pass) -> float:
    """Modelled time of the same programs with every operator its own
    kernel.  Barrier subprograms are pure data movement and cost the same
    either way, so they keep the compiled schedule's cost."""
    total = 0.0
    for idx, (_label, obj) in enumerate(items):
        if isinstance(obj, TensorProgram):
            subs = obj.unique_subprograms()
            for sub, schedule in zip(subs, fused.schedules[idx]):
                if any(op.is_barrier for op in sub.graph.ops):
                    cost = simulate(schedule, AMPERE)
                else:
                    cost = simulate(
                        schedule_unfused_primitive(sub.graph, AMPERE), AMPERE)
                total += cost.time_s * sub.occurrences
        else:
            total += simulate(schedule_unfused_primitive(obj, AMPERE),
                              AMPERE).time_s
    return total


def run_pass(workload: str, seed: int, seconds: float,
             recorder: SpanRecorder | None, work: pathlib.Path) -> PassResult:
    warm = workload == WARM
    tag = "traced" if recorder is not None else "plain"

    # -- set-up, several times over; the last one is kept ----------------
    setup_s, build_ms, fills = [], [], []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with span(recorder, "ir.build", rep=rep):
            items = [*build_models().items(), *build_subgraphs().items()]
        build_ms.append((time.perf_counter() - t0) * 1e3)
        order = list(range(len(items)))
        random.Random(seed).shuffle(order)
        if warm:
            with span(recorder, "bench.cache_fill", rep=rep):
                fills.append(_one_pass(
                    items, order, recorder,
                    *_stores(work, f"{tag}-{rep}", recorder), pass_id=-1))
        setup_s.append(time.perf_counter() - t0)
    fill = fills[-1] if warm else None

    # -- the timed window -------------------------------------------------
    passes: list[_Pass] = []
    window_start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - window_start < seconds):
        stores = _stores(work, f"{tag}-{SETUP_REPEATS - 1}", recorder) \
            if warm else ()
        passes.append(_one_pass(items, order, recorder, *stores,
                                pass_id=len(passes)))
    window_s = time.perf_counter() - window_start

    # -- checks -------------------------------------------------------------
    result = PassResult()
    result.attempted = len(items) * len(passes)
    result.failed = sum(p.failed for p in passes)
    first = passes[0].exact()
    for i, p in enumerate(passes[1:], start=1):
        for key, value in p.exact().items():
            if value != first[key]:
                result.problem(f"pass {i}: {key} = {value!r}, "
                               f"pass 0 had {first[key]!r}")
    # Warm schedules must be the cold compile's; cold ones must repeat.
    reference = (fill or passes[0]).jsons()
    identical = (passes[0] if warm else passes[1]).jsons() == reference
    if not identical:
        result.problem("schedules are not JSON-identical to the first "
                       "cold compile")
    if warm:
        cold = fill.exact()
        for key in ("modelled_time_s", "dram_bytes", "kernels"):
            if cold[key] != first[key]:
                result.problem(f"warm {key} = {first[key]!r} differs from "
                               f"the cold compile's {cold[key]!r}")

    # -- metrics ------------------------------------------------------------
    item_ms = [[t * 1e3 for t in p.item_s] for p in passes]
    pass_s = median([p.wall_s for p in passes])
    unfused_s = _unfused_time_s(items, passes[0])
    total = passes[0].totals()
    result.end_to_end = {
        "setup_s": median(setup_s),
        "latency_p50_ms": steady_percentile(item_ms, 50),
        "throughput_rps": len(items) / pass_s,
        "modelled_dram_mb": total.dram_bytes / 1e6,
        "modelled_speedup": unfused_s / total.time_s,
        "peak_rss_mb": peak_rss_mb(),
    }

    def per_pass(fn) -> float:
        return median([fn(p) for p in passes])

    models = [obj for _l, obj in items if isinstance(obj, TensorProgram)]
    graphs = [obj for _l, obj in items if not isinstance(obj, TensorProgram)]
    uniq = [s for prog in models for s in prog.unique_subprograms()]
    layer = {f"core.{ph}_ms": per_pass(lambda p, ph=ph: p.phase_ms(ph))
             for ph in PHASES}
    layer["core.analysis_ms"] = sum(layer.values())
    hits, misses = first["tune_hits"], first["tune_misses"]
    layer.update({
        "ir.build_ms": median(build_ms),
        "ir.ops_total": (sum(len(s.graph.ops) for s in uniq)
                         + sum(len(g.ops) for g in graphs)),
        "ir.unique_subprograms": len(uniq) + len(graphs),
        "core.configs_evaluated": first["configs_evaluated"],
        "core.configs_quit_early": first["configs_quit_early"],
        "core.partition_rounds": first["partition_rounds"],
        "core.kernels": first["kernels"],
        "core.sim_tuning_wall_s": first["sim_tuning_wall_s"],
        "core.sched_cache_get_ms":
            1e3 * per_pass(lambda p: p.store_s["sched_get"]),
        "core.sched_cache_put_ms":
            1e3 * fill.store_s["sched_put"] if warm else 0.0,
        "core.sched_cache_hits": first["sched_hits"],
        "core.schedule_json_kb":
            sum(len(j) for js in reference for j in js) / 1024.0,
        "hw.kernel_time_calls": first["kernel_time_calls"],
        "hw.kernel_time_ms":
            1e3 * per_pass(lambda p: p.kernel_time["seconds"]),
        "hw.program_cost_ms": 1e3 * per_pass(lambda p: p.cost_s),
        "hw.modelled_time_ms": total.time_s * 1e3,
        "hw.l1_hit_rate": total.l1_hit_rate,
        "hw.l2_hit_rate": total.l2_hit_rate,
        "hw.kernel_launches": total.kernel_launches,
        "tune.db_get_ms": 1e3 * per_pass(lambda p: p.store_s["tune_get"]),
        "tune.db_put_ms": 1e3 * fill.store_s["tune_put"] if warm else 0.0,
        "tune.db_hits": hits,
        "tune.db_misses": misses,
        "tune.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tune.configs_identical": int(identical),
        "baselines.unfused_time_ms": unfused_s * 1e3,
        "bench.samples": len(items) * len(passes),
        "bench.compile_s": pass_s,
        "bench.latency_p90_ms": steady_percentile(item_ms, 90),
    })
    result.per_layer = layer
    result.info = {"passes": len(passes), "items_per_pass": len(items),
                   "window_s": window_s, "setup_repeats": SETUP_REPEATS,
                   "pass_s": [p.wall_s for p in passes]}
    return result
