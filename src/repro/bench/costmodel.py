"""Cost-model calibration smoke: three models, one set of books.

The reproduction's numbers rest on the analytical cost model, which is
cross-validated two independent ways:

* **bytes** — the tracing executor *runs* each compiled schedule and counts
  actual global loads; the analytical traffic accounting must match
  byte-exactly (indivisible grids included);
* **ranking** — the event-driven simulator re-times every configuration in
  each kernel's search space; the analytical winner must also win there
  (ties by value allowed), since rankings are what the auto-tuner consumes;
* **hit rate** — the event sim's granule-LRU replay of the cache hierarchy
  must land near the closed-form read hit rate.

Backs the ``repro bench-costmodel`` CLI and the ``BENCH_costmodel.json``
trajectory file under ``benchmarks/results/``.
"""

from __future__ import annotations

from ..hw import ARCHITECTURES, DeviceSimulator
from ..hw.event_sim import EventDrivenSimulator, cross_check_hierarchy
from ..models import (
    layernorm_graph,
    lstm_cell_graph,
    mha_graph,
    mlp_graph,
)
from ..pipeline import compile_for
from ..runtime import random_feeds
from ..runtime.tracing import trace_program
from .reporting import ExperimentResult

#: The calibration zoo: the Fig. 11–13 workload shapes at sizes small
#: enough to execute under the tracing executor on every preset.
COSTMODEL_WORKLOADS = {
    "mlp": lambda: mlp_graph(8, 256, 64, 64),
    "lstm": lambda: lstm_cell_graph(64, 128),
    "layernorm": lambda: layernorm_graph(256, 256),
    "mha": lambda: mha_graph(1, 8, 128, 128, 64),
    "mha-ragged": lambda: mha_graph(1, 4, 120, 120, 64),
}


def bench_costmodel(workloads=None, archs=None) -> ExperimentResult:
    """Cross-validate the three models over the zoo on every preset.

    One row per (workload, architecture, kernel): whether the traced
    loads equal the modeled loads, how the analytical winner fares in the
    event ranking (1.0 = it wins outright), and the read-hit-rate delta
    between the closed form and the granule replay.
    """
    names = list(workloads) if workloads else list(COSTMODEL_WORKLOADS)
    arch_names = list(archs) if archs else list(ARCHITECTURES)
    result = ExperimentResult(
        "bench_costmodel",
        "analytic vs event-sim vs traced execution "
        f"({len(names)} workloads x {len(arch_names)} presets)",
        ["workload", "arch", "kernel", "bytes_exact", "traced_mb",
         "modeled_mb", "top1_ratio", "hit_delta", "replayed"])
    for arch in arch_names:
        gpu = ARCHITECTURES[arch]
        sim = DeviceSimulator(gpu)
        ev = EventDrivenSimulator(gpu)
        for name in names:
            graph = COSTMODEL_WORKLOADS[name]()
            schedule, _stats = compile_for(graph, gpu)
            feeds = random_feeds(graph, seed=0)
            _env, traces = trace_program(schedule, feeds)
            for kernel in schedule.kernels:
                _c, breakdown = sim.kernel_cost(kernel)
                trace = traces[kernel.name]
                bytes_exact = trace.load_bytes == breakdown.load_bytes

                # Ranking: the event-simulated time of the analytical
                # winner relative to the event sim's own best.  1.0 means
                # the analytical winner is (tied-)fastest there too.
                if kernel.meta.get("barrier") \
                        or len(kernel.search_space) < 2:
                    top1_ratio = 1.0
                else:
                    a_best = sim.sweep_configs(kernel)[0][0]
                    e_best = ev.rank_configs(kernel)[0][1]
                    e_of_a = ev.simulate_kernel(kernel, a_best).time_s
                    top1_ratio = e_of_a / e_best if e_best else 1.0

                hier = cross_check_hierarchy(kernel, gpu)
                result.add_row(
                    workload=name, arch=arch, kernel=kernel.name,
                    bytes_exact=bytes_exact,
                    traced_mb=trace.load_bytes / 1e6,
                    modeled_mb=breakdown.load_bytes / 1e6,
                    top1_ratio=top1_ratio,
                    hit_delta=hier["hit_rate_delta"],
                    replayed=hier["replayed"],
                )
    exact = sum(1 for r in result.rows if r["bytes_exact"])
    result.notes.append(
        f"byte-exact trace agreement on {exact}/{len(result.rows)} kernels")
    worst_rank = max((r["top1_ratio"] for r in result.rows), default=1.0)
    worst_hit = max((r["hit_delta"] for r in result.rows), default=0.0)
    result.notes.append(
        f"worst top1 ratio {worst_rank:.3f}, "
        f"worst hit-rate delta {worst_hit:.3f}")
    return result
