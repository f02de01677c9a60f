"""Pre-wired entry points: compiler + device simulator in one call.

This is the public "just compile my graph for this GPU" API used by the
examples and benchmarks::

    from repro.pipeline import compile_for, simulate
    from repro.hw import AMPERE

    schedule, stats = compile_for(graph, AMPERE)
    counters = simulate(schedule, AMPERE)
"""

from __future__ import annotations

import copy

from .core.compiler import (
    CompiledModel,
    CompileStats,
    FusionOptions,
    SpaceFusionCompiler,
)
from .core.schedule import ProgramSchedule
from .hw.counters import PerfCounters
from .hw.simulator import DeviceSimulator
from .hw.specs import GPUSpec
from .ir.graph import DataflowGraph
from .ir.program import TensorProgram


def make_compiler(gpu: GPUSpec,
                  options: FusionOptions | None = None,
                  tune_db=None,
                  tune_metrics=None) -> SpaceFusionCompiler:
    """A SpaceFusion compiler targeting ``gpu``, timed by its cost model
    (which also bounds each partition candidate before it is priced).

    ``tune_db`` (a :class:`repro.tune.TuneDB`) swaps the default tuning
    procedure for the database-backed :class:`repro.tune.GuidedTuner`:
    previously tuned kernels replay their stored winner, cold kernels run
    the paper's campaign and store theirs.  Chosen configurations are
    identical either way; only tuning wall-clock changes.
    ``tune_metrics`` (a :class:`repro.serve.metrics.ServeMetrics`)
    receives the tuner's ``tunedb.*`` counters.
    """
    sim = DeviceSimulator(gpu)
    tuner = None
    if tune_db is not None:
        from .tune import GuidedTuner, gpu_fingerprint

        tuner = GuidedTuner(tune_db, gpu_key=gpu_fingerprint(gpu),
                            metrics=tune_metrics)
    return SpaceFusionCompiler(
        rc=gpu.resource_config(),
        timing_fn=sim.kernel_time,
        options=options,
        tuner=tuner,
        time_bound=sim.region_time_bound,
    )


def compile_for(graph: DataflowGraph, gpu: GPUSpec,
                options: FusionOptions | None = None,
                tune_db=None,
                tune_metrics=None,
                ) -> tuple[ProgramSchedule, CompileStats]:
    """Compile one barrier-free graph for ``gpu``."""
    return make_compiler(gpu, options, tune_db=tune_db,
                         tune_metrics=tune_metrics).compile_graph(graph)


def compile_model_for(program: TensorProgram, gpu: GPUSpec,
                      options: FusionOptions | None = None,
                      tune_db=None,
                      tune_metrics=None) -> CompiledModel:
    """Compile a whole model program (repeated subprograms compile once;
    with a disk-tier ``tune_db``, once per store: :mod:`repro.tune.models`)."""
    compiler = make_compiler(gpu, options, tune_db=tune_db,
                             tune_metrics=tune_metrics)
    if tune_db is not None and tune_db.models is not None:
        from .tune.models import compile_model_stored

        return compile_model_stored(compiler, program)
    return compiler.compile_model(program)


def simulate(schedule: ProgramSchedule, gpu: GPUSpec,
             cuda_graphs: bool | None = None) -> PerfCounters:
    """Model the execution cost of a compiled schedule on ``gpu``."""
    return DeviceSimulator(gpu).program_cost(schedule, cuda_graphs=cuda_graphs)


def simulate_model(model: CompiledModel, gpu: GPUSpec,
                   cuda_graphs: bool | None = None) -> PerfCounters:
    """Model a compiled model end to end (subprograms scaled by occurrence);
    a stored model keeps its totals, and a hit is a copy."""
    memo, key = model.costed, (gpu, cuda_graphs)
    if memo is not None and (hit := memo.get(key)) is not None:
        return copy.copy(hit)
    sim = DeviceSimulator(gpu)
    total = PerfCounters(line_bytes=gpu.line_bytes)
    for sub in model.subprograms:
        counters = sim.program_cost(sub.schedule, cuda_graphs=cuda_graphs)
        total.add(counters.scaled(sub.occurrences))
    if memo is not None:
        memo[key] = copy.copy(total)
    return total
