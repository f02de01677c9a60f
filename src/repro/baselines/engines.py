"""End-to-end inference engines (the comparators of sections 6.2 and 6.5).

Each engine is modelled by its *documented fusion capability* — exactly the
property Table 6 measures — plus its launch regime and kernel pedigree:

* **pytorch** — Huggingface eager baseline: cuBLAS GEMMs, library fused
  softmax/LayerNorm, per-op element-wise kernels, no CUDA graphs.
* **tensorrt** — library/pattern engine: fused MHA (when it matches),
  fused LayerNorm, GEMM+epilogue tactics, CUDA graphs.
* **kernl** — Triton substitution engine: FlashAttention-Triton, Triton
  fused LayerNorm, cuBLAS GEMMs, CUDA graphs.
* **bladedisc** — AStitch: fuses memory-intensive ops only; every
  compute-intensive op is a fusion barrier; CUDA graphs.
* **nnfusion** — Welder: tile-graph fusion without intra-operator
  dependency transformation, i.e. no Update-then-Aggregate; CUDA graphs.
* **spacefusion** — the full compiler of this repository.

Architecture support mirrors the paper: NNFusion results exist only for
Volta, BladeDISC is absent on Hopper, FlashAttention CUDA is absent on
Volta (Kernl falls back to its Triton attention there).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.compiler import (
    CompiledModel,
    CompiledSubprogram,
    CompileStats,
    FusionOptions,
    barrier_schedule,
)
from ..core.partition import subgraphs_from_ops
from ..core.schedule import ProgramSchedule
from ..hw.specs import GPUSpec
from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from ..ir.program import TensorProgram
from ..pipeline import make_compiler
from .common import group_by_attr, schedule_op_group, timing_fn_for
from .cublaslt import schedule_cublaslt
from .flash_attention import FlashAttentionUnavailable, schedule_flash_attention
from .unfused import schedule_pytorch

ENGINES = ("pytorch", "tensorrt", "kernl", "bladedisc", "nnfusion",
           "spacefusion")

#: Modelled compile-time constants (seconds); see EXPERIMENTS.md, Table 5.
TRITON_JIT_SECONDS = 0.75
TRT_TACTICS_PER_PATTERN = 50
TRT_SECONDS_PER_TACTIC = 0.6
TRT_BASE_SECONDS = 20.0
BLADEDISC_SECONDS_PER_SUBPROGRAM = 25.0
BLADEDISC_BASE_SECONDS = 30.0


class EngineUnsupported(Exception):
    """The engine has no build for the target architecture (paper: absent
    bars in Figure 14)."""


def engine_supported(engine: str, gpu: GPUSpec) -> bool:
    if engine == "nnfusion":
        return gpu.arch == "volta"
    if engine == "bladedisc":
        return gpu.arch in ("volta", "ampere")
    return True


def _is_attention_shaped(graph: DataflowGraph) -> bool:
    matmuls = sum(1 for op in graph.ops if op.is_contraction)
    has_softmax = any(op.attrs.get("fusion_group") == "softmax"
                      for op in graph.ops)
    return matmuls >= 2 and has_softmax and "l" in graph.dims.names()


def _schedule_library_engine(graph: DataflowGraph, gpu: GPUSpec,
                             engine: str) -> ProgramSchedule:
    """TensorRT / Kernl: pattern-match attention and norms, GEMM+epilogue
    for the rest."""
    if _is_attention_shaped(graph):
        try:
            if engine == "tensorrt":
                return _trt_fused_mha(graph, gpu)
            # Kernl's attention is its Triton FlashAttention port.
            return schedule_flash_attention(graph, gpu, "fa_triton")
        except (FlashAttentionUnavailable, ValueError):
            pass  # fall through to generic scheduling

    rc = gpu.resource_config()

    if engine == "kernl":
        # Kernl substitutes Triton kernels for attention and LayerNorm but
        # otherwise keeps PyTorch's per-op granularity (launched through
        # CUDA graphs, so without eager dispatch overhead).
        sched = schedule_pytorch(graph, gpu, framework_overhead=False)
        sched.meta["baseline"] = engine
        for kernel in sched.kernels:
            if kernel.meta.get("baseline") == "pytorch-op":
                kernel.meta["efficiency"] = 0.95  # Triton LN / softmax
        return sched

    # TensorRT: fused library kernels for tagged norm/softmax groups,
    # GEMM+pointwise-epilogue tactics for the rest.
    sched = ProgramSchedule(f"{graph.name}@{engine}",
                            meta={"baseline": engine})
    groups: list[tuple[str, list[Op]]] = []
    handled: set[str] = set()
    for ops in group_by_attr(graph):
        tag = ops[0].attrs.get("fusion_group")
        if tag is None or len(ops) == 1:
            continue
        if not (tag.startswith("softmax") or tag.startswith("layernorm")):
            # TensorRT's tactic library of the paper's era has no RMSNorm
            # pattern; such groups fall through to pointwise scheduling.
            continue
        groups.append((f"{graph.name}.{tag}", ops))
        handled.update(op.name for op in ops)
    n_fused = len(groups)
    remaining = [op for op in graph.topological_ops()
                 if op.name not in handled]
    if remaining:
        groups.append((f"{graph.name}.rest", remaining))
    subs = subgraphs_from_ops(graph, groups)
    for sub in subs[:n_fused]:
        for k in schedule_op_group(sub, rc, gpu, efficiency=1.1,
                                   meta={"baseline": engine}):
            sched.add(k)
    for rest in subs[n_fused:]:
        for k in schedule_cublaslt(rest, gpu).kernels:
            sched.add(k)
    return sched


def _trt_fused_mha(graph: DataflowGraph, gpu: GPUSpec) -> ProgramSchedule:
    """TensorRT's myelin fused attention: FA-2-like with TRT efficiency."""
    try:
        sched = schedule_flash_attention(graph, gpu, "fa2")
    except FlashAttentionUnavailable:
        # TRT ships a Volta fMHA; model it as the FA-1 structure.
        sched = schedule_flash_attention(graph, gpu, "fa1")
    for k in sched.kernels:
        k.meta["efficiency"] = 1.10
        k.meta["baseline"] = "tensorrt"
    return sched


def compile_model_with_engine(program: TensorProgram, gpu: GPUSpec,
                              engine: str) -> CompiledModel:
    """Compile a model program with one of the section-6.2 engines."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choices: {ENGINES}")
    if not engine_supported(engine, gpu):
        raise EngineUnsupported(
            f"{engine} is not supported on {gpu.arch} (as in the paper)")

    if engine == "spacefusion":
        model = make_compiler(gpu).compile_model(program)
        model.stats.phase_times["modeled_compile"] = \
            modeled_compile_seconds("spacefusion", model)
        return model
    if engine == "bladedisc":
        # AStitch is a rule-based JIT: no compute-intensive fusion, no
        # measured auto-tuning, generated-code efficiency below Triton's.
        options = FusionOptions(fuse_compute_intensive=False,
                                auto_tune=False)
        model = make_compiler(gpu, options).compile_model(program)
        for sub in model.subprograms:
            for kernel in sub.schedule.kernels:
                kernel.meta.setdefault("efficiency", 0.9)
        _boost_gemm_kernels(model)
        _mark_graphs(model)
        model.stats.phase_times["modeled_compile"] = \
            modeled_compile_seconds("bladedisc", model)
        return model
    if engine == "nnfusion":
        options = FusionOptions(enable_uta=False)
        model = make_compiler(gpu, options).compile_model(program)
        _mark_graphs(model)
        model.stats.phase_times["modeled_compile"] = \
            modeled_compile_seconds("nnfusion", model)
        return model

    # Library engines: pytorch / tensorrt / kernl.
    subs: list[CompiledSubprogram] = []
    stats = CompileStats()
    for sub in program.unique_subprograms():
        graph = sub.graph
        if any(op.is_barrier for op in graph.ops):
            sched = barrier_schedule(graph)
        elif engine == "pytorch":
            sched = schedule_pytorch(graph, gpu)
        else:
            sched = _schedule_library_engine(graph, gpu, engine)
        if engine != "pytorch":
            sched.meta["cuda_graphs"] = True
        subs.append(CompiledSubprogram(sched, CompileStats(),
                                       sub.occurrences))
    model = CompiledModel(f"{program.name}@{engine}", subs, stats)
    model.stats.phase_times["modeled_compile"] = \
        modeled_compile_seconds(engine, model)
    return model


def _boost_gemm_kernels(model: CompiledModel) -> None:
    """BladeDISC hands GEMMs to cuBLAS: bump their kernel efficiency."""
    for sub in model.subprograms:
        for kernel in sub.schedule.kernels:
            ops = kernel.exec_graph.ops
            if any(op.is_contraction for op in ops) and len(ops) == 1:
                kernel.meta["efficiency"] = 1.15


def _mark_graphs(model: CompiledModel) -> None:
    for sub in model.subprograms:
        sub.schedule.meta["cuda_graphs"] = True


def jit_configs_of_model(model: CompiledModel) -> int:
    """Configurations the backend must JIT-compile: the search spaces of
    the kernels in the final schedule.  Candidates discarded during
    scheduling are pruned analytically (section 6.5) and never reach code
    generation."""
    return sum(
        len(kernel.search_space) or 1
        for sub in model.subprograms
        for kernel in sub.schedule.kernels
        if not kernel.meta.get("barrier")
    )


def modeled_compile_seconds(engine: str, model: CompiledModel) -> float:
    """Compile-time model behind Tables 4/5 (documented in EXPERIMENTS.md).

    SpaceFusion's cost is its (measured) analysis time plus a JIT
    compilation per configuration of the final kernels' search spaces plus
    the simulated measurement campaign.  TensorRT's is tactic search over
    its pattern library; BladeDISC's is per-subprogram JIT compilation.
    """
    if engine in ("spacefusion", "nnfusion"):
        st = model.stats
        analysis = sum(v for k, v in st.phase_times.items()
                       if k != "modeled_compile")
        return (analysis + jit_configs_of_model(model) * TRITON_JIT_SECONDS
                + st.tuning_wall_time)
    if engine == "tensorrt":
        patterns = len(model.subprograms)
        return (TRT_BASE_SECONDS
                + patterns * TRT_TACTICS_PER_PATTERN * TRT_SECONDS_PER_TACTIC)
    if engine == "bladedisc":
        return (BLADEDISC_BASE_SECONDS
                + len(model.subprograms) * BLADEDISC_SECONDS_PER_SUBPROGRAM)
    if engine == "kernl":
        return 15.0 + 4 * TRITON_JIT_SECONDS
    return 0.0
